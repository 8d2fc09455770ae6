"""The property sweeps behind `pmetraj check`: each batched oracle and sweep
against the per-probe or per-sample loop it replaced, the number of calls
each one makes, and the defects each one must catch."""
import math

import numpy as np
import pytest

from pmetraj import checks, functional
from pmetraj.checks import CheckResult
from pmetraj.grid import Grid


# ---------------------------------------------------------------------------
# reference loops: one call per probe or per sample
# ---------------------------------------------------------------------------

def _gradient_loop(spec, params, x_curr, coeffs, x_new, rel_tol=1e-6, step=5e-4):
    grid = spec.grid
    x_hat = x_new - grid.nodes()
    g = functional.residual(x_new, x_curr, coeffs, spec, params)
    grad = grid.h * g[1:-1]
    fd = np.empty_like(grad)
    for i in range(1, grid.M):
        probes = []
        for k in (-2.0, -1.0, 1.0, 2.0):
            xp = x_hat.copy()
            xp[i] += k * step
            probes.append(functional.eval_F(xp, x_curr, coeffs, spec, params))
        fd[i - 1] = (probes[0] - 8.0 * probes[1] + 8.0 * probes[2] - probes[3]) / (12.0 * step)
    err = float(np.max(np.abs(fd - grad))) / float(np.max(np.abs(grad)))
    return err, err <= rel_tol


def _hessian_loop(spec, params, x_curr, coeffs, x_new, rel_tol=1e-6, step=1e-6):
    n = spec.grid.M - 1
    diag, off = functional.hessian_coefficients(x_new, coeffs, spec, params)
    dense = np.diag(diag)
    dense += np.diag(off, 1) + np.diag(off, -1)
    fd = np.empty((n, n))
    for j in range(n):
        xp = x_new.copy()
        xp[j + 1] += step
        xm = x_new.copy()
        xm[j + 1] -= step
        gp = functional.residual(xp, x_curr, coeffs, spec, params)[1:-1]
        gm = functional.residual(xm, x_curr, coeffs, spec, params)[1:-1]
        fd[:, j] = (gp - gm) / (2.0 * step)
    err = float(np.max(np.abs(fd - dense))) / float(np.max(np.abs(dense)))
    return err, err <= rel_tol


def _w_loop(rng, samples=1000):
    name = "secant slope derivative W <= 0"
    for _ in range(samples):
        y = rng.uniform(1e-3, 10.0)
        y0 = rng.uniform(1e-3, 10.0)
        w = float(functional.slope_derivative_W(y, y0))
        if not w <= 0.0:
            return CheckResult(name, False, f"counterexample y={y!r}, y0={y0!r}: W={w!r}")
    return CheckResult(name, True)


def _g_second_loop(rng, samples=1000):
    name = "convex-part curvature G'' >= 0"
    for _ in range(samples):
        y = rng.uniform(1e-3, 10.0)
        y0 = rng.uniform(1e-3, 10.0)
        gpp = float(functional.g_convex_second(y - 1.0, y0))
        _, d1, _ = functional.q1_oracle(y, y0)
        if not gpp >= 0.0:
            return CheckResult(name, False,
                               f"counterexample x={y - 1.0!r}, x0={y0!r}: G''={gpp!r}")
        if not abs(gpp - d1) <= 1e-9 * abs(d1):
            return CheckResult(name, False,
                               f"G'' and the q1 oracle's q1' disagree at y={y!r}, "
                               f"y0={y0!r}: G''={gpp!r}, q1'={d1!r}")
    return CheckResult(name, True)


def _states(M, count, seed=11):
    """The states of check_*_fd: every odd-numbered one has the opening
    step's flux."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        spec, params, x_curr, coeffs = checks._random_setup(rng, M=M,
                                                            damped_start=i % 2 == 1)
        yield spec, params, x_curr, coeffs, checks.random_admissible(rng, spec.grid)


def _record_calls(monkeypatch, name):
    """Patch functional.<name> to record the shape of its first argument."""
    shapes = []
    original = getattr(functional, name)

    def recorder(*args, **kwargs):
        shapes.append(np.shape(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(functional, name, recorder)
    return shapes


# ---------------------------------------------------------------------------
# the batched oracles equal their loops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("oracle, loop, M", [
    (checks.gradient_vs_fd, _gradient_loop, 16),
    (checks.hessian_vs_fd, _hessian_loop, 24),
])
def test_oracle_equals_reference_loop(oracle, loop, M):
    for state in _states(M, 20):
        assert oracle(*state) == loop(*state)


def test_gradient_oracle_makes_one_eval_F_call(monkeypatch):
    state = next(_states(16, 1))
    shapes = _record_calls(monkeypatch, "eval_F")
    assert checks.gradient_vs_fd(*state)[1]
    assert shapes == [(4 * 15, 17)]


def test_hessian_oracle_makes_one_residual_and_one_hessian_call(monkeypatch):
    state = next(_states(24, 1))
    residuals = _record_calls(monkeypatch, "residual")
    hessians = _record_calls(monkeypatch, "hessian_coefficients")
    assert checks.hessian_vs_fd(*state)[1]
    assert residuals == [(2 * 23, 25)]
    assert hessians == [(25,)]


def test_hessian_oracle_catches_coupling_outside_the_tridiagonal(monkeypatch):
    state = next(_states(24, 1))
    assert checks.hessian_vs_fd(*state)[1]
    original = functional.residual

    def coupled(x_new, *args, **kwargs):
        g = original(x_new, *args, **kwargs)
        g[..., 1:-3] += 1e-2 * np.asarray(x_new)[..., 3:-1]  # row j sees node j + 2
        return g

    monkeypatch.setattr(functional, "residual", coupled)
    err, ok = checks.hessian_vs_fd(*state)
    assert not ok and err > 1e-6


# ---------------------------------------------------------------------------
# sign sweeps
# ---------------------------------------------------------------------------

def test_sweep_draws_equal_scalar_draws():
    batched, scalar = np.random.default_rng(3), np.random.default_rng(3)
    pairs = batched.uniform(1e-3, 10.0, size=(1000, 2))
    assert pairs.tolist() == [[scalar.uniform(1e-3, 10.0), scalar.uniform(1e-3, 10.0)]
                              for _ in range(1000)]
    assert batched.random() == scalar.random()


def test_w_sweep_makes_one_W_call(monkeypatch):
    shapes = _record_calls(monkeypatch, "slope_derivative_W")
    assert checks.check_w_nonpositive(np.random.default_rng(0)).ok
    assert shapes == [(1000,)]


@pytest.mark.parametrize("sweep, loop", [
    (checks.check_w_nonpositive, _w_loop),
    (checks.check_g_second_nonnegative, _g_second_loop),
])
@pytest.mark.parametrize("flip_above", [None, 5.0])
def test_sweep_equals_reference_loop(monkeypatch, sweep, loop, flip_above):
    if flip_above is not None:
        # W > 0 (so G'' < 0) wherever y > flip_above: the first such sample
        # is the counterexample
        original = functional.slope_derivative_W
        monkeypatch.setattr(
            functional, "slope_derivative_W",
            lambda y, y0: original(y, y0) * np.where(np.asarray(y) > flip_above, -1.0, 1.0))
    for seed in range(4):
        got = sweep(np.random.default_rng(seed))
        assert got == loop(np.random.default_rng(seed))
        assert got.ok == (flip_above is None)


def test_g_second_sweep_catches_a_slightly_wrong_W(monkeypatch):
    # G'' is -W(1 + x, x0), so comparing it with W could never fail; the q1
    # oracle's q1' is an independent form
    original = functional.slope_derivative_W
    monkeypatch.setattr(functional, "slope_derivative_W",
                        lambda y, y0: original(y, y0) * (1.0 + 1e-6))
    result = checks.check_g_second_nonnegative(np.random.default_rng(0))
    assert not result.ok
    assert "disagree" in result.detail


def test_branch_continuity_names_first_counterexample(monkeypatch):
    assert checks.check_branch_continuity().ok
    original = functional.secant_ratio_R
    monkeypatch.setattr(functional, "secant_ratio_R",
                        lambda y, y0: original(y, y0) + np.where(np.asarray(y0) > 1.0, 1e-5, 0.0))
    result = checks.check_branch_continuity()
    first = next(float(y0) for y0 in np.geomspace(0.1, 10.0, 61) if y0 > 1.0)
    assert not result.ok
    assert result.detail.startswith(f"counterexample y0={first!r}, offset=")


def _q1_loop(rng, samples=1000):
    name = "q1 monotone increasing and concave"
    for _ in range(samples):
        x = rng.uniform(1e-3, 10.0)
        x0 = rng.uniform(1e-3, 10.0)
        _, d1, d2 = (float(v) for v in functional.q1_oracle(x, x0))
        if not (d1 > 0.0 and d2 <= 0.0):
            return CheckResult(name, False, f"counterexample x={x!r}, x0={x0!r}: "
                                            f"q1'={d1!r}, q1''={d2!r}")
    return CheckResult(name, True)


def test_q1_sweep_names_first_counterexample(monkeypatch):
    # q1'' > 0 wherever x > 7: the first such sample is the counterexample
    assert checks.check_q1_signs(np.random.default_rng(0)).ok
    original = functional.q1_oracle

    def convex_above_7(x, x0):
        q, d1, d2 = original(x, x0)
        return q, d1, d2 * np.where(np.asarray(x) > 7.0, -1.0, 1.0)

    monkeypatch.setattr(functional, "q1_oracle", convex_above_7)
    for seed in range(4):
        result = checks.check_q1_signs(np.random.default_rng(seed))
        assert not result.ok
        assert result == _q1_loop(np.random.default_rng(seed))
        assert float(result.detail.split("x=", 1)[1].split(",", 1)[0]) > 7.0


# ---------------------------------------------------------------------------
# the finite-difference checks report their first failing state
# ---------------------------------------------------------------------------

def _first_state_above(seed, M, m_limit):
    """The states check_*_fd visits from seed up to the first with m > m_limit,
    and the index of that one."""
    states = []
    for spec, *rest in _states(M, 20, seed):
        states.append((spec, *rest))
        if spec.m > m_limit:
            return states, len(states) - 1
    raise AssertionError("no state above the limit")


@pytest.mark.parametrize("check, loop, patched, M", [
    (checks.check_gradient_fd, _gradient_loop, "eval_F", 16),
    (checks.check_hessian_fd, _hessian_loop, "residual", 24),
])
def test_fd_check_names_first_failing_state(monkeypatch, check, loop, patched, M):
    # the functional (for the gradient oracle) or the residual (for the
    # Hessian oracle) is wrong on states with m > 2 only
    original = getattr(functional, patched)

    def wrong_above_2(x, x_curr, coeffs, spec, params, *args):
        value = original(x, x_curr, coeffs, spec, params, *args)
        if spec.m <= 2.0:
            return value
        if patched == "eval_F":  # d/dx_i of the added term is 1e-3
            return value + 1e-3 * np.sum(np.asarray(x), axis=-1)
        value[..., 1:-3] += 1e-2 * np.asarray(x)[..., 3:-1]  # row j sees node j + 2
        return value

    seed = 3
    states, first = _first_state_above(seed, M, 2.0)
    assert first >= 1
    passing = [loop(*state)[0] for state in states[:first]]
    monkeypatch.setattr(functional, patched, wrong_above_2)
    err, ok = loop(*states[first])
    assert not ok
    spec, params = states[first][:2]
    result = check(np.random.default_rng(seed))
    assert result == CheckResult(
        result.name, False, f"relative error {err:.3e} at m={spec.m!r}, tau={params.tau!r}")
    assert max(passing) <= 1e-6


@pytest.mark.parametrize("check, loop, M", [
    (checks.check_gradient_fd, _gradient_loop, 16),
    (checks.check_hessian_fd, _hessian_loop, 24),
])
def test_fd_check_reports_worst_error_on_a_pass(check, loop, M):
    worst = max(loop(*state)[0] for state in _states(M, 20, seed=7))
    result = check(np.random.default_rng(7))
    assert result.ok and result.detail == f"worst relative error {worst:.3e}"


# ---------------------------------------------------------------------------
# the discrete identities stop at their first failing trial
# ---------------------------------------------------------------------------

def _sbp_loop(rng, trials):
    name = "summation by parts"
    for _ in range(trials):
        M = int(rng.integers(4, 129))
        grid = Grid(0.0, 1.0, M)
        u = rng.standard_normal(M + 1)
        u[0] = u[-1] = 0.0
        c = rng.uniform(0.5, 2.0, M)
        du = checks.d_forward(u, grid)
        lhs = grid.h * float(np.sum(checks.d_centered_to_nodes(c * du, grid)[1:-1] * u[1:-1]))
        rhs = -grid.h * float(np.sum(c * du * du))
        if abs(lhs - rhs) > 1e-12 * max(abs(lhs), abs(rhs), 1e-300):
            return CheckResult(name, False, f"mismatch {abs(lhs - rhs):.3e} at M={M}")
    return CheckResult(name, True)


def _wide_loop(rng, trials):
    name = "wide-slope norm bounded by forward-slope norm"
    for _ in range(trials):
        M = int(rng.integers(4, 129))
        grid = Grid(0.0, 1.0, M)
        f = rng.standard_normal(M + 1)
        f[0] = f[-1] = 0.0
        wide = math.sqrt(grid.h * float(np.sum(checks.d_wide(f, grid)[1:-1] ** 2)))
        forward = math.sqrt(grid.h * float(np.sum(checks.d_forward(f, grid) ** 2)))
        if wide > forward * (1.0 + 1e-12):
            return CheckResult(name, False, f"||wide||={wide!r} > ||forward||={forward!r} at M={M}")
    return CheckResult(name, True)


@pytest.mark.parametrize("check, loop, operator", [
    (checks.check_summation_by_parts, _sbp_loop, "d_centered_to_nodes"),
    (checks.check_wide_slope_norm, _wide_loop, "d_wide"),
])
@pytest.mark.parametrize("broken", [False, True])
def test_identity_check_equals_reference_loop(monkeypatch, check, loop, operator, broken):
    if broken:
        # the operator doubles on grids finer than 64 cells: the first such
        # trial fails, and the check draws nothing after it
        original = getattr(checks, operator)
        monkeypatch.setattr(checks, operator, lambda v, grid: original(v, grid)
                            * (2.0 if grid.M > 64 else 1.0))
    for seed in range(3):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        result = check(rng, 40)
        assert result == loop(reference, 40)
        assert result.ok != broken
        assert rng.random() == reference.random()
