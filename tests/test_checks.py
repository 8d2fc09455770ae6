"""The property sweeps behind `pmetraj check`: each batched oracle and sweep
against the per-probe or per-sample loop it replaced, the number of calls
each one makes, and the defects each one must catch."""
import numpy as np
import pytest

from pmetraj import checks, functional
from pmetraj.checks import CheckResult


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
    rng = np.random.default_rng(seed)
    for _ in range(count):
        spec, params, x_curr, coeffs = checks._random_setup(rng, M=M)
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
