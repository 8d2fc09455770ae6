"""The property sweeps behind `pmetraj check`: each batched oracle and sweep
against the per-probe or per-sample loop it replaced, the number of calls
each one makes, and the defects each one must catch."""
import dataclasses
import math

import numpy as np
import pytest

from pmetraj import _kernels, checks, functional
from pmetraj.checks import CheckResult
from pmetraj.grid import Grid
from reference_states import random_setup


# ---------------------------------------------------------------------------
# reference loops: one call per probe or per sample
# ---------------------------------------------------------------------------

def _gradient_loop(spec, x_curr, coeffs, x_new, rel_tol=1e-6, step=5e-4):
    grid = spec.grid
    x_hat = x_new - grid.nodes()
    g = functional.residual(x_new, x_curr, coeffs, spec)
    grad = grid.h * g[1:-1]
    fd = np.empty_like(grad)
    for i in range(1, grid.M):
        probes = []
        for k in (-2.0, -1.0, 1.0, 2.0):
            xp = x_hat.copy()
            xp[i] += k * step
            probes.append(functional.eval_F(xp, x_curr, coeffs, spec))
        fd[i - 1] = (probes[0] - 8.0 * probes[1] + 8.0 * probes[2] - probes[3]) / (12.0 * step)
    err = float(np.max(np.abs(fd - grad))) / float(np.max(np.abs(grad)))
    return err, err <= rel_tol


def _hessian_loop(spec, x_curr, coeffs, x_new, rel_tol=1e-6, step=1e-6):
    n = spec.grid.M - 1
    diag, off = functional.hessian_coefficients(x_new, coeffs, spec)
    dense = np.diag(diag)
    dense += np.diag(off, 1) + np.diag(off, -1)
    fd = np.empty((n, n))
    for j in range(n):
        xp = x_new.copy()
        xp[j + 1] += step
        xm = x_new.copy()
        xm[j + 1] -= step
        gp = functional.residual(xp, x_curr, coeffs, spec)[1:-1]
        gm = functional.residual(xm, x_curr, coeffs, spec)[1:-1]
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


def _states_from(rng, M, count):
    """The states of check_*_fd drawn one at a time from rng: every
    odd-numbered one has the opening step's flux."""
    for i in range(count):
        spec, x_curr, coeffs = random_setup(rng, M=M, damped_start=i % 2 == 1)
        yield spec, x_curr, coeffs, checks.random_admissible(rng, spec.grid)


def _states(M, count, seed=11):
    return _states_from(np.random.default_rng(seed), M, count)


def _sub_batch(batch, rows):
    """x_curr, x_new and the record of the rows of a batch (m, x_curr,
    x_new, coeffs) of checks._draw_states."""
    _, x_curr, x_new, coeffs = batch
    return x_curr[rows], x_new[rows], dataclasses.replace(
        coeffs, mass=coeffs.mass[rows], slope_curr=coeffs.slope_curr[rows],
        tau=coeffs.tau[rows], a0=coeffs.a0[rows])


def _error_of(oracle, spec, x_curr, coeffs, x_new):
    """oracle's relative error on one state, passed as a batch of one row
    with its unstacked record."""
    [err] = oracle(x_curr[None], x_new[None], coeffs, spec.grid, _kernels.Workspace)
    return err


def _record_calls(monkeypatch, name, owner=functional):
    """Patch owner.<name> to record the shape of its first argument."""
    shapes = []
    original = getattr(owner, name)

    def recorder(*args, **kwargs):
        shapes.append(np.shape(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorder)
    return shapes


# ---------------------------------------------------------------------------
# one draw per sweep gives the states drawn one at a time
# ---------------------------------------------------------------------------

def _bits(value):
    value = np.asarray(value)
    return value.dtype, value.shape, value.tobytes()


@pytest.mark.parametrize("M", [16, 24])
def test_drawn_states_equal_states_drawn_one_at_a_time(M):
    # every field a batch hands the oracles, row by row, with both flux forms
    for seed in range(20):
        rng = np.random.default_rng(seed)
        batches, reference = checks._draw_states(rng, M), np.random.default_rng(seed)
        want = list(_states_from(reference, M, checks.FD_STATES))
        assert len(batches) == 2
        for odd, (m, x_curr, x_new, coeffs) in enumerate(batches):
            rows = want[odd::2]
            assert coeffs.damped_start == bool(odd)
            assert len(m) == len(x_curr) == len(x_new) == len(rows)
            assert coeffs.tau.shape == coeffs.a0.shape == (len(rows), 1)
            for row, (w_spec, w_x_curr, w_coeffs, w_x_new) in enumerate(rows):
                assert w_coeffs.damped_start == bool(odd)
                assert (float(m[row]).hex(), float(coeffs.tau[row, 0]).hex(),
                        float(coeffs.a0[row, 0]).hex()) == (
                    w_spec.m.hex(), w_coeffs.tau.hex(), w_coeffs.a0.hex())
                for got, expected in [(x_curr[row], w_x_curr), (x_new[row], w_x_new),
                                      (coeffs.slope_curr[row], w_coeffs.slope_curr),
                                      (coeffs.mass[row], w_coeffs.mass),
                                      (coeffs.f0_cells, w_coeffs.f0_cells),
                                      (coeffs.h, w_coeffs.h)]:
                    assert _bits(got) == _bits(expected)
        assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("check, M", [
    (checks.check_gradient_fd, 16),
    (checks.check_hessian_fd, 24),
])
def test_passing_fd_check_leaves_the_generator_where_its_states_end(check, M):
    for seed in range(3):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        assert check(rng).ok
        list(_states_from(reference, M, checks.FD_STATES))
        assert rng.bit_generator.state == reference.bit_generator.state


# ---------------------------------------------------------------------------
# the batched oracles equal their loops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("oracle, loop, M", [
    (checks.gradient_vs_fd, _gradient_loop, 16),
    (checks.hessian_vs_fd, _hessian_loop, 24),
])
def test_oracle_equals_reference_loop(oracle, loop, M):
    # each row of a batch gets the error of its own loop, whatever the
    # batch size: this is what lets the size be a constant
    seed, grid = 11, Grid(0.0, 1.0, M)
    batches = checks._draw_states(np.random.default_rng(seed), M)
    want = [loop(*state)[0] for state in _states(M, checks.FD_STATES, seed)]
    for size in (1, 5, 10):
        got = np.empty(checks.FD_STATES)
        for odd, batch in enumerate(batches):
            for start in range(0, len(batch[1]), size):
                rows = slice(start, start + size)
                got[odd::2][rows] = oracle(*_sub_batch(batch, rows), grid,
                                           _kernels.Workspace)
        assert got.tolist() == want


def _one_flux_batch(M, size=5):
    """x_curr, x_new and the record of the first size states of check_*_fd
    on M cells, all with the averaged flux."""
    return _sub_batch(checks._draw_states(np.random.default_rng(11), M)[0], slice(0, size))


def test_gradient_oracle_makes_one_residual_and_one_F_call(monkeypatch):
    # Newton's kernels: one assembly on the states, one F on the
    # probe-major stack of their probes
    batch = _one_flux_batch(16)
    residuals = _record_calls(monkeypatch, "residual_hessian", _kernels)
    values = _record_calls(monkeypatch, "step_functional", _kernels)
    errors = checks.gradient_vs_fd(*batch, Grid(0.0, 1.0, 16), _kernels.Workspace)
    assert np.all(errors <= checks.FD_REL_TOL)
    assert residuals == [(5, 17)]
    assert values == [(4 * 15, 5, 17)]


def test_hessian_oracle_makes_one_assembly(monkeypatch):
    # the states (row 0) and their probes in one probe-major stack
    batch = _one_flux_batch(24)
    assemblies = _record_calls(monkeypatch, "residual_hessian", _kernels)
    errors = checks.hessian_vs_fd(*batch, Grid(0.0, 1.0, 24), _kernels.Workspace)
    assert np.all(errors <= checks.FD_REL_TOL)
    assert assemblies == [(1 + 2 * 23, 5, 25)]


def test_hessian_oracle_catches_coupling_outside_the_tridiagonal(monkeypatch):
    state = next(_states(24, 1))
    assert _error_of(checks.hessian_vs_fd, *state) <= checks.FD_REL_TOL
    original = _kernels.residual_hessian

    def coupled(x_new, *args, **kwargs):
        g, diag, off = original(x_new, *args, **kwargs)
        g[..., :-2] += 1e-2 * np.asarray(x_new)[..., 3:-1]  # row of node j sees node j + 2
        return g, diag, off

    monkeypatch.setattr(_kernels, "residual_hessian", coupled)
    assert _error_of(checks.hessian_vs_fd, *state) > 1e-6


def test_run_all_makes_a_bounded_number_of_assembly_and_F_calls(monkeypatch):
    # one oracle call per flux form of each sweep: the gradient oracle makes
    # one assembly and one F call per form, the Hessian oracle one
    # assembly, so 4 assemblies and 2 F calls, all of Newton's kernels and
    # none through the views; one call per state would make 40 assemblies
    # and 20 F calls
    counts = {}
    for name in ("residual_hessian", "step_functional", "residual_interior",
                 "hessian_tridiag"):
        counts[name] = _record_calls(monkeypatch, name, _kernels)
    assert all(result.ok for result in checks.run_all(0))
    assert len(counts["residual_hessian"]) == 4
    assert len(counts["step_functional"]) == 2
    assert counts["residual_interior"] == counts["hessian_tridiag"] == []


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

def _first_state_above(seed, M, tau_limit):
    """The states check_*_fd visits from seed up to the first with
    tau > tau_limit, and the index of that one."""
    states = []
    for state in _states(M, 20, seed):
        states.append(state)
        if state[2].tau > tau_limit:
            return states, len(states) - 1
    raise AssertionError("no state above the limit")


@pytest.mark.parametrize("check, loop, patched, M", [
    (checks.check_gradient_fd, _gradient_loop, "step_functional", 16),
    (checks.check_hessian_fd, _hessian_loop, "residual_hessian", 24),
])
def test_fd_check_names_first_failing_state(monkeypatch, check, loop, patched, M):
    # F (for the gradient oracle) or the residual (for the Hessian oracle)
    # is wrong on the rows of states with tau > 0.01 only; a kernel sees
    # tau as a float, or as one value per row of shape (..., 1)
    original = getattr(_kernels, patched)

    def wrong_above(x, x_curr, coeffs, *args):
        value = original(x, x_curr, coeffs, *args)
        above = np.asarray(coeffs.tau) > 0.01
        if patched == "step_functional":  # d/dx_i of the added term is 1e-3
            return value + np.where(above[..., 0] if above.ndim else above,
                                    1e-3 * np.sum(x, axis=-1), 0.0)
        g = value[0]  # the row of node j sees node j + 2
        g[..., :-2] += np.where(above, 1e-2 * x[..., 3:-1], 0.0)
        return value

    seed = 3
    states, first = _first_state_above(seed, M, 0.01)
    assert first >= 1
    passing = [loop(*state)[0] for state in states[:first]]
    monkeypatch.setattr(_kernels, patched, wrong_above)
    err, ok = loop(*states[first])
    assert not ok
    spec, _, coeffs = states[first][:3]
    result = check(np.random.default_rng(seed))
    assert result == CheckResult(
        result.name, False, f"relative error {err:.3e} at m={spec.m!r}, tau={coeffs.tau!r}")
    assert max(passing) <= 1e-6


def test_fd_check_leaves_the_generator_where_the_failing_state_ends(monkeypatch):
    # a 1.001 factor on the opening step's flux f0/y in the assembly, not
    # in F: every odd-numbered state fails the gradient check.  The check
    # names state 1 and leaves rng where drawing states 0 and 1 one at a
    # time leaves it, so the sweeps after it draw what they drew before
    original = _kernels.residual_hessian

    def perturbed(x_new, x_curr, coeffs, work):
        if coeffs.damped_start:
            coeffs = dataclasses.replace(coeffs, f0_cells=1.001 * coeffs.f0_cells)
        return original(x_new, x_curr, coeffs, work)

    seed = 5
    reference = np.random.default_rng(seed)
    drawn = []
    for i in range(2):
        spec, x_curr, coeffs = random_setup(reference, 16, damped_start=i % 2 == 1)
        drawn.append((spec, x_curr, coeffs, checks.random_admissible(reference, spec.grid)))
    monkeypatch.setattr(_kernels, "residual_hessian", perturbed)
    assert _gradient_loop(*drawn[0])[1]
    err, ok = _gradient_loop(*drawn[1])
    assert not ok
    rng = np.random.default_rng(seed)
    result = checks.check_gradient_fd(rng)
    spec, _, coeffs = drawn[1][:3]
    assert result == CheckResult(
        result.name, False, f"relative error {err:.3e} at m={spec.m!r}, tau={coeffs.tau!r}")
    assert rng.bit_generator.state == reference.bit_generator.state
    assert rng.random() == reference.random()


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


@pytest.mark.parametrize("check, operator, factor, detail", [
    (checks.check_summation_by_parts, "d_centered_to_nodes", 1.01,
     "mismatch 2.740e+02 at M=110"),
    # a d_wide doubled, as if its interior divided by h, not 2h (the sweep
    # reads the interior only)
    (checks.check_wide_slope_norm, "d_wide", 2.0,
     "||wide||=113.2543549459358 > ||forward||=111.39061908040321 at M=70"),
], ids=["summation_by_parts", "wide_slope_norm"])
def test_identity_sweep_audits_the_library_operator(monkeypatch, check, operator, factor,
                                                    detail):
    """Each identity sweep calls the library's own operator on every draw,
    with its default trials: a slightly wrong operator makes it fail, so a
    sweep that inlined the operator would not pass here."""
    assert check(np.random.default_rng(0)).ok
    original = getattr(checks, operator)
    monkeypatch.setattr(checks, operator, lambda v, grid: factor * original(v, grid))
    result = check(np.random.default_rng(0))
    assert not result.ok and result.detail == detail
