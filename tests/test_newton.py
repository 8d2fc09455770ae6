import dataclasses
import itertools
import math

import numpy as np
import pytest

from pmetraj import (Grid, LAMBDA_STAR, NewtonReport, NonconvergenceError,
                     SingularSystemError, SolverParams, advance, bootstrap,
                     build_coefficients, eval_F, hessian_coefficients,
                     initial_data_from_key, is_admissible, make_problem,
                     newton_decrement_lambda, newton_step, quadratic_bump,
                     residual, restart, self_concordance_a, solve_tridiagonal)
from pmetraj import _kernels, newton
from pmetraj.newton import MIN_OMEGA, TOL_LAMBDA, _guarded_update

from conftest import state_after


# ---------------------------------------------------------------------------
# Tridiagonal solver
# ---------------------------------------------------------------------------

def test_tridiagonal_identity():
    rhs = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(
        solve_tridiagonal(np.ones(3), np.zeros(2), rhs), rhs)


def test_tridiagonal_hand_solved():
    x = solve_tridiagonal(np.array([2.0, 2.0, 2.0]), np.array([-1.0, -1.0]),
                          np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(x, [0.75, 0.5, 0.25], rtol=1e-14)


def test_tridiagonal_against_dense_oracle(rng):
    for _ in range(25):
        n = int(rng.integers(1, 80))
        # SPD by diagonal dominance
        off = rng.uniform(-1.0, 1.0, max(n - 1, 0))
        diag = np.full(n, 2.5) + rng.uniform(0.0, 1.0, n)
        rhs = rng.standard_normal(n)
        got = solve_tridiagonal(diag, off, rhs)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        want = np.linalg.solve(dense, rhs)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13)
        assert np.max(np.abs(dense @ got - rhs)) <= 1e-12 * max(np.max(np.abs(rhs)), 1.0)


def test_tridiagonal_singular_raises():
    with pytest.raises(SingularSystemError):
        solve_tridiagonal(np.array([1.0, 0.25]), np.array([-0.5]), np.array([1.0, 1.0]))


def test_tridiagonal_shape_validation():
    # a workspace of another size once failed in the copy-in, reported as a
    # SingularSystemError of a system that is not singular
    for diag, off, rhs, work in ((np.ones(3), np.zeros(3), np.ones(3), None),
                                 (np.ones(3), np.zeros(2), np.ones(4), None),
                                 (np.ones(5), np.zeros(4), np.ones(5), _kernels.Workspace((12,)))):
        with pytest.raises(ValueError):
            solve_tridiagonal(diag, off, rhs, work)


# ---------------------------------------------------------------------------
# Decrement, damping, self-concordance parameter
# ---------------------------------------------------------------------------

def test_decrement_zero_gradient():
    g = Grid(0.0, 1.0, 4)
    # +0.0, not -0.0: -(0 . 0) is -0.0, and H delta = -0 gives delta = -0.0
    for delta in (np.zeros(3), -np.zeros(3)):
        lam = newton_decrement_lambda(np.zeros(3), delta, 1.0, g)
        assert lam == 0.0 and math.copysign(1.0, lam) == 1.0


def test_decrement_scalar_example():
    # one interior node: H = 2, g = 3 -> delta = -1.5, lambda = sqrt(4.5) for h = a = 1
    g = Grid(0.0, 1.0, 1)
    delta = solve_tridiagonal(np.array([2.0]), np.zeros(0), np.array([-3.0]))
    assert delta[0] == -1.5
    lam = newton_decrement_lambda(np.array([3.0]), delta, 1.0, g)
    assert lam == pytest.approx(math.sqrt(4.5), rel=1e-15)


def test_decrement_identity_with_quadratic_form(rng):
    g = Grid(0.0, 1.0, 10)
    for _ in range(20):
        n = 9
        off = rng.uniform(-0.8, 0.8, n - 1)
        diag = np.full(n, 2.0) + rng.uniform(0.0, 1.0, n)
        grad = rng.standard_normal(n)
        delta = solve_tridiagonal(diag, off, -grad)
        a = float(rng.uniform(0.1, 2.0))
        lam = newton_decrement_lambda(grad, delta, a, g)
        quad = float(np.sum(diag * delta ** 2) + 2.0 * np.sum(off * delta[:-1] * delta[1:]))
        assert lam ** 2 == pytest.approx(g.h / a * quad, rel=1e-10)


def test_self_concordance_parameter():
    g = Grid(0.0, 1.0, 200)
    spec = make_problem(2.0, g, quadratic_bump)
    assert spec.f0_min == 0.25
    assert self_concordance_a(spec) == pytest.approx(0.000625)


def test_guarded_update_halves_until_admissible():
    g = Grid(0.0, 1.0, 4)
    x = g.nodes()
    delta = np.array([0.0, -1.0, 0.0])  # full step would cross node 0
    omega, cand = _guarded_update(x, delta, 1.0, np.empty_like(x), np.empty(g.M, dtype=bool))
    assert omega < 1.0
    assert np.all(np.diff(cand) > 0)


# ---------------------------------------------------------------------------
# Full inner solve
# ---------------------------------------------------------------------------

def test_newton_constant_density_is_immediate():
    g = Grid(0.0, 1.0, 32)
    spec = make_problem(2.0, g, initial_data_from_key("constant:1"))
    params = SolverParams(tau=g.h)
    state = bootstrap(spec)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params)
    x_new, report = newton_step(state, coeffs, spec, params)
    # the residual is exactly 0, so the certified stop fires on the first
    # decrement and the full step leaves every node's bits unchanged
    assert report.converged and report.iterations == 1
    assert report.stop == "lambda" and report.lambda_history == [0.0]
    assert math.copysign(1.0, report.lambda_history[0]) == 1.0
    assert report.final_residual_norm == 0.0
    assert x_new.tobytes() == state.x_curr.tobytes()


def _newton_step_at(x, state, coeffs, spec):
    """One more Newton step from x, assembled with the public residual and
    Hessian: the step delta and the decrement lambda measured at x."""
    gvec = residual(x, state.x_curr, coeffs, spec)[1:-1]
    diag, off = hessian_coefficients(x, coeffs, spec)
    delta = solve_tridiagonal(diag, off, -gvec)
    lam = newton_decrement_lambda(gvec, delta, self_concordance_a(spec), spec.grid)
    return delta, lam


def test_newton_first_step_postconditions():
    # the stop is certified without assembling at the returned point, so
    # measure there: one more Newton step barely moves it
    g = Grid(0.0, 1.0, 200)
    spec = make_problem(2.0, g, quadratic_bump)
    params = SolverParams(tau=g.h)
    state = bootstrap(spec)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params)
    x_new, report = newton_step(state, coeffs, spec, params)
    assert report.converged and report.stop == "lambda"
    delta, lam = _newton_step_at(x_new, state, coeffs, spec)
    assert lam < TOL_LAMBDA
    assert np.max(np.abs(delta)) <= 1e-10 * g.h
    assert np.all(np.diff(x_new) > 0.0)
    assert x_new[0] == 0.0 and x_new[-1] == 1.0


def test_newton_quadratic_phase():
    g = Grid(0.0, 1.0, 200)
    spec = make_problem(5.0 / 3.0, g, quadratic_bump)
    params = SolverParams(tau=g.h)
    state = bootstrap(spec)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params)
    _, report = newton_step(state, coeffs, spec, params)
    hist = report.lambda_history
    assert len(hist) >= 2
    for lam_k, lam_next in zip(hist[:-1], hist[1:]):
        if lam_k < LAMBDA_STAR and lam_next >= TOL_LAMBDA:
            assert lam_next <= 2.0 * lam_k ** 2


def test_newton_functional_decreases_along_iterates():
    # replay the two-phase iteration by hand and watch the functional
    g = Grid(0.0, 1.0, 64)
    spec = make_problem(2.0, g, quadratic_bump)
    params = SolverParams(tau=g.h)
    state = bootstrap(spec)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params)
    X = g.nodes()

    def F(y):
        return eval_F(y - X, state.x_curr, coeffs, spec)

    x = state.x_curr.copy()
    values = [F(x)]
    a = self_concordance_a(spec)
    far = 0
    for _ in range(30):
        gvec = residual(x, state.x_curr, coeffs, spec)[1:-1]
        diag, off = hessian_coefficients(x, coeffs, spec)
        delta = solve_tridiagonal(diag, off, -gvec)
        lam = newton_decrement_lambda(gvec, delta, a, g)
        if lam < TOL_LAMBDA:
            break
        omega, cand = _guarded_update(x, delta, 1.0, np.empty_like(x),
                                      np.empty(g.M, dtype=bool))
        if lam >= LAMBDA_STAR:  # far phase: halve until Armijo holds
            far += 1
            while F(cand) > values[-1] - 1e-4 * omega * a * lam ** 2:
                omega, cand = _guarded_update(x, delta, 0.5 * omega, np.empty_like(x),
                                              np.empty(g.M, dtype=bool))
        x = cand
        values.append(F(x))
    assert far >= 1 and len(values) > far + 2
    assert all(b <= a_ + 1e-12 for a_, b in zip(values[:-1], values[1:]))
    # the replay lands on newton_step's answer
    x_newton, _ = newton_step(state, coeffs, spec, params)
    assert np.max(np.abs(x - x_newton)) <= 1e-12
    # the minimizer beats the zero displacement (x_new = X) as well
    assert values[-1] <= eval_F(np.zeros(g.M + 1), state.x_curr, coeffs, spec)


def test_newton_unique_solution_from_perturbed_start(rng):
    g = Grid(0.0, 1.0, 100)
    spec = make_problem(2.0, g, quadratic_bump)
    params = SolverParams(tau=g.h)
    state = bootstrap(spec)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params)
    x_a, _ = newton_step(state, coeffs, spec, params)
    start = state.x_curr.copy()
    start[1:-1] += 0.2 * g.h * rng.uniform(-1.0, 1.0, g.M - 1)
    assert np.all(np.diff(start) > 0)
    x_b, _ = newton_step(state, coeffs, spec, params, x_init=start)
    assert np.max(np.abs(x_a - x_b)) <= 1e-8


def _record_residuals(monkeypatch):
    """Patch the fused assembly to keep the residual of every call."""
    residuals, original = [], _kernels.residual_hessian

    def recorder(*args):
        out = original(*args)
        residuals.append(out[0].copy())
        return out

    monkeypatch.setattr(_kernels, "residual_hessian", recorder)
    return residuals


def test_newton_budget_exhaustion_carries_report(monkeypatch):
    g = Grid(0.0, 1.0, 100)
    spec = make_problem(2.0, g, quadratic_bump)
    params = SolverParams(tau=g.h, newton_max_iter=2)
    state = bootstrap(spec)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params)
    residuals = _record_residuals(monkeypatch)
    with pytest.raises(NonconvergenceError) as err:
        newton_step(state, coeffs, spec, params)
    assert err.value.report is not None
    assert err.value.report.iterations == 2
    assert not err.value.report.converged
    assert err.value.report.stop == "max_iter"
    # the residual norm is read at the last assembled iterate
    norm = float(np.max(np.abs(residuals[-1])))
    assert len(residuals) == 2 and err.value.report.final_residual_norm == norm
    assert f"residual {norm:.3e})" in str(err.value)


def test_newton_line_search_exhaustion_carries_report(monkeypatch):
    # a functional that only grows along the step: Armijo rejects every step
    # length from 1 down to MIN_OMEGA, and the error keeps the report.  F
    # is convex, so its gradient at every trial point is an ascent
    # direction along the step, and the assemblies at trial points say so
    # (twice the start's residual, reversed), else the convexity
    # certificate would accept the first trial without evaluating F
    g = Grid(0.0, 1.0, 64)
    spec = make_problem(2.0, g, quadratic_bump)
    params = SolverParams(tau=g.h)
    state = bootstrap(spec)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params)
    values = itertools.count()
    monkeypatch.setattr(_kernels, "step_functional", lambda *args: float(next(values)))
    assemble, residuals = _kernels.residual_hessian, []

    def ascending(*args):
        out = assemble(*args)
        if residuals:  # a trial point
            np.multiply(residuals[0], -2.0, out=out[0])
        residuals.append(out[0].copy())
        return out

    monkeypatch.setattr(_kernels, "residual_hessian", ascending)
    with pytest.raises(NonconvergenceError, match="line search") as err:
        newton_step(state, coeffs, spec, params)
    report = err.value.report
    assert report.stop == "line_search" and not report.converged
    assert report.lambda_history[0] >= LAMBDA_STAR and report.iterations == 0
    assert 2.0 ** -report.backtracks == MIN_OMEGA
    # every trial point is assembled, and the residual norm is read at the
    # last one, the shortest step tried
    assert len(residuals) == report.backtracks + 2
    norm = float(np.max(np.abs(residuals[-1])))
    assert report.final_residual_norm == norm == 2.0 * float(np.max(np.abs(residuals[0])))
    assert f"residual {norm:.3e})" in str(err.value)


@pytest.mark.parametrize("key, m, certified", [
    ("paper-quadratic", 2.0, "lambda"),
    ("poly:1e-3,0,1", 8.0, "step"),
])
def test_newton_stop_reasons(key, m, certified):
    # the opening step.  Both stop on the certified decrement bound; measured at the returned
    # point, one more Newton step is below 1e-10 h, and for the bump the
    # decrement is below TOL_LAMBDA too.  At m = 8 near vacuum the measured
    # decrement sits on its roundoff floor (2e-8 to 1.5e-7), so only the
    # step is required there.
    g = Grid(0.0, 1.0, 400)
    spec = make_problem(m, g, initial_data_from_key(key))
    params = SolverParams(tau=g.h)
    state = bootstrap(spec)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params,
                                damped_start=True)
    x_new, report = newton_step(state, coeffs, spec, params)
    assert report.converged and report.stop == "lambda"
    lam = report.lambda_history[-1]
    assert (lam / (1.0 - lam)) ** 2 < TOL_LAMBDA
    delta, lam_after = _newton_step_at(x_new, state, coeffs, spec)
    assert np.max(np.abs(delta)) <= 1e-10 * g.h
    if certified == "lambda":
        assert lam_after < TOL_LAMBDA


def test_newton_extrapolated_start_is_used_when_admissible():
    g = Grid(0.0, 1.0, 100)
    spec = make_problem(2.0, g, quadratic_bump)
    params = SolverParams(tau=g.h)
    state = advance(bootstrap(spec), spec, params)[0]
    assert np.all(np.diff(2.0 * state.x_curr - state.x_prev) > 0.0)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params)
    x_pred, report = newton_step(state, coeffs, spec, params)
    assert report.start == "linear" and report.converged
    x_base, base = newton_step(state, coeffs, spec, params, x_init=state.x_curr)
    assert base.start == "given"
    assert report.lambda_history[0] < base.lambda_history[0]  # a closer start
    assert report.iterations <= base.iterations
    assert np.max(np.abs(x_pred - x_base)) <= 1e-12


def test_newton_falls_back_to_current_when_extrapolation_crosses():
    g = Grid(0.0, 1.0, 50)
    spec = make_problem(2.0, g, quadratic_bump)
    params = SolverParams(tau=g.h)
    x_curr = g.nodes()
    x_prev = x_curr.copy()
    x_prev[20] -= 0.9 * g.h
    x_prev[21] += 0.9 * g.h
    state = restart(spec, 1, g.h, x_curr, x_prev)
    assert np.all(np.diff(x_prev) > 0.0)
    assert not np.all(np.diff(2.0 * x_curr - x_prev) > 0.0)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params)
    x_new, report = newton_step(state, coeffs, spec, params)
    assert report.start == "current" and report.converged
    x_base, _ = newton_step(state, coeffs, spec, params, x_init=state.x_curr)
    assert np.max(np.abs(x_new - x_base)) <= 1e-12


def test_an_advance_checks_admissibility_once_with_an_admissible_quadratic_start(monkeypatch):
    # the base trajectory is admissible by construction (restart, advance):
    # only the start is checked
    g = Grid(0.0, 1.0, 100)
    spec = make_problem(2.0, g, quadratic_bump)
    params = SolverParams(tau=g.h)
    state = state_after(spec, params, 6)
    calls = []

    def recording(x, grid):
        calls.append(x.shape)
        return is_admissible(x, grid)

    monkeypatch.setattr(newton, "is_admissible", recording)
    _, diag = advance(state, spec, params)
    assert diag.report.start == "quadratic" and len(calls) == 1


def test_converged_is_read_off_the_stop():
    g = Grid(0.0, 1.0, 100)
    spec = make_problem(2.0, g, quadratic_bump)
    state = bootstrap(spec)
    reports = []
    for budget in (100, 1):
        params = SolverParams(tau=g.h, newton_max_iter=budget)
        coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev,
                                    spec, params)
        try:
            reports.append(newton_step(state, coeffs, spec, params)[1])
        except NonconvergenceError as exc:
            reports.append(exc.report)
    reports.append(NewtonReport(stop="line_search"))
    assert [r.stop for r in reports] == ["lambda", "max_iter", "line_search"]
    for report in reports:
        assert report.converged == (report.stop == "lambda")
    assert "converged" not in {f.name for f in dataclasses.fields(NewtonReport)}
    with pytest.raises(AttributeError):
        reports[0].converged = False


def test_newton_quadratic_start_is_used_after_a_near_phase_step():
    g = Grid(0.0, 1.0, 100)
    spec = make_problem(2.0, g, quadratic_bump)
    params = SolverParams(tau=g.h)
    state = state_after(spec, params, 6)  # steps 1-4 begin in the far phase at this M
    assert state.x_prev2 is not None
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params)
    x_quad, quad = newton_step(state, coeffs, spec, params)
    assert quad.start == "quadratic" and quad.converged
    linear_state = dataclasses.replace(state, x_prev2=None)
    x_lin, lin = newton_step(linear_state, coeffs, spec, params)
    assert lin.start == "linear"
    assert quad.lambda_history[0] < lin.lambda_history[0]  # a closer start
    assert np.max(np.abs(x_quad - x_lin)) <= 1e-12


def test_newton_falls_back_to_linear_when_quadratic_crosses():
    # x^{n-1} = x^{n-2} = X + p: the linear start X - p is admissible, the
    # quadratic start X - 2p crosses nodes 20 and 21
    g = Grid(0.0, 1.0, 50)
    spec = make_problem(2.0, g, quadratic_bump)
    params = SolverParams(tau=g.h)
    x_curr = g.nodes()
    x_prev = x_curr.copy()
    x_prev[20] -= 0.4 * g.h
    x_prev[21] += 0.4 * g.h
    state = restart(spec, 2, 2 * g.h, x_curr, x_prev, x_prev.copy())
    assert not np.all(np.diff(3.0 * (x_curr - x_prev) + x_prev) > 0.0)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params)
    x_new, report = newton_step(state, coeffs, spec, params)
    assert report.start == "linear" and report.converged
    x_base, _ = newton_step(state, coeffs, spec, params, x_init=state.x_curr)
    assert np.max(np.abs(x_new - x_base)) <= 1e-12


def test_final_residual_norm_is_read_at_the_last_assembled_iterate(monkeypatch):
    g = Grid(0.0, 1.0, 200)
    spec = make_problem(5.0 / 3.0, g, quadratic_bump)
    params = SolverParams(tau=g.h)
    state = bootstrap(spec)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params)
    residuals = _record_residuals(monkeypatch)
    _, report = newton_step(state, coeffs, spec, params)
    assert report.converged and report.iterations >= 2
    assert len(residuals) == report.iterations
    assert report.final_residual_norm == float(np.max(np.abs(residuals[-1])))
    assert report.final_residual_norm != float(np.max(np.abs(residuals[0])))


@pytest.mark.parametrize("damped_start", [True, False])
def test_newton_assembles_once_per_iteration(monkeypatch, damped_start):
    # one fused residual-and-Hessian pass per iteration and nothing else:
    # the certified stop needs no assembly at the returned iterate
    g = Grid(0.0, 1.0, 400)
    spec = make_problem(2.0, g, quadratic_bump)
    params = SolverParams(tau=g.h)
    state = state_after(spec, params, 0 if damped_start else 1)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params,
                                damped_start=damped_start)
    calls = {"residual_hessian": 0, "residual_interior": 0, "hessian_tridiag": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(_kernels, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(_kernels, name, counted)
    _, report = newton_step(state, coeffs, spec, params)
    assert report.converged and report.stop == "lambda"
    assert report.iterations >= 2
    assert calls == {"residual_hessian": report.iterations,
                     "residual_interior": 0, "hessian_tridiag": 0}
