"""The accepted-input envelope with default settings, and the functional that
globalizes Newton there.

Near-vacuum data (min f0 down to 1e-4, m in [1.05, 8], tau up to 100h) and
steep data at a wall must run to the end with default SolverParams, in few
Newton iterations per step; the far-phase line search must decrease the
step functional F on every iteration it runs.
"""
import numpy as np
import pytest

from pmetraj import Grid, RunConfig, SolverParams, initial_data_from_key, make_problem, run
from pmetraj.functional import build_coefficients, eval_F, residual
from pmetraj.newton import LAMBDA_STAR, newton_step
from pmetraj import _kernels, newton

from conftest import state_after

MAX_ITERS_PER_STEP = 20
M_SMALL = 400

NEAR_VACUUM = [(m, f0min, k) for f0min in ("1e-2", "1e-3", "1e-4")
               for m in (1.05, 2.0, 8.0) for k in (1, 10, 100)]
# steep f0 at a wall and a large m: the one-sided wide slope at node 0 turns
# nonpositive by step 6, so density recovery needs its wall fallback
WALL_CASE = (185, 5.848100354628676,
             "poly:0.051364359012875616,1.5399162079072706,2.2923978601752575",
             0.044858755958061096)
CASES = ([(M_SMALL, m, f"poly:{f0min},0,1", k / M_SMALL) for m, f0min, k in NEAR_VACUUM]
         + [WALL_CASE])
IDS = [f"m={m:g}-f0min={f0min}-tau={k}h" for m, f0min, k in NEAR_VACUUM] + ["wall"]


def _spec(M, m, key):
    return make_problem(m, Grid(0.0, 1.0, M), initial_data_from_key(key))


@pytest.mark.parametrize("M, m, key, tau", CASES, ids=IDS)
def test_accepted_input_completes(M, m, key, tau):
    spec = _spec(M, m, key)
    result = run(RunConfig(spec=spec, params=SolverParams(tau=tau), t_final=10 * tau))
    iterations = [r.iterations for r in result.newton_reports]
    assert len(iterations) == 10
    assert max(iterations) <= MAX_ITERS_PER_STEP, iterations
    assert all(r.converged and r.stop == "lambda" for r in result.newton_reports)
    assert all(ok for *_, ok in result.energy_trace)


@pytest.mark.parametrize("m, k", [(8.0, 1), (1.05, 100)], ids=["m=8-tau=1h", "m=1.05-tau=100h"])
def test_envelope_corner_stops_on_certified_decrement(m, k):
    # M = 1e5 at min f0 = 1e-4: the decrement's roundoff floor is highest
    # here (5e-6 at m = 8), and the certified stop fires below about
    # sqrt(TOL_LAMBDA) = 3.2e-5 with no rule for a stalled decrement, so a
    # floor that rose past the threshold would run out the iteration budget
    spec = _spec(100_000, m, "poly:1e-4,0,1")
    tau = k * spec.grid.h
    result = run(RunConfig(spec=spec, params=SolverParams(tau=tau), t_final=4 * tau))
    assert len(result.newton_reports) == 4
    for r in result.newton_reports:
        assert r.converged and r.stop == "lambda", r.stop
        assert r.iterations <= MAX_ITERS_PER_STEP, r.iterations


@pytest.mark.parametrize("damped_start", [True, False])
def test_newton_solution_minimises_F(damped_start):
    # F falls from the base through the midpoint to Newton's answer
    spec = _spec(M_SMALL, 2.0, "poly:1e-3,0,1")
    params = SolverParams(tau=10 * spec.grid.h)
    state = state_after(spec, params, 0 if damped_start else 1)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params,
                                damped_start=damped_start)
    x_new, _ = newton_step(state, coeffs, spec, params)
    X = spec.grid.nodes()
    base, mid, best = (eval_F(x - X, state.x_curr, coeffs, spec)
                       for x in (state.x_curr, 0.5 * (state.x_curr + x_new), x_new))
    assert best < mid < base


@pytest.mark.parametrize("step", [1, 2])
def test_far_phase_decreases_F_near_vacuum(monkeypatch, step):
    # residual and Hessian are assembled in one call per iteration, at the
    # current iterate
    spec = _spec(M_SMALL, 2.0, "poly:1e-4,0,1")
    params = SolverParams(tau=100 * spec.grid.h)
    state = state_after(spec, params, step - 1)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params,
                                damped_start=step == 1)
    iterates = []
    assemble = _kernels.residual_hessian

    def recording(x, *rest):
        iterates.append(x.copy())
        return assemble(x, *rest)

    monkeypatch.setattr(_kernels, "residual_hessian", recording)
    x_new, report = newton_step(state, coeffs, spec, params)
    iterates.append(x_new)
    X = spec.grid.nodes()

    def F(x):
        return eval_F(x - X, state.x_curr, coeffs, spec)

    far = [k for k, lam in enumerate(report.lambda_history) if lam >= LAMBDA_STAR]
    assert len(far) >= 2
    for k in far:
        assert F(iterates[k + 1]) < F(iterates[k])


def _record_far_phase(monkeypatch, spec, params, steps):
    """Run steps steps and return the events of their Newton solves, in
    order: ("step", x_curr, coeffs) per solve, ("lambda", lam) per
    decrement, ("trial", x, step, omega, cand) per guarded update and ("F",)
    per evaluation of F."""
    events = []
    solve, decrement = newton.newton_step, newton.newton_decrement_lambda
    guard, functional = newton._guarded_update, _kernels.step_functional

    def solving(state, coeffs, *rest):
        events.append(("step", state.x_curr.copy(), coeffs))
        return solve(state, coeffs, *rest)

    def deciding(*args):
        events.append(("lambda", decrement(*args)))
        return events[-1][1]

    def trying(x, delta, *rest):
        omega, cand = guard(x, delta, *rest)
        events.append(("trial", x.copy(), delta.copy(), omega, cand.copy()))
        return omega, cand

    def evaluating(*args):
        events.append(("F",))
        return functional(*args)

    monkeypatch.setattr(newton, "newton_step", solving)
    monkeypatch.setattr(newton, "newton_decrement_lambda", deciding)
    monkeypatch.setattr(newton, "_guarded_update", trying)
    monkeypatch.setattr(_kernels, "step_functional", evaluating)
    state_after(spec, params, steps)
    return events


@pytest.mark.parametrize("m, k", [(1.05, 10), (1.05, 100), (8.0, 10), (8.0, 100)])
def test_certified_far_steps_pass_armijo_on_F(monkeypatch, m, k):
    # a far-phase trial point is accepted without evaluating F (no F call
    # before the next trial) exactly when h g(cand) . step <= -ARMIJO_C a
    # lambda^2, and every point so accepted decreases F by the Armijo
    # fraction of the predicted decrease, on F itself
    spec = _spec(M_SMALL, m, "poly:1e-4,0,1")
    params = SolverParams(tau=k * spec.grid.h)
    events = _record_far_phase(monkeypatch, spec, params, 10)
    a, h, X = newton.self_concordance_a(spec), spec.grid.h, spec.grid.nodes()
    certified = 0
    for i, event in enumerate(events):
        if event[0] == "step":
            _, x_curr, coeffs = event
        elif event[0] == "lambda":
            lam = event[1]
        elif event[0] == "trial" and lam >= LAMBDA_STAR:
            _, x, step, omega, cand = event
            armijo = newton.ARMIJO_C * a * lam * lam
            g = residual(cand, x_curr, coeffs, spec)[1:-1]
            evaluated = i + 1 < len(events) and events[i + 1][0] == "F"
            assert (h * float(np.dot(g, step)) <= -armijo) is not evaluated
            if not evaluated:
                f_x, f_cand = (eval_F(y - X, x_curr, coeffs, spec)
                               for y in (x, cand))
                assert f_cand <= f_x - omega * armijo
                certified += 1
    assert certified >= 10


def test_far_phase_evaluates_F_rarely(monkeypatch):
    # the far phase decides its steps from the gradient at the trial point:
    # 2 evaluations of F in 39 far-phase iterations over these 10 steps,
    # where the Armijo test on F made 49 (1.26 per iteration)
    spec = _spec(M_SMALL, 8.0, "poly:1e-4,0,1")
    params = SolverParams(tau=100 * spec.grid.h)
    calls, functional = [], _kernels.step_functional

    def counting(*args):
        calls.append(1)
        return functional(*args)

    monkeypatch.setattr(_kernels, "step_functional", counting)
    result = run(RunConfig(spec=spec, params=params, t_final=10 * params.tau))
    far = sum(lam >= LAMBDA_STAR for r in result.newton_reports for lam in r.lambda_history)
    assert far >= 20
    assert len(calls) <= 0.25 * far
