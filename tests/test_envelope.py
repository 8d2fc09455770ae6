"""The accepted-input envelope with default settings, and the functional that
globalizes Newton there.

Near-vacuum data (min f0 down to 1e-4, m in [1.05, 8], tau up to 100h) and
steep data at a wall must run to the end with default SolverParams, in few
Newton iterations per step; the far-phase line search must decrease the
step functional F on every iteration it runs.
"""
import numpy as np
import pytest

from pmetraj import (LAMBDA_STAR, Grid, RunConfig, SolverParams, advance,
                     bootstrap, build_coefficients, eval_F,
                     initial_data_from_key, make_problem, newton_step, run)
from pmetraj import _kernels

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
    state = bootstrap(spec)
    if not damped_start:
        state = advance(state, spec, params)[0]
    coeffs = build_coefficients(state.x_curr, state.x_prev, spec, params,
                                damped_start=damped_start)
    x_new, _ = newton_step(state, coeffs, spec, params)
    X = spec.grid.nodes()
    base, mid, best = (eval_F(x - X, state.x_curr, coeffs, spec, params)
                       for x in (state.x_curr, 0.5 * (state.x_curr + x_new), x_new))
    assert best < mid < base


@pytest.mark.parametrize("step", [1, 2])
def test_far_phase_decreases_F_near_vacuum(monkeypatch, step):
    # residual and Hessian are assembled in one call per iteration, at the
    # current iterate
    spec = _spec(M_SMALL, 2.0, "poly:1e-4,0,1")
    params = SolverParams(tau=100 * spec.grid.h)
    state = bootstrap(spec)
    for _ in range(step - 1):
        state = advance(state, spec, params)[0]
    coeffs = build_coefficients(state.x_curr, state.x_prev, spec, params,
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
        return eval_F(x - X, state.x_curr, coeffs, spec, params)

    far = [k for k, lam in enumerate(report.lambda_history) if lam >= LAMBDA_STAR]
    assert len(far) >= 2
    for k in far:
        assert F(iterates[k + 1]) < F(iterates[k])
