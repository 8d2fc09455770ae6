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
    assert all(r.converged and r.stop in ("lambda", "residual", "floor")
               for r in result.newton_reports)
    assert all(ok for *_, ok in result.energy_trace)


@pytest.mark.parametrize("damped_start", [True, False])
def test_step_functional_differences_match_eval_F(damped_start):
    spec = _spec(M_SMALL, 2.0, "poly:1e-3,0,1")
    params = SolverParams(tau=10 * spec.grid.h)
    state = bootstrap(spec)
    if not damped_start:
        state = advance(state, spec, params)[0]
    coeffs = build_coefficients(state.x_curr, state.x_prev, spec, params)
    x_new, _ = newton_step(state, coeffs, spec, params, damped_start=damped_start)
    X = spec.grid.nodes()
    args = (state.x_curr, coeffs.slope_curr, coeffs.mass, spec.f0_cells,
            spec.grid.h, params.tau, params.a0)
    # the base, the solution, and a point between them
    points = [state.x_curr, x_new, 0.5 * (state.x_curr + x_new)]
    for x, x_other in ((points[0], points[1]), (points[2], points[1]),
                       (points[0], points[2])):
        lean = (_kernels.step_functional(x, *args, damped_start)
                - _kernels.step_functional(x_other, *args, damped_start))
        full = (eval_F(x - X, state.x_curr, coeffs, spec, params, damped_start)
                - eval_F(x_other - X, state.x_curr, coeffs, spec, params, damped_start))
        assert full > 0.0  # x_new is the minimiser
        assert abs(lean - full) <= 1e-12 * abs(full)


@pytest.mark.parametrize("step", [1, 2])
def test_far_phase_decreases_F_near_vacuum(monkeypatch, step):
    # residual and Hessian are assembled in one call per iteration, at the
    # current iterate
    spec = _spec(M_SMALL, 2.0, "poly:1e-4,0,1")
    params = SolverParams(tau=100 * spec.grid.h)
    state = bootstrap(spec)
    for _ in range(step - 1):
        state = advance(state, spec, params)[0]
    coeffs = build_coefficients(state.x_curr, state.x_prev, spec, params)
    iterates = []
    assemble = _kernels.residual_hessian

    def recording(x, *rest):
        iterates.append(x.copy())
        return assemble(x, *rest)

    monkeypatch.setattr(_kernels, "residual_hessian", recording)
    damped_start = step == 1
    x_new, report = newton_step(state, coeffs, spec, params, damped_start=damped_start)
    iterates.append(x_new)
    X = spec.grid.nodes()

    def F(x):
        return eval_F(x - X, state.x_curr, coeffs, spec, params, damped_start)

    far = [k for k, lam in enumerate(report.lambda_history) if lam >= LAMBDA_STAR]
    assert len(far) >= 2
    for k in far:
        assert F(iterates[k + 1]) < F(iterates[k])
