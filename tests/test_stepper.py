import csv
import dataclasses
import math

import numpy as np
import pytest

from pmetraj import (LAMBDA_STAR, Grid, NonconvergenceError, RunConfig, SolverParams, advance, bootstrap,
                     build_coefficients, compute_s_h, discrete_mass,
                     initial_data_from_key,
                     make_problem, newton_step, quadratic_bump,
                     recover_density, run)
from pmetraj.problem import TrajectoryState


def _quad_setup(M=200, m=2.0, **kw):
    g = Grid(0.0, 1.0, M)
    spec = make_problem(m, g, quadratic_bump)
    kw.setdefault("tau", g.h)
    return g, spec, SolverParams(**kw)


def test_bootstrap_state():
    g, spec, params = _quad_setup(M=16)
    state = bootstrap(spec)
    assert state.n == 0 and state.t == 0.0
    np.testing.assert_array_equal(state.x_curr, g.nodes())
    np.testing.assert_array_equal(state.x_prev, g.nodes())
    np.testing.assert_allclose(compute_s_h(state.x_curr, state.x_prev, params, g),
                               np.maximum(1.0, params.tau ** 2))
    np.testing.assert_allclose(recover_density(state.x_curr, spec), spec.f0_nodes,
                               rtol=1e-13)


def test_advance_constant_density_stationary():
    g = Grid(0.0, 1.0, 64)
    spec = make_problem(2.0, g, initial_data_from_key("constant:1"))
    params = SolverParams(tau=0.01)
    state = bootstrap(spec)
    for _ in range(3):
        state, diag = advance(state, spec, params)
        np.testing.assert_array_equal(state.x_curr, g.nodes())
    assert state.n == 3
    assert state.t == pytest.approx(0.03)


def test_advance_enforces_dissipation_bound():
    g, spec, params = _quad_setup(M=200)
    state = bootstrap(spec)
    for _ in range(10):
        state, diag = advance(state, spec, params)
        assert diag.dissipation_lhs <= diag.dissipation_rhs + 1e-10
        assert diag.dissipation_rhs <= 0.0
        assert diag.min_slope > 0.0
        assert diag.report.converged


def test_run_zero_final_time_initial_snapshot_only(tmp_path):
    g, spec, params = _quad_setup(M=8)
    result = run(RunConfig(spec=spec, params=params, t_final=0.0,
                           snapshot_every=1, output_dir=tmp_path))
    assert [p.name for p in tmp_path.glob("snap_*.csv")] == ["snap_0.csv"]
    assert len(result.energy_trace) == 1
    assert (tmp_path / "energy.csv").exists()
    assert (tmp_path / "mass.csv").exists()


def test_run_expected_step_count_and_energy_monotone():
    g, spec, params = _quad_setup(M=1600, m=5.0 / 3.0)
    result = run(RunConfig(spec=spec, params=params, t_final=0.05))
    assert len(result.newton_reports) == 80
    assert all(r.converged for r in result.newton_reports)
    energies = [row[2] for row in result.energy_trace]
    assert all(b <= a for a, b in zip(energies[:-1], energies[1:]))
    assert energies[-1] <= energies[0]
    assert result.final_state.t == pytest.approx(0.05)


def test_run_error_names_step_and_time():
    # near-vacuum data needs far more than two Newton iterations per step
    g = Grid(0.0, 1.0, 40)
    spec = make_problem(2.0, g, initial_data_from_key("poly:1e-4,0,1"))
    params = SolverParams(tau=0.005, newton_max_iter=2)
    with pytest.raises(NonconvergenceError) as err:
        run(RunConfig(spec=spec, params=params, t_final=0.05))
    assert str(err.value).startswith("step 1 (t = 0.005): ")
    assert isinstance(err.value.__cause__, NonconvergenceError)
    report = err.value.report
    assert report is err.value.__cause__.report
    assert report is not None and not report.converged
    assert report.iterations == 2


def test_run_truncated_final_step():
    g, spec, params = _quad_setup(M=50)   # tau = 0.02
    result = run(RunConfig(spec=spec, params=params, t_final=0.05))
    assert result.final_state.t == pytest.approx(0.05, abs=1e-14)
    assert len(result.newton_reports) == 3  # 0.02 + 0.02 + 0.01


def test_snapshot_cadence(tmp_path):
    g, spec, params = _quad_setup(M=40)
    run(RunConfig(spec=spec, params=params, t_final=10 * g.h,
                  snapshot_every=4, output_dir=tmp_path))
    names = sorted(p.name for p in tmp_path.glob("snap_*.csv"))
    assert names == ["snap_0.csv", "snap_10.csv", "snap_4.csv", "snap_8.csv"]
    assert not list(tmp_path.glob("*.tmp"))


def test_snapshot_and_trace_schemas(tmp_path):
    g, spec, params = _quad_setup(M=10)
    run(RunConfig(spec=spec, params=params, t_final=2 * g.h,
                  snapshot_every=1, output_dir=tmp_path))
    with open(tmp_path / "snap_0.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "X", "x", "f"]
    assert len(rows) == g.M + 2
    with open(tmp_path / "energy.csv") as fh:
        header = fh.readline().strip()
    assert header == "n,t,E_h,dissipation_lhs,dissipation_rhs"
    with open(tmp_path / "mass.csv") as fh:
        assert fh.readline().strip() == "n,t,mass"


def test_csv_roundtrip_restart_is_bitwise(tmp_path):
    """A continuous run equals one restarted from states whose trajectories
    went through the 17-significant-digit snapshot format: at n = 1 from
    x^1 and x^0, and at n = 3, after a near-phase step, from x^3, x^2 and
    x^1, with the quadratic Newton start.  Neither restart carries the
    energy or the cell slopes, so the carried ones must be the same bits."""
    g, spec, params = _quad_setup(M=400)
    states = [bootstrap(spec)]
    for _ in range(4):
        states.append(advance(states[-1], spec, params)[0])

    run(RunConfig(spec=spec, params=params, t_final=3 * params.tau,
                  snapshot_every=1, output_dir=tmp_path))
    x_read = [states[0].x_curr.copy()]
    for n in (1, 2, 3):
        with open(tmp_path / f"snap_{n}.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        x_read.append(np.array([float(r[2]) for r in rows]))
        np.testing.assert_array_equal(x_read[n], states[n].x_curr)  # exact round-trip

    restarted = TrajectoryState(n=1, t=params.tau, x_curr=x_read[1],
                                x_prev=x_read[0])
    replay, _ = advance(restarted, spec, params)
    np.testing.assert_array_equal(replay.x_curr, states[2].x_curr)

    assert states[3].x_prev2 is not None
    restarted = TrajectoryState(n=3, t=3 * params.tau, x_curr=x_read[3],
                                x_prev=x_read[2], x_prev2=x_read[1])
    replay, diag = advance(restarted, spec, params)
    assert diag.report.start == "quadratic"
    np.testing.assert_array_equal(replay.x_curr, states[4].x_curr)
    assert replay.e_curr == states[4].e_curr


def test_determinism_identical_configs():
    g, spec, params = _quad_setup(M=80)
    r1 = run(RunConfig(spec=spec, params=params, t_final=5 * g.h))
    r2 = run(RunConfig(spec=spec, params=params, t_final=5 * g.h))
    np.testing.assert_array_equal(r1.final_state.x_curr, r2.final_state.x_curr)
    assert r1.energy_trace == r2.energy_trace
    assert r1.mass_trace == r2.mass_trace


@pytest.mark.parametrize("m", [1.2, 2.5, 3.0, 4.0])
def test_advance_across_exponents(m):
    g = Grid(0.0, 1.0, 100)
    spec = make_problem(m, g, quadratic_bump)
    params = SolverParams(tau=g.h)
    state = bootstrap(spec)
    for _ in range(5):
        state, diag = advance(state, spec, params)
        assert diag.report.converged
        assert diag.min_slope > 0.0
        assert diag.dissipation_lhs <= diag.dissipation_rhs + 1e-10


def test_run_config_validation():
    g, spec, params = _quad_setup(M=8)
    for t_final in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            RunConfig(spec=spec, params=params, t_final=t_final)
    with pytest.raises(ValueError):
        RunConfig(spec=spec, params=params, t_final=1.0, snapshot_every=-2)


def test_extrapolated_start_halves_iterations_with_same_trajectory():
    """m = 2 bump at M = 400, tau = h, t = 0.05: the extrapolated Newton start
    keeps the mean iteration count at or below 4 (5.25 when every step starts
    from x^n) and lands on the trajectory stepped from x^n to 1e-12."""
    g, spec, params = _quad_setup(M=400)
    result = run(RunConfig(spec=spec, params=params, t_final=0.05))
    reports = result.newton_reports
    assert len(reports) == 20
    assert np.mean([r.iterations for r in reports]) <= 4.0

    state = bootstrap(spec)
    for _ in range(20):
        coeffs = build_coefficients(state.x_curr, state.x_prev, spec, params)
        x_new, _ = newton_step(state, coeffs, spec, params, x_init=state.x_curr,
                               damped_start=(state.n == 0))
        state = TrajectoryState(n=state.n + 1, t=state.t + params.tau,
                                x_curr=x_new, x_prev=state.x_curr)
    assert np.max(np.abs(result.final_state.x_curr - state.x_curr)) <= 1e-12


def test_quadratic_start_takes_under_1_6_iterations_per_step_at_m9600(studies):
    """The m = 2 reference of the refinement study (M = 9600, tau = h,
    a0 = 1, t = 0.05), as the session's acceptance study ran it: the
    quadratic start after near-phase steps keeps the mean at or below 1.6
    iterations per step (2.006 from the linear start).  The first 208 steps
    take 2 or 3 iterations either way, so a shorter run shows little."""
    reference = studies[2.0].runs["reference"]
    assert reference.final_state.x_curr.shape == (9601,)
    reports = reference.newton_reports
    assert len(reports) == 480
    assert all(r.converged for r in reports)
    assert sum(r.start == "quadratic" for r in reports) >= 470
    assert np.mean([r.iterations for r in reports]) <= 1.6


def test_far_phase_step_hands_on_a_linear_start():
    # near vacuum with tau = 10 h every step begins in the far phase, where
    # a quadratic start would overshoot
    g = Grid(0.0, 1.0, 400)
    spec = make_problem(8.0, g, initial_data_from_key("poly:1e-3,0,1"))
    params = SolverParams(tau=10 * g.h)
    state = bootstrap(spec)
    far = prev_far = 0
    for _ in range(10):
        state, diag = advance(state, spec, params)
        if prev_far:
            assert diag.report.start == "linear"
        prev_far = diag.report.lambda_history[0] >= LAMBDA_STAR
        far += prev_far
    assert far >= 5


def test_truncated_final_step_after_quadratic_starts():
    g, spec, params = _quad_setup(M=400)
    t_final = 10.5 * params.tau
    result = run(RunConfig(spec=spec, params=params, t_final=t_final))
    reports = result.newton_reports
    assert len(reports) == 11
    # the truncated step, too, starts from the full-step extrapolation
    assert [r.start for r in reports[2:]] == ["quadratic"] * 9
    assert reports[-1].converged
    assert all(ok for *_, ok in result.energy_trace)
    assert result.final_state.t == pytest.approx(t_final, abs=1e-14)


def test_carried_slopes_give_the_bits_of_fresh_ones():
    """The cell and wide slopes a step carries are the bits the next step
    would compute from the trajectories: build_coefficients fed them equals
    the call that forms them, and advance from a state that carries nothing
    (a restart) follows the carried run bitwise, step after step."""
    g, spec, params = _quad_setup(M=400, m=5.0 / 3.0)
    carried = bootstrap(spec)
    for _ in range(3):
        carried, _ = advance(carried, spec, params)
    assert carried.wide_curr is not None and carried.wide_prev is not None
    fed = build_coefficients(carried.x_curr, carried.x_prev, spec, params,
                             carried.slope_curr, carried.wide_curr, carried.wide_prev)
    fresh = build_coefficients(carried.x_curr, carried.x_prev, spec, params)
    np.testing.assert_array_equal(fed.mass, fresh.mass)
    np.testing.assert_array_equal(fed.slope_curr, fresh.slope_curr)

    bare = dataclasses.replace(carried, e_curr=None, slope_curr=None,
                               wide_curr=None, wide_prev=None)
    for _ in range(4):
        wide_curr = carried.wide_curr.copy()
        carried, diag_c = advance(carried, spec, params)
        bare, diag_b = advance(bare, spec, params)
        np.testing.assert_array_equal(bare.x_curr, carried.x_curr)
        np.testing.assert_array_equal(bare.wide_curr, carried.wide_curr)
        assert (bare.e_curr, diag_b.dissipation_rhs, diag_b.mass) == \
            (carried.e_curr, diag_c.dissipation_rhs, diag_c.mass)
        # the carried wide slopes are handed on, never written to
        np.testing.assert_array_equal(carried.wide_prev, wide_curr)


def test_step_mass_is_the_trapezoid_of_the_density():
    g, spec, params = _quad_setup(M=200)
    state, diag = advance(bootstrap(spec), spec, params)
    f = recover_density(state.x_curr, spec)
    assert diag.mass == pytest.approx(discrete_mass(state.x_curr, f), rel=1e-14)
    assert diag.min_slope == float(np.min(np.diff(state.x_curr) / g.h))
