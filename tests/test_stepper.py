import csv
import math

import numpy as np
import pytest

from pmetraj import (Grid, NonconvergenceError, RunConfig, SolverParams, advance, bootstrap,
                     build_coefficients, compute_s_h, initial_data_from_key,
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
    """Two advances in sequence equal one advance restarted from a state whose
    trajectory went through the 17-significant-digit snapshot format."""
    g, spec, params = _quad_setup(M=100)
    state0 = bootstrap(spec)
    state1, _ = advance(state0, spec, params)
    state2, _ = advance(state1, spec, params)

    run(RunConfig(spec=spec, params=params, t_final=params.tau,
                  snapshot_every=1, output_dir=tmp_path))
    with open(tmp_path / "snap_1.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    x_read = np.array([float(r[2]) for r in rows])
    np.testing.assert_array_equal(x_read, state1.x_curr)  # exact round-trip

    restarted = TrajectoryState(n=1, t=params.tau, x_curr=x_read,
                                x_prev=state0.x_curr.copy())
    replay, _ = advance(restarted, spec, params)
    np.testing.assert_array_equal(replay.x_curr, state2.x_curr)


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
