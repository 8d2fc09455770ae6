import csv
import dataclasses
import math

import numpy as np
import pytest

from pmetraj import (DegenerateMeshError, Grid, NonconvergenceError, RunConfig, SolverParams,
                     _kernels, advance, bootstrap, d_forward, d_wide, discrete_energy,
                     discrete_mass, functional, initial_data_from_key, make_problem,
                     quadratic_bump, recover_density, restart, run, stepper, steps)
from pmetraj.functional import build_coefficients, compute_s_h
from pmetraj.newton import LAMBDA_STAR, newton_step
from pmetraj.checks import random_admissible
from pmetraj.errors import ConfigurationError, EnergyViolationError

from conftest import state_after


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
    np.testing.assert_allclose(compute_s_h(state.wide_curr, state.wide_prev, params.tau),
                               np.maximum(1.0, params.tau ** 2))
    np.testing.assert_allclose(recover_density(state.x_curr, spec), spec.f0_nodes,
                               rtol=1e-13)


def test_advance_constant_density_stationary():
    g = Grid(0.0, 1.0, 64)
    spec = make_problem(2.0, g, initial_data_from_key("constant:1"))
    params = SolverParams(tau=0.01)
    for state, _ in steps(RunConfig(spec=spec, params=params, t_final=0.03), bootstrap(spec)):
        np.testing.assert_array_equal(state.x_curr, g.nodes())
    assert state.n == 3
    assert state.t == pytest.approx(0.03)


def test_advance_enforces_dissipation_bound():
    g, spec, params = _quad_setup(M=200)
    config = RunConfig(spec=spec, params=params, t_final=10 * params.tau)
    for _, diag in steps(config, bootstrap(spec)):
        assert diag.dissipation_lhs <= diag.dissipation_rhs + 1e-10
        assert diag.dissipation_rhs <= 0.0
        assert diag.min_slope > 0.0
        assert diag.report.converged


def test_advance_chooses_the_opening_flux_once(monkeypatch):
    # the coefficients carry the flux form: only step 0 builds them with
    # damped_start, and every Newton assembly of a step runs the flag of
    # that step's coefficients
    g, spec, params = _quad_setup(M=50)
    built, assembled = [], []
    build, assemble = functional.build_coefficients, _kernels.residual_hessian

    def building(*args, **kwargs):
        coeffs = build(*args, **kwargs)
        built.append(coeffs.damped_start)
        return coeffs

    def assembling(*args):
        assembled.append(args[2].damped_start)
        return assemble(*args)

    monkeypatch.setattr(functional, "build_coefficients", building)
    monkeypatch.setattr(_kernels, "residual_hessian", assembling)
    config = RunConfig(spec=spec, params=params, t_final=3 * params.tau)
    first = 0
    for n, (_, diag) in enumerate(steps(config, bootstrap(spec))):
        assert built[n] is (n == 0)
        assert assembled[first:] == [n == 0] * diag.report.iterations
        first = len(assembled)
    assert built == [True, False, False]
    assert all(type(flag) is bool for flag in assembled)


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


@pytest.mark.parametrize("drive", [run, lambda config: list(steps(config, bootstrap(config.spec)))],
                         ids=["run", "steps"])
def test_run_error_names_step_and_time(drive):
    # near-vacuum data needs far more than two Newton iterations per step
    g = Grid(0.0, 1.0, 40)
    spec = make_problem(2.0, g, initial_data_from_key("poly:1e-4,0,1"))
    params = SolverParams(tau=0.005, newton_max_iter=2)
    with pytest.raises(NonconvergenceError) as err:
        drive(RunConfig(spec=spec, params=params, t_final=0.05))
    assert str(err.value).startswith("step 1 (t = 0.005): ")
    assert isinstance(err.value.__cause__, NonconvergenceError)
    report = err.value.report
    assert report is err.value.__cause__.report
    assert report is not None and not report.converged
    assert report.iterations == 2


def test_dissipation_check_allows_rounding_of_a_large_energy():
    # E_h is about -1.6e6 here: ENERGY_SLACK = 1e-10 is under one ulp of it,
    # and a one-ulp rise of E_h once failed step 2
    g = Grid(0.0, 1.0, 20)
    spec = make_problem(3.0, g, initial_data_from_key("poly:1e-3,0,0,0,1e7"))
    result = run(RunConfig(spec=spec, params=SolverParams(tau=1.0 / 20), t_final=1.0))
    assert len(result.newton_reports) == 20
    assert abs(result.energy_trace[1][2]) > 1e6
    assert all(row[5] for row in result.energy_trace)


@pytest.mark.parametrize("key", ["constant:1e8", "poly:1e8,1", "constant:3e7"])
def test_dissipation_check_allows_rounding_of_a_dense_stationary_state(key):
    # E_h is near 0 (ln D_h x near 0) but each of its terms rounds at about
    # eps f0, so a rounding-level rise of 1.1e-10 once failed steps 2, 7
    # and 100 of these runs
    g = Grid(0.0, 1.0, 200)
    spec = make_problem(2.0, g, initial_data_from_key(key))
    result = run(RunConfig(spec=spec, params=SolverParams(tau=0.005), t_final=0.5))
    assert len(result.newton_reports) == 100
    assert all(row[5] for row in result.energy_trace)


@pytest.mark.parametrize("rise, raises", [(0.5e-10, False), (2e-10, True), (1.0, True)])
def test_dissipation_check_raises_above_the_slack(rise, raises):
    # constant density: the step returns x^n unchanged, so E_h stays 0 and the
    # bound is 0; a carried energy below the true one fakes a rise
    g = Grid(0.0, 1.0, 16)
    spec = make_problem(2.0, g, initial_data_from_key("constant:1"))
    state = dataclasses.replace(bootstrap(spec), e_curr=-rise)
    if not raises:
        assert advance(state, spec, SolverParams(tau=0.01))[1].dissipation_lhs == rise
        return
    with pytest.raises(EnergyViolationError, match="exceeds dissipation bound"):
        advance(state, spec, SolverParams(tau=0.01))


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


def test_snapshot_bytes_are_the_value_by_value_rendering(tmp_path):
    """Every snap_<n>.csv, the truncated last step's too, is str(i) and
    17 significant digits of X, x and f, row by row: the columns i and X,
    formatted once per run, are the same bytes in every snapshot."""
    g, spec, params = _quad_setup(M=40)
    config = RunConfig(spec=spec, params=params, t_final=7.5 * params.tau,
                       snapshot_every=3, output_dir=tmp_path)
    run(config)
    states = {0: bootstrap(spec)}
    states.update((state.n, state) for state, _ in steps(config, states[0]))
    assert sorted(p.name for p in tmp_path.glob("snap_*.csv")) == [
        "snap_0.csv", "snap_3.csv", "snap_6.csv", "snap_8.csv"]
    for n in (0, 3, 6, 8):
        x = states[n].x_curr
        columns = (g.nodes().tolist(), x.tolist(), recover_density(x, spec).tolist())
        lines = ["i,X,x,f"] + [
            ",".join([str(i)] + [f"{v:.17g}" for v in values])
            for i, values in enumerate(zip(*columns))]
        assert (tmp_path / f"snap_{n}.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_run_forms_the_initial_density_once(tmp_path, monkeypatch):
    # for the initial mass and snap_0.csv alike; a later snapshot writes
    # the density its step's advance formed for the mass, so the run forms
    # one density per advance and none per snapshot
    g, spec, params = _quad_setup(M=40)
    events = []
    for name in ("advance", "recover_density"):
        def recording(*args, _name=name, _original=getattr(stepper, name), **kwargs):
            events.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(stepper, name, recording)
    run(RunConfig(spec=spec, params=params, t_final=4 * params.tau,
                  snapshot_every=2, output_dir=tmp_path))
    assert events[:events.index("advance")] == ["recover_density"]
    assert events.count("advance") == 4 and events.count("recover_density") == 1 + 4


def test_trace_bytes_are_the_value_by_value_rendering(tmp_path):
    """energy.csv and mass.csv of a run whose last step is truncated are
    str(n) and 17 significant digits of every float the run returned in
    its traces, row by row."""
    g, spec, params = _quad_setup(M=40)
    result = run(RunConfig(spec=spec, params=params, t_final=7.5 * params.tau,
                           output_dir=tmp_path))
    assert len(result.newton_reports) == 8
    assert result.energy_trace[-1][1] - result.energy_trace[-2][1] < params.tau
    for name, rows in (("energy", [row[:5] for row in result.energy_trace]),
                       ("mass", result.mass_trace)):
        header = tmp_path.joinpath(f"{name}.csv").read_text().splitlines()[0]
        lines = [header] + [
            ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
            for row in rows]
        assert (tmp_path / f"{name}.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


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
    x^1, with the quadratic Newton start.  Each restart forms the energy
    and the slopes from the trajectories it read, so the carried ones must
    be the same bits."""
    g, spec, params = _quad_setup(M=400)
    config = RunConfig(spec=spec, params=params, t_final=4 * params.tau,
                       snapshot_every=1, output_dir=tmp_path)
    run(config)
    states = [bootstrap(spec)]
    states += [state for state, _ in steps(config, states[0])]
    x_read = [states[0].x_curr.copy()]
    for n in (1, 2, 3):
        with open(tmp_path / f"snap_{n}.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        x_read.append(np.array([float(r[2]) for r in rows]))
        np.testing.assert_array_equal(x_read[n], states[n].x_curr)  # exact round-trip

    restarted = restart(spec, 1, params.tau, x_read[1], x_read[0])
    replay, _ = advance(restarted, spec, params)
    np.testing.assert_array_equal(replay.x_curr, states[2].x_curr)

    assert states[3].x_prev2 is not None
    restarted = restart(spec, 3, 3 * params.tau, x_read[3], x_read[2], x_read[1])
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
    for _, diag in steps(RunConfig(spec=spec, params=params, t_final=5 * g.h), bootstrap(spec)):
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
        coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev,
                                    spec, params, damped_start=state.n == 0)
        at_current = dataclasses.replace(state, x_prev=state.x_curr, x_prev2=None)
        x_new, report = newton_step(at_current, coeffs, spec, params)
        assert report.start == "linear"
        state = restart(spec, state.n + 1, state.t + params.tau, x_new, state.x_curr)
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
    assert {r.start for r in reports} <= {"quadratic", "linear", "current"}
    assert np.mean([r.iterations for r in reports]) <= 1.6


def test_far_phase_step_hands_on_a_linear_start():
    # near vacuum with tau = 10 h every step begins in the far phase, where
    # a quadratic start would overshoot
    g = Grid(0.0, 1.0, 400)
    spec = make_problem(8.0, g, initial_data_from_key("poly:1e-3,0,1"))
    params = SolverParams(tau=10 * g.h)
    config = RunConfig(spec=spec, params=params, t_final=10 * params.tau)
    far = prev_far = 0
    for _, diag in steps(config, bootstrap(spec)):
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


@pytest.mark.parametrize("m, key, k", [(5.0 / 3.0, "paper-quadratic", 1),
                                       (8.0, "poly:1e-4,0,1", 10), (1.05, "poly:1e-4,0,1", 100)],
                         ids=["bump", "far-phase", "near-vacuum"])
def test_carried_slopes_give_the_bits_of_fresh_ones(m, key, k):
    """The energy and the cell and wide slopes a step carries are the bits
    a restart computes from the trajectories, and the restarted state's
    stream follows the carried one bitwise, truncated last step included."""
    spec = make_problem(m, Grid(0.0, 1.0, 400), initial_data_from_key(key))
    params = SolverParams(tau=k * spec.grid.h)
    carried = state_after(spec, params, 3)
    restarted = restart(spec, carried.n, carried.t, carried.x_curr, carried.x_prev,
                        carried.x_prev2)
    for name in ("slope_curr", "wide_curr", "wide_prev"):
        np.testing.assert_array_equal(getattr(restarted, name), getattr(carried, name))
    assert restarted.e_curr == carried.e_curr

    config = RunConfig(spec=spec, params=params, t_final=7.5 * params.tau)
    wide_curr = carried.wide_curr.copy()
    for (carried, diag_c), (restarted, diag_r) in zip(steps(config, carried),
                                                      steps(config, restarted)):
        assert (restarted.n, restarted.t) == (carried.n, carried.t)
        np.testing.assert_array_equal(restarted.x_curr, carried.x_curr)
        np.testing.assert_array_equal(restarted.wide_curr, carried.wide_curr)
        assert (restarted.e_curr, diag_r.dissipation_rhs, diag_r.mass) == \
            (carried.e_curr, diag_c.dissipation_rhs, diag_c.mass)
        # the carried wide slopes are handed on, never written to
        np.testing.assert_array_equal(carried.wide_prev, wide_curr)
        wide_curr = carried.wide_curr.copy()
    assert carried.n == 8  # 7 full steps, then the truncated one


def test_restart_fields_are_fresh_slopes_and_energy(rng):
    g, spec, params = _quad_setup(M=64)
    x_curr, x_prev, x_prev2 = (random_admissible(rng, g) for _ in range(3))
    state = restart(spec, 2, 2 * params.tau, x_curr, x_prev, x_prev2)
    assert (state.n, state.t) == (2, 2 * params.tau)
    assert state.x_curr is x_curr and state.x_prev is x_prev and state.x_prev2 is x_prev2
    np.testing.assert_array_equal(state.slope_curr, d_forward(x_curr, g))
    np.testing.assert_array_equal(state.wide_curr, d_wide(x_curr, g))
    np.testing.assert_array_equal(state.wide_prev, d_wide(x_prev, g))
    assert state.e_curr == discrete_energy(x_curr, spec)
    assert state.work is not None and state.work is not bootstrap(spec).work


@pytest.mark.filterwarnings("error")
def test_restart_names_the_first_crossed_cell():
    g, spec, params = _quad_setup(M=16)
    x_curr = g.nodes()
    x_curr[5], x_curr[6] = x_curr[6], x_curr[5]
    with pytest.raises(DegenerateMeshError, match="at cell 5 "):
        restart(spec, 1, params.tau, x_curr, g.nodes())


def test_restart_rejects_an_unpinned_end():
    # newton_step trusts the base trajectory's ends, so restart, which makes
    # every state that advance does not, checks them
    g, spec, params = _quad_setup(M=16)
    x_curr = g.nodes()
    x_curr[-1] = g.x_right - g.h / 4  # still ordered
    with pytest.raises(DegenerateMeshError, match="end nodes"):
        restart(spec, 1, params.tau, x_curr, g.nodes())


def _nan_at_3(x):
    x[3] = math.nan
    return x


def _inf_at_3(x):
    x[3] = math.inf
    return x


# Each case is refused by restart, before any step, with a message that
# starts with the field's name: the steps trust every field restart takes.
# The arguments are (n, t, x_curr, x_prev, x_prev2) on Grid(0, 1, 8), each
# trajectory made from the reference nodes X (None: an admissible default).
RESTART_REFUSALS = {
    "x_prev reversed": ((1, 0.1, None, lambda X: X[::-1].copy(), None),
                        DegenerateMeshError, "x_prev: nonpositive cell slope at cell 0 "),
    "x_prev2 reversed": ((2, 0.2, None, None, lambda X: X[::-1].copy()),
                         DegenerateMeshError, "x_prev2: nonpositive cell slope at cell 0 "),
    "x_prev halved": ((1, 0.1, None, lambda X: 0.5 * X, None),
                      DegenerateMeshError, "x_prev: end nodes 0, 0.5 are not"),
    "x_prev2 halved": ((2, 0.2, None, None, lambda X: 0.5 * X),
                       DegenerateMeshError, "x_prev2: end nodes 0, 0.5 are not"),
    "x_prev nan": ((1, 0.1, None, _nan_at_3, None),
                   DegenerateMeshError, "x_prev: node 3 is nan, not a finite number"),
    "x_prev2 inf": ((2, 0.2, None, None, _inf_at_3),
                    DegenerateMeshError, "x_prev2: node 3 is inf, not a finite number"),
    "x_curr nan": ((1, 0.1, _nan_at_3, None, None),
                   DegenerateMeshError, "x_curr: node 3 is nan, not a finite number"),
    "x_prev one node short": ((1, 0.1, None, lambda X: X[:-1] ** 1.2, None),
                              ValueError, "x_prev: shape (8,) is not (9,)"),
    "x_curr a scalar": ((1, 0.1, lambda X: 0.5, None, None),
                        ValueError, "x_curr: shape () is not (9,)"),
    "x_prev2 a stack": ((2, 0.2, None, None, lambda X: np.array([X ** 1.4, X ** 1.4])),
                        ValueError, "x_prev2: shape (2, 9) is not (9,)"),
    "n negative": ((-1, 0.1, None, None, None), ConfigurationError,
                   "n: must be an integer >= 0, got -1"),
    "n fractional": ((1.5, 0.1, None, None, None), ConfigurationError,
                     "n: must be an integer >= 0, got 1.5"),
    "n a float": ((1.0, 0.1, None, None, None), ConfigurationError,
                  "n: must be an integer >= 0, got 1.0"),
    "t nan": ((1, math.nan, None, None, None), ConfigurationError,
              "t: must be nonnegative and finite, got nan"),
    "t negative": ((1, -1.0, None, None, None), ConfigurationError,
                   "t: must be nonnegative and finite, got -1.0"),
    "t a string": ((1, "0.1", None, None, None), ConfigurationError,
                   "t: must be nonnegative and finite, got '0.1'"),
    # x_prev = x_curr at n = 0, so a quadratic start would be x_prev2 itself
    "x_prev2 at n = 0": ((0, 0.0, None, lambda X: X.copy(), None), ConfigurationError,
                         "x_prev2: must be None, as n = 0 has no x^{-2}"),
    "t infinite": ((1, math.inf, None, None, None), ConfigurationError,
                   "t: must be nonnegative and finite, got inf"),
    "x_prev at n = 0": ((0, 0.0, None, lambda X: X ** 1.5, None), ConfigurationError,
                        "x_prev: must equal x_curr at n = 0"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", RESTART_REFUSALS)
def test_restart_refuses_each_bad_field_naming_it(case, monkeypatch):
    (n, t, *makers), error, message = RESTART_REFUSALS[case]
    g, spec, params = _quad_setup(M=8, tau=0.1)
    curr, prev, prev2 = (make(g.nodes()) if make else default for make, default in
                         zip(makers, (g.nodes(), g.nodes() ** 1.2, g.nodes() ** 1.4)))
    stepped = []
    monkeypatch.setattr(stepper, "advance", lambda *a: stepped.append(a))
    with pytest.raises(error) as exc:
        state = restart(spec, n, t, curr, prev, prev2)
        for _ in steps(RunConfig(spec=spec, params=params, t_final=1.0), state):
            pass
    assert str(exc.value).startswith(message)
    assert not stepped


def test_restart_takes_an_integral_n_and_a_zero_time():
    # numpy's integers are integers, and a restart at n = 0 whose x_prev
    # equals x_curr is the bootstrap state
    g, spec, params = _quad_setup(M=8, tau=0.1)
    X = g.nodes()
    state = restart(spec, np.int64(0), 0.0, X, X.copy())
    _assert_same_state(state, bootstrap(spec))
    assert restart(spec, np.int64(2), 0.2, X, X ** 1.2, X ** 1.4).n == 2


def _stepped(spec, params, state, n):
    """The final state of n more steps of tau after state."""
    config = RunConfig(spec=spec, params=params, t_final=state.t + n * params.tau)
    for state, _ in steps(config, state):
        pass
    return state


def _assert_same_state(a, b):
    for name in ("x_curr", "x_prev", "x_prev2", "slope_curr", "wide_curr", "wide_prev"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.dtype == np.float64 and x.tobytes() == y.tobytes(), name
    assert a.e_curr == b.e_curr


def test_restart_from_lists_gives_the_float_restart_and_its_steps():
    # a list used to raise AttributeError at x_curr.shape
    g, spec, params = _quad_setup(M=100)
    state = state_after(spec, params, 6)
    assert state.x_prev2 is not None
    fields = (state.x_curr, state.x_prev, state.x_prev2)
    floats = restart(spec, state.n, state.t, *fields)
    lists = restart(spec, state.n, state.t, *(x.tolist() for x in fields))
    _assert_same_state(lists, floats)
    _assert_same_state(_stepped(spec, params, lists, 4), _stepped(spec, params, floats, 4))


def test_restart_from_an_integer_array_gives_the_float_restart_and_its_steps():
    g = Grid(0.0, 8.0, 8)  # integer nodes
    spec = make_problem(2.0, g, initial_data_from_key("poly:1,1/8"))
    params = SolverParams(tau=0.5)
    x = np.arange(9)
    floats = restart(spec, 1, params.tau, x.astype(float), x.astype(float))
    ints = restart(spec, 1, params.tau, x, x.copy())
    _assert_same_state(ints, floats)
    _assert_same_state(_stepped(spec, params, ints, 3), _stepped(spec, params, floats, 3))


def test_step_mass_is_the_trapezoid_of_the_density():
    g, spec, params = _quad_setup(M=200)
    state, diag = advance(bootstrap(spec), spec, params)
    f = recover_density(state.x_curr, spec)
    assert diag.mass == pytest.approx(discrete_mass(state.x_curr, f), rel=1e-14)
    assert diag.min_slope == float(np.min(np.diff(state.x_curr) / g.h))
