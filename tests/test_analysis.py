import math
import os
import pickle
import tempfile
import time

import numpy as np
import pytest

from pmetraj import (ConfigurationError, Grid, NonconvergenceError, RunConfig,
                     SolverParams, analysis, convergence_study,
                     density_error_norms, make_problem, observed_orders,
                     quadratic_bump, refinement_study, run, run_many,
                     trajectory_error_norms)
from pmetraj.analysis import (CSV_HEADER, ErrorRecord, format_table,
                              report_rows)


def _nested_pair(M=4, stride=3):
    coarse = Grid(0.0, 1.0, M)
    ref = Grid(0.0, 1.0, M * stride)
    return coarse, ref, stride


def test_norms_zero_on_identical_inputs():
    coarse, ref, stride = _nested_pair()
    xc = coarse.nodes()
    xr = ref.nodes()
    f = np.ones(coarse.M + 1)
    fr = np.ones(ref.M + 1)
    assert density_error_norms(xc, f, xr, fr, stride) == (0.0, 0.0)
    assert trajectory_error_norms(xc, xr, stride, coarse) == (0.0, 0.0)


def test_trajectory_norm_constant_error_telescopes():
    # weights h, 2h, ..., 2h, h on [0,1] sum to 2, so a constant error c gives
    # exactly |c| in the L2 norm
    coarse, ref, stride = _nested_pair(M=10, stride=5)
    xr = ref.nodes().copy()
    xc = coarse.nodes() - 0.37
    l2, linf = trajectory_error_norms(xc, xr, stride, coarse)
    assert l2 == pytest.approx(0.37, rel=1e-14)
    assert linf == pytest.approx(0.37, rel=1e-14)


def test_density_norm_hand_sum_oracle():
    # M = 2 hand computation with deformed weights from the coarse trajectory
    coarse = Grid(0.0, 1.0, 2)
    ref = Grid(0.0, 1.0, 4)
    xc = np.array([0.0, 0.4, 1.0])
    fc = np.array([1.0, 2.0, 4.0])
    fr = np.array([1.5, 0.0, 2.5, 0.0, 3.0])  # strided picks 1.5, 2.5, 3.0
    e = np.array([0.5, 0.5, -1.0])
    w = np.array([0.4, 1.0, 0.6])  # x1-x0, x2-x0, x2-x1
    expected_l2 = math.sqrt(0.5 * np.sum(e * e * w))
    l2, linf = density_error_norms(xc, fc, ref.nodes(), fr, 2)
    assert l2 == pytest.approx(expected_l2, rel=1e-14)
    assert linf == 1.0


def test_norms_absolutely_homogeneous(rng):
    coarse, ref, stride = _nested_pair(M=8, stride=4)
    xc = np.sort(rng.uniform(0.01, 0.99, 7))
    xc = np.concatenate(([0.0], xc, [1.0]))
    fc = rng.uniform(0.5, 1.5, 9)
    fr = rng.uniform(0.5, 1.5, 33)
    for s in (2.0, 10.0):
        base_l2, base_inf = density_error_norms(xc, fc, ref.nodes(), fr, stride)
        # move the coarse values so the pointwise error scales by exactly s
        fc_scaled = fc - (s - 1.0) * (fr[::stride] - fc)
        scaled_l2, scaled_inf = density_error_norms(xc, fc_scaled, ref.nodes(), fr, stride)
        assert scaled_l2 == pytest.approx(abs(s) * base_l2, rel=1e-12)
        assert scaled_inf == pytest.approx(abs(s) * base_inf, rel=1e-12)


def test_non_nested_grids_rejected():
    coarse = Grid(0.0, 1.0, 3)
    ref = Grid(0.0, 1.0, 10)
    with pytest.raises(ConfigurationError):
        trajectory_error_norms(coarse.nodes(), ref.nodes(), 3, coarse)


def test_trajectory_norms_refuse_a_grid_other_than_the_coarse_one():
    # a constant error 0.005 reads 0.005 with the coarse grid's weights; with
    # the reference grid's h it would read 0.00354
    coarse, ref, stride = _nested_pair(M=4, stride=2)
    xc, xr = coarse.nodes() + 0.005, ref.nodes()
    assert trajectory_error_norms(xc, xr, stride, coarse)[0] == pytest.approx(0.005, rel=1e-13)
    for grid in (ref, Grid(0.0, 1.0, 100)):
        with pytest.raises(ValueError) as exc:
            trajectory_error_norms(xc, xr, stride, grid)
        assert str(exc.value) == f"coarse_x: shape (5,) is not ({grid.M + 1},)"


@pytest.mark.parametrize("name, coarse_f, reference_f, shape, want", [
    ("coarse_f", 1.0, np.ones(9), (), (5,)),              # no longer broadcast
    ("reference_f", np.ones(5), np.ones(10), (10,), (9,)),  # strided to 5 values
    ("reference_f", np.ones(5), np.ones(8), (8,), (9,)),    # strided to 4 values
], ids=["scalar coarse_f", "reference_f one long", "reference_f one short"])
def test_density_norms_refuse_a_density_not_of_its_trajectorys_shape(
        name, coarse_f, reference_f, shape, want):
    coarse, ref, stride = _nested_pair(M=4, stride=2)
    with pytest.raises(ValueError) as exc:
        density_error_norms(coarse.nodes(), coarse_f, ref.nodes(), reference_f, stride)
    assert str(exc.value) == f"{name}: shape {shape} is not its trajectory's {want}"


def test_observed_orders_values():
    recs = [ErrorRecord(h=0.01, tau=0.01, err_f_l2=4e-4, err_f_inf=4e-4,
                        err_x_l2=1e-3, err_x_inf=1e-3),
            ErrorRecord(h=0.005, tau=0.005, err_f_l2=1e-4, err_f_inf=4e-4,
                        err_x_l2=0.0, err_x_inf=2.5e-4)]
    orders = observed_orders(recs)
    assert orders["f_l2"] == [pytest.approx(2.0)]
    assert orders["f_inf"] == [pytest.approx(0.0)]      # equal errors
    assert math.isnan(orders["x_l2"][0])                # zero denominator
    assert orders["x_inf"] == [pytest.approx(2.0)]


def test_observed_orders_table_column():
    # published first column pair: 1.506e-4 -> 3.620e-5 prints as 2.056
    recs = [ErrorRecord(0.005, 0.005, 1.506e-4, 1, 1, 1),
            ErrorRecord(0.0025, 0.0025, 3.620e-5, 1, 1, 1)]
    assert observed_orders(recs)["f_l2"][0] == pytest.approx(2.056, abs=2e-3)


def test_observed_orders_scale_invariant(rng):
    errs = rng.uniform(1e-6, 1e-3, 4)
    recs = [ErrorRecord(0.01 / 2**k, 0.01 / 2**k, e, e, e, e)
            for k, e in enumerate(errs)]
    base = observed_orders(recs)
    scaled = observed_orders([ErrorRecord(r.h, r.tau, 7 * r.err_f_l2, 7 * r.err_f_inf,
                                          7 * r.err_x_l2, 7 * r.err_x_inf)
                              for r in recs])
    for key in base:
        np.testing.assert_allclose(base[key], scaled[key], rtol=1e-12)


def test_convergence_study_structure_and_small_run():
    study = convergence_study(2.0, [1.0 / 20, 1.0 / 40], 160, 0.05,
                              "paper-quadratic")
    recs = study.report.records
    assert [r.h for r in recs] == [0.05, 0.025]
    assert all(r.tau == r.h for r in recs)
    assert all(r.norm(k) > 0 for r in recs for k in ("f_l2", "f_inf", "x_l2", "x_inf"))
    # refinement must reduce every error on this smooth problem
    for key in ("f_l2", "f_inf", "x_l2", "x_inf"):
        assert recs[1].norm(key) < recs[0].norm(key)
    assert set(study.runs) == {"reference", 20, 40}
    assert len(study.report.orders["f_l2"]) == 1


def test_convergence_study_single_resolution_has_no_orders():
    study = convergence_study(2.0, [1.0 / 20], 40, 0.05, "paper-quadratic")
    assert study.report.orders == {"f_l2": [], "f_inf": [], "x_l2": [], "x_inf": []}


def test_convergence_study_accepts_callable_initial_data():
    from pmetraj import quadratic_bump
    by_key = convergence_study(2.0, [1.0 / 20], 40, 0.05, "paper-quadratic")
    by_fn = convergence_study(2.0, [1.0 / 20], 40, 0.05, quadratic_bump)
    assert by_fn.report.records[0].err_f_l2 == by_key.report.records[0].err_f_l2


def test_convergence_study_rejects_bad_setups():
    with pytest.raises(ConfigurationError):  # 30 does not divide 100
        convergence_study(2.0, [1.0 / 30], 100, 0.05, "paper-quadratic")
    with pytest.raises(ConfigurationError):  # h does not tile [0, 1]
        convergence_study(2.0, [0.013], 100, 0.05, "paper-quadratic")
    with pytest.raises(ConfigurationError):  # t_eval not a whole number of steps
        convergence_study(2.0, [1.0 / 20], 40, 0.013, "paper-quadratic")
    with pytest.raises(ConfigurationError, match="shorter than one step"):
        convergence_study(2.0, [1.0 / 20], 40, 1e-12, "paper-quadratic")
    with pytest.raises(ConfigurationError, match="must be positive"):
        convergence_study(2.0, [0.0], 40, 0.05, "paper-quadratic")
    with pytest.raises(ConfigurationError, match="at least 2 cells"):
        convergence_study(2.0, [1.0 / 20], 0, 0.05, "paper-quadratic")
    with pytest.raises(ConfigurationError, match="at least one mesh width"):
        convergence_study(2.0, [], 40, 0.05, "paper-quadratic")


def test_report_rows_and_table():
    recs = [ErrorRecord(0.01, 0.01, 4e-4, 4e-4, 4e-4, 4e-4),
            ErrorRecord(0.005, 0.005, 1e-4, 1e-4, 1e-4, 1e-4)]
    from pmetraj.analysis import ConvergenceReport
    rep = ConvergenceReport(m=2.0, t_eval=0.05, records=recs,
                            orders=observed_orders(recs))
    rows = report_rows(rep)
    assert len(rows) == 2 and len(rows[0]) == len(CSV_HEADER)
    assert rows[0][3] == ""          # no order on the coarsest row
    assert rows[1][3] == pytest.approx(2.0)
    table = format_table(rep)
    assert "2.000" in table and "m = 2" in table


def test_second_order_in_time_and_in_space_separately():
    # the published table fixes tau = h; here each half of the claim is
    # checked alone, against a reference that shares the other resolution
    M, steps = 200, (10, 20, 40)
    in_time = refinement_study(2.0, [(M, 0.05 / n) for n in steps], (M, 0.05 / 320),
                               0.05, quadratic_bump)
    n, cells = 40, (50, 100, 200)
    in_space = refinement_study(2.0, [(c, 0.05 / n) for c in cells], (800, 0.05 / n),
                                0.05, quadratic_bump)
    for orders in (in_time.report.orders["x_inf"], in_space.report.orders["x_inf"]):
        assert all(abs(p - 2.0) <= 0.2 for p in orders), orders


def test_refinement_study_in_time_keeps_every_level():
    # levels at one M: one record per level, each with its own tau
    study = refinement_study(2.0, [(20, 0.05), (20, 0.025)], (20, 0.0125), 0.1,
                             "paper-quadratic")
    recs = study.report.records
    assert [(r.h, r.tau) for r in recs] == [(0.05, 0.05), (0.05, 0.025)]
    assert recs[1].err_x_inf < recs[0].err_x_inf
    assert len(study.report.orders["x_inf"]) == 1
    assert set(study.runs) == {"reference", (20, 0.05), (20, 0.025)}
    assert [study.runs[key].final_state.n for key in ((20, 0.05), (20, 0.025), "reference")] \
        == [2, 4, 8]


@pytest.mark.parametrize("levels, reference, reason", [
    ([(30, 0.05)], (100, 0.01), "M=30 does not divide"),
    ([(20, 0.05), (20, 0.05)], (40, 0.025), "repeats"),
    ([(20, 0.05), (40, 0.025)], (40, 0.025), "repeats"),
], ids=["not-dividing", "repeated", "the-reference"])
def test_refinement_study_rejects_bad_levels_before_the_first_run(monkeypatch, forks, levels,
                                                                  reference, reason):
    calls = []
    original = analysis.run

    def counting(config):
        calls.append(config)
        return original(config)

    monkeypatch.setattr(analysis, "run", counting)
    with pytest.raises(ConfigurationError, match=reason) as info:
        refinement_study(2.0, levels, reference, 0.1, "paper-quadratic")
    assert info.value.key == "levels" and calls == [] and forks == []


# ---------------------------------------------------------------------------
# run_many: independent runs over the available cores
# ---------------------------------------------------------------------------

#: A study whose levels' M times steps (5000 + 20000) reach
#: MIN_FORK_CELL_STEPS beside the reference's 80000: run_many forks one
#: child for the levels where it may fork at all.  Two runs of 20,000
#: cell-steps each, as below, fork one child for the second.
FORKED_STUDY = (2.0, [(1000, 1 / 1000), (2000, 1 / 2000)], (4000, 1 / 4000), 0.005,
                "paper-quadratic")


def _forking() -> bool:
    """Whether run_many forks here for two runs (see its docstring)."""
    return analysis._worker_count(2) == 2


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _config(M, steps, max_iter=100):
    """The quadratic bump at m = 2 over `steps` steps of tau = h."""
    spec = make_problem(2.0, Grid(0.0, 1.0, M), quadratic_bump)
    return RunConfig(spec=spec, params=SolverParams(tau=1.0 / M, newton_max_iter=max_iter),
                     t_final=steps / M)


def test_forked_study_is_bitwise_the_in_process_one(monkeypatch, forks):
    forking = _forking()
    forked = refinement_study(*FORKED_STUDY)
    assert len(forks) == forking
    _no_child_left()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # one CPU
    in_process = refinement_study(*FORKED_STUDY)
    assert len(forks) == forking  # one CPU forks nothing
    _no_child_left()
    assert forked.report == in_process.report
    # each run's x, traces and Newton reports, bit for bit
    for key, result in in_process.runs.items():
        assert pickle.dumps(forked.runs[key]) == pickle.dumps(result)


def test_run_many_returns_the_results_in_input_order(forks):
    sizes = [(1000, 5), (4000, 20), (2000, 10)]  # the largest, run here, second
    results = run_many([_config(M, steps) for M, steps in sizes])
    assert len(forks) == _forking()
    _no_child_left()
    assert [(r.final_state.x_curr.size - 1, len(r.newton_reports)) for r in results] == sizes


def test_a_nested_call_forks_nothing(monkeypatch, forks):
    # each run notes how many processes a run_many call made inside it may
    # use: here as many as forking allows, in the forked child one
    forking, original = _forking(), analysis.run

    def noting(config):
        result = original(config)
        result.workers = analysis._worker_count(2)
        return result

    monkeypatch.setattr(analysis, "run", noting)
    results = run_many([_config(2000, 10), _config(1000, 20)])
    assert len(forks) == forking
    _no_child_left()
    assert [result.workers for result in results] == [2 if forking else 1, 1]


def test_no_fork_without_the_calls_or_where_fork_would_warn(monkeypatch):
    cores = min(2, len(os.sched_getaffinity(0)))
    monkeypatch.setattr(analysis, "_FORK_WARNS_WITH_THREADS", True)  # Python >= 3.12
    monkeypatch.setattr(analysis, "_thread_count", lambda: 2)
    assert analysis._worker_count(2) == 1
    monkeypatch.setattr(analysis, "_thread_count", lambda: 1)
    assert analysis._worker_count(2) == cores
    monkeypatch.delattr(os, "fork")
    assert analysis._worker_count(2) == 1


def test_a_childs_nonconvergence_reaches_the_caller_unchanged(monkeypatch, forks):
    configs = [_config(20000, 4), _config(2000, 10, max_iter=1)]
    with pytest.raises(NonconvergenceError) as expected:
        run(configs[1])
    here = []
    original = analysis.run

    def recording(config):
        here.append(config)
        return original(config)

    monkeypatch.setattr(analysis, "run", recording)
    with pytest.raises(NonconvergenceError) as got:
        run_many(configs)
    assert len(forks) == _forking()
    _no_child_left()
    # this process made only the larger run where a child made the other
    assert here == configs[:1] if _forking() else here == configs
    assert str(got.value) == str(expected.value)
    assert pickle.dumps(got.value.report) == pickle.dumps(expected.value.report)


def test_the_first_failure_in_input_order_is_raised(monkeypatch, forks):
    configs = [_config(2000, 10, max_iter=1), _config(4000, 20, max_iter=1)]
    for order in (configs, configs[::-1]):  # the first made by a child, then here
        with pytest.raises(NonconvergenceError) as expected:
            run(order[0])
        with pytest.raises(NonconvergenceError) as got:
            run_many(order)
        _no_child_left()
        assert str(got.value) == str(expected.value)
        assert pickle.dumps(got.value.report) == pickle.dumps(expected.value.report)
    assert len(forks) == 2 * _forking()
    # in one process, no run is made after the first that fails
    made, original = [], analysis.run

    def recording(config):
        made.append(config)
        return original(config)

    monkeypatch.setattr(analysis, "run", recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(NonconvergenceError):
        run_many(configs)
    assert made == configs[:1]


def test_a_child_that_dies_without_its_results_has_its_runs_made_here(monkeypatch, forks):
    configs = [_config(2000, 10), _config(1000, 20)]
    expected = [pickle.dumps(run(config)) for config in configs]

    def dying(*args, **kwargs):
        os._exit(1)

    monkeypatch.setattr(pickle, "dump", dying)  # the child exits before it writes
    results = run_many(configs)
    assert len(forks) == _forking()
    _no_child_left()
    assert [pickle.dumps(result) for result in results] == expected


def test_runs_are_made_here_when_fork_fails(monkeypatch):
    configs = [_config(2000, 10), _config(1000, 20)]
    expected = [pickle.dumps(run(config)) for config in configs]

    def failing(*args, **kwargs):
        raise BlockingIOError(11, "Resource temporarily unavailable")

    # the child's file, made before the fork, or the fork itself
    for module, name in [(os, "fork"), (tempfile, "TemporaryFile")]:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, failing)
            assert [pickle.dumps(result) for result in run_many(configs)] == expected


def test_a_child_exits_when_its_bin_ends(monkeypatch, forks):
    # the child's outcomes pickle to more than a pipe's 64 KB, and it must
    # not wait on the caller, whose own run comes after it has exited
    if not _forking():
        pytest.skip("run_many makes every run in process here")
    parent, original, exited = os.getpid(), analysis.run, []

    def polling(config):
        if os.getpid() == parent:
            deadline = time.monotonic() + 5.0
            while not exited and time.monotonic() < deadline:
                # WNOWAIT leaves the child for run_many to reap
                info = os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOHANG | os.WNOWAIT)
                if info is None:
                    time.sleep(0.01)
                else:
                    exited.append(info.si_status)
        return original(config)

    monkeypatch.setattr(analysis, "run", polling)
    results = run_many([_config(4000, 20), _config(2000, 10)])
    assert len(pickle.dumps(results[1])) > 65536
    assert exited == [0]


def test_an_interrupt_here_leaves_no_child(monkeypatch, forks):
    parent, original = os.getpid(), analysis.run

    def interrupted(config):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return original(config)

    monkeypatch.setattr(analysis, "run", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_many([_config(2000, 10), _config(1000, 20)])
    assert len(forks) == _forking()
    _no_child_left()

