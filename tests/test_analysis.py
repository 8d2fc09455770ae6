import math

import numpy as np
import pytest

from pmetraj import (ConfigurationError, Grid, RunConfig, SolverParams,
                     convergence_study, density_error_norms, make_problem,
                     observed_orders, quadratic_bump, run,
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


def _final_x(M, steps):
    spec = make_problem(2.0, Grid(0.0, 1.0, M), quadratic_bump)
    config = RunConfig(spec=spec, params=SolverParams(tau=0.05 / steps), t_final=0.05)
    return run(config).final_state.x_curr


def _orders(errors):
    return [math.log2(coarse / fine) for coarse, fine in zip(errors[:-1], errors[1:])]


def test_second_order_in_time_and_in_space_separately():
    # the published table fixes tau = h; here each half of the claim is
    # checked alone, against a reference that shares the other resolution
    M, steps = 200, (10, 20, 40)
    ref = _final_x(M, 320)
    in_time = [trajectory_error_norms(_final_x(M, n), ref, 1, Grid(0.0, 1.0, M))[1]
               for n in steps]
    n, cells = 40, (50, 100, 200)
    ref = _final_x(800, n)
    in_space = [trajectory_error_norms(_final_x(c, n), ref, 800 // c,
                                       Grid(0.0, 1.0, c))[1] for c in cells]
    for orders in (_orders(in_time), _orders(in_space)):
        assert all(abs(p - 2.0) <= 0.2 for p in orders), orders
