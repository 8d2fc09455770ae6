"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The published refinement table (analysis.PUBLISHED_TABLE: errors and observed
orders for m = 5/3 and m = 2 at t = 0.05, tau = h) is the external
yardstick: every order must match within +/-0.20 and every error within a
factor of two.  The reference runs at
the nested resolution M = 9600 (stride 48/24/12/6); its own error sits >=39x
below the finest coarse error, so the windows are unaffected.
"""
from pathlib import Path

import numpy as np

from pmetraj import (Grid, LAMBDA_STAR, RunConfig, SolverParams, advance,
                     bootstrap, build_coefficients, initial_data_from_key,
                     make_problem, newton_step, quadratic_bump,
                     recover_density, run)
from pmetraj import _kernels, checks
from pmetraj.analysis import PUBLISHED_TABLE
from pmetraj.stepper import ENERGY_SLACK

from conftest import REFERENCE_M, T_EVAL, state_after
from reference_states import random_setup

ORDER_WINDOW = 0.20
ERROR_FACTOR = 2.0


def _verdict(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _all_runs(studies):
    for m, study in studies.items():
        for key, res in study.runs.items():
            yield m, key, res


def test_criterion_1_refinement_table(studies):
    worst_err, worst_ord = 1.0, 0.0
    ok = True
    for m, data in PUBLISHED_TABLE.items():
        report = studies[m].report
        for key, targets in data["errors"].items():
            for rec, target in zip(report.records, targets):
                ratio = rec.norm(key) / target
                worst_err = max(worst_err, ratio, 1.0 / ratio)
                ok &= 1.0 / ERROR_FACTOR <= ratio <= ERROR_FACTOR
        for key, targets in data["orders"].items():
            for got, target in zip(report.orders[key], targets):
                worst_ord = max(worst_ord, abs(got - target))
                ok &= abs(got - target) <= ORDER_WINDOW
    _verdict("criterion 1: refinement table reproduced "
             f"(m in {{5/3, 2}}, h in 1/200..1/1600, reference 1/{REFERENCE_M})",
             ok, f"worst error factor {worst_err:.3f}, worst order gap {worst_ord:.3f}")


def test_the_benchmark_checks_against_the_published_m2_row(monkeypatch):
    # perfbench keeps its own copy of the row (workloads.TABLE_M2)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads
    assert workloads.TABLE_M2 == PUBLISHED_TABLE[2.0]


def test_criterion_2_energy_dissipation(studies):
    violations = 0
    steps = 0
    for m, key, res in _all_runs(studies):
        for n, t, e, lhs, rhs, flag in res.energy_trace[1:]:
            steps += 1
            if not (flag and lhs <= rhs + ENERGY_SLACK):
                violations += 1
    _verdict("criterion 2: per-step energy dissipation bound on every run",
             violations == 0, f"{steps} steps checked, {violations} violations")


def test_criterion_3_unique_solvability(studies):
    slopes_ok = all(min(res.min_slopes) > 0.0 for _, _, res in _all_runs(studies))

    # re-solve one regular step from a perturbed admissible start
    g = Grid(0.0, 1.0, 200)
    spec = make_problem(2.0, g, quadratic_bump)
    params = SolverParams(tau=g.h)
    state, _ = advance(bootstrap(spec), spec, params)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params)
    x_ref, _ = newton_step(state, coeffs, spec, params)
    rng = np.random.default_rng(11)
    start = state.x_curr.copy()
    start[1:-1] += 0.25 * g.h * rng.uniform(-1.0, 1.0, g.M - 1)
    assert np.all(np.diff(start) > 0.0)
    x_again, _ = newton_step(state, coeffs, spec, params, x_init=start)
    gap = float(np.max(np.abs(x_ref - x_again)))
    _verdict("criterion 3: positive slopes everywhere and perturbed re-solve "
             "agreement to 1e-8",
             slopes_ok and gap <= 1e-8, f"re-solve gap {gap:.2e}")


def test_criterion_4_newton_behavior(studies):
    mean_ok = True
    contraction_ok = True
    worst_mean = 0.0
    for m, key, res in _all_runs(studies):
        iters = [r.iterations for r in res.newton_reports]
        mean = sum(iters) / len(iters)
        worst_mean = max(worst_mean, mean)
        mean_ok &= mean <= 10.0
        for r in res.newton_reports:
            hist = r.lambda_history
            for lam_k, lam_next in zip(hist[:-1], hist[1:]):
                # quadratic phase applies below lambda*; decrements at or below
                # the stopping tolerance sit on the rounding floor of the
                # assembled residual and are excluded ("until tolerance")
                if lam_k < LAMBDA_STAR and lam_next >= 1e-9:
                    contraction_ok &= lam_next <= 2.0 * lam_k ** 2
    _verdict("criterion 4: mean Newton iterations <= 10 and quadratic "
             "decrement contraction",
             mean_ok and contraction_ok, f"worst mean {worst_mean:.2f}")


def test_criterion_5_constant_state_stationary():
    g = Grid(0.0, 1.0, 64)
    spec = make_problem(2.0, g, initial_data_from_key("constant:1"))
    params = SolverParams(tau=0.01)
    state = state_after(spec, params, 100)
    drift = float(np.max(np.abs(state.x_curr - g.nodes())))
    f = recover_density(state.x_curr, spec)
    f_gap = float(np.max(np.abs(f - 1.0)))
    _verdict("criterion 5: constant density stays exactly stationary for 100 steps",
             drift <= 1e-12 and f_gap <= 1e-12,
             f"trajectory drift {drift:.2e}, density gap {f_gap:.2e}")


def test_criterion_6_mass_conservation_order():
    ok = True
    ratios_all = []
    for m in (5.0 / 3.0, 2.0):
        drifts = []
        for M in (100, 200, 400):
            g = Grid(0.0, 1.0, M)
            spec = make_problem(m, g, quadratic_bump)
            res = run(RunConfig(spec=spec, params=SolverParams(tau=g.h), t_final=T_EVAL))
            drifts.append(abs(res.mass_trace[-1][2] - res.mass_trace[0][2]))
        ratios = [drifts[i] / drifts[i + 1] for i in range(2)]
        ratios_all += ratios
        ok &= all(3.2 <= r <= 4.8 for r in ratios)
    _verdict("criterion 6: mass drift shrinks at second order under h-halving",
             ok, "ratios " + ", ".join(f"{r:.2f}" for r in ratios_all))


def test_criterion_7_calculus_oracles():
    rng = np.random.default_rng(20260809)
    grad_ok, hess_ok = True, True
    worst_g, worst_h = 0.0, 0.0
    # every odd-numbered state runs the opening step's flux, as in
    # checks._fd_states; the flag takes no draw from rng
    for i in range(20):
        spec, x_curr, coeffs = random_setup(rng, M=16, damped_start=i % 2 == 1)
        x_new = checks.random_admissible(rng, spec.grid)
        [err] = checks.gradient_vs_fd(x_curr[None], x_new[None], coeffs, spec.grid,
                                       _kernels.Workspace)
        ok = err <= checks.FD_REL_TOL
        grad_ok &= ok
        worst_g = max(worst_g, err)
    for i in range(20):
        spec, x_curr, coeffs = random_setup(rng, M=24, damped_start=i % 2 == 1)
        x_new = checks.random_admissible(rng, spec.grid)
        [err] = checks.hessian_vs_fd(x_curr[None], x_new[None], coeffs, spec.grid,
                                      _kernels.Workspace)
        ok = err <= checks.FD_REL_TOL
        hess_ok &= ok
        worst_h = max(worst_h, err)

    signs_ok = True
    for _ in range(1000):
        y = float(rng.uniform(1e-3, 10.0))
        y0 = float(rng.uniform(1e-3, 10.0))
        from pmetraj import q1_oracle, slope_derivative_W
        from pmetraj.functional import g_convex_second
        _, d1, d2 = q1_oracle(y, y0)
        w = slope_derivative_W(y, y0)
        signs_ok &= d1 > 0.0 and d2 <= 0.0 and w <= 0.0 and g_convex_second(y - 1.0, y0) >= 0.0

    continuity = checks.check_branch_continuity()
    _verdict("criterion 7: gradient/Hessian finite-difference oracles to 1e-6, "
             "sign sweeps, branch continuity",
             grad_ok and hess_ok and signs_ok and continuity.ok,
             f"worst FD errors {worst_g:.2e}/{worst_h:.2e}")


def test_criterion_8_discrete_identities():
    rng = np.random.default_rng(4242)
    sbp_ok = checks.check_summation_by_parts(rng, trials=60).ok
    norm_ok = checks.check_wide_slope_norm(rng, trials=100).ok
    _verdict("criterion 8: summation by parts to 1e-12 and wide-slope norm bound",
             sbp_ok and norm_ok)
