"""Error norms against a nested fine-mesh reference, observed-order
computation, and the refinement-study harness.

Coarse and reference runs share Lagrangian labels when the reference cell
count is an integer multiple of the coarse one, so errors are formed by
striding the reference arrays; no spatial interpolation ever enters.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigurationError
from .functional import SolverParams
from .grid import Grid, domain_length, require_cell_count
from .problem import initial_data_from_key, make_problem, recover_density
from .stepper import RunConfig, run

NORM_KEYS = ("f_l2", "f_inf", "x_l2", "x_inf")


@dataclass
class ErrorRecord:
    h: float
    tau: float
    err_f_l2: float
    err_f_inf: float
    err_x_l2: float
    err_x_inf: float

    def norm(self, key: str) -> float:
        return getattr(self, f"err_{key}")


@dataclass
class ConvergenceReport:
    m: float
    t_eval: float
    records: list = field(default_factory=list)
    orders: dict = field(default_factory=dict)  # norm key -> list of log2 ratios


@dataclass
class StudyResult:
    report: ConvergenceReport
    runs: dict = field(default_factory=dict)  # "reference" and each level -> RunResult


def _check_nested(coarse_len: int, reference_len: int, stride: int):
    if stride < 1 or reference_len - 1 != stride * (coarse_len - 1):
        raise ConfigurationError(
            f"reference grid ({reference_len - 1} cells) is not a stride-{stride} "
            f"refinement of the coarse grid ({coarse_len - 1} cells)"
        )


def _weighted_norms(e, w):
    """The L2 norm sqrt(<e e, w>/2) of the error e with weights w, and its max norm."""
    return math.sqrt(0.5 * float(np.sum(e * e * w))), float(np.max(np.abs(e)))


def density_error_norms(coarse_x, coarse_f, reference_x, reference_f, stride: int):
    """L2/inf density error at shared labels, weighted by the coarse
    trajectory's deformed spacings h_{x_i} = x_{i+1} - x_{i-1} (half cells at
    the ends)."""
    coarse_x = np.asarray(coarse_x, dtype=float)
    coarse_f = np.asarray(coarse_f, dtype=float)
    _check_nested(coarse_x.shape[0], np.asarray(reference_x).shape[0], stride)
    e = np.asarray(reference_f, dtype=float)[::stride] - coarse_f
    w = np.empty_like(coarse_x)
    w[1:-1] = coarse_x[2:] - coarse_x[:-2]
    w[0] = coarse_x[1] - coarse_x[0]
    w[-1] = coarse_x[-1] - coarse_x[-2]
    return _weighted_norms(e, w)


def trajectory_error_norms(coarse_x, reference_x, stride: int, grid: Grid):
    """L2/inf trajectory error at shared labels with fixed weights
    (2h interior, h at both ends)."""
    coarse_x = np.asarray(coarse_x, dtype=float)
    reference_x = np.asarray(reference_x, dtype=float)
    _check_nested(coarse_x.shape[0], reference_x.shape[0], stride)
    e = reference_x[::stride] - coarse_x
    w = np.full_like(coarse_x, 2.0 * grid.h)
    w[0] = w[-1] = grid.h
    return _weighted_norms(e, w)


def observed_orders(records: list) -> dict:
    """log2(err_coarse/err_fine) between successive records for each norm;
    NaN marks an undefined order (zero fine error)."""
    orders = {key: [] for key in NORM_KEYS}
    for prev, nxt in zip(records[:-1], records[1:]):
        for key in NORM_KEYS:
            e0, e1 = prev.norm(key), nxt.norm(key)
            orders[key].append(math.log2(e0 / e1) if e1 > 0.0 else math.nan)
    return orders


def study_cell_counts(h_list: list, reference_M: int, t_eval: float,
                      length: float) -> list:
    """The coarse cell counts of a refinement study on a domain of the given
    length, coarsest first, once the study's keys are checked: every h tiles
    the domain in at least 2 cells, no two give the same count, every coarse
    count is a proper divisor of reference_M, whose nodes numpy can hold
    (require_cell_count), and t_eval is a whole number of at least one step
    (tau = h) at every resolution.  A bad key raises ConfigurationError with
    key "h_list", "reference_M" or "t_eval".
    """
    if not h_list:
        raise ConfigurationError("needs at least one mesh width", key="h_list")
    m_list = []
    for h in sorted(h_list, reverse=True):
        if not h > 0.0:
            raise ConfigurationError(f"mesh widths must be positive, got {h!r}",
                                     key="h_list")
        cells = length / h
        if cells == math.inf:
            raise ConfigurationError(f"h={h} is too small for the domain of length "
                                     f"{length}", key="h_list")
        M = round(cells)
        if M < 2:
            raise ConfigurationError(f"h={h} gives fewer than 2 cells on the domain of "
                                     f"length {length}", key="h_list")
        if abs(M * h - length) > 1e-12 * length:
            raise ConfigurationError(f"h={h} does not tile the domain of length "
                                     f"{length}", key="h_list")
        if M in m_list:
            raise ConfigurationError(f"h={h} gives M={M} a second time", key="h_list")
        m_list.append(M)
    if reference_M < 2:
        raise ConfigurationError(f"need at least 2 cells, got {reference_M}",
                                 key="reference_M")
    require_cell_count(reference_M, "reference_M")
    for M in m_list:
        if M == reference_M:
            raise ConfigurationError(f"coarse cell count {M} equals the reference count",
                                     key="reference_M")
        if reference_M % M != 0:
            raise ConfigurationError(f"coarse cell count {M} does not divide the reference "
                                     f"count {reference_M}", key="reference_M")
    if not t_eval > 0.0:
        raise ConfigurationError("must be positive", key="t_eval")
    for M in m_list + [reference_M]:
        steps = t_eval * M / length
        if abs(steps - round(steps)) > 1e-9:
            raise ConfigurationError(f"t_eval={t_eval} is not a whole number of steps at "
                                     f"M={M} (tau = h)", key="t_eval")
        if round(steps) < 1:
            raise ConfigurationError(f"t_eval={t_eval} is shorter than one step at M={M} "
                                     "(tau = h)", key="t_eval")
    return m_list


def refinement_study(m: float,
                     levels: list,
                     reference: tuple,
                     t_eval: float,
                     initial_data: Union[str, Callable],
                     domain=(0.0, 1.0),
                     params_base: Optional[SolverParams] = None) -> StudyResult:
    """Error records and observed orders of coarse (M, tau) levels, coarsest
    first, against one reference (M, tau), all run to t_eval: a time study
    is levels at one M, a space study levels at one tau.  `initial_data` is
    a catalog key or a sampling callable.  Everything is checked before the
    first run; a level that repeats one before it, or whose M does not
    divide the reference's, raises ConfigurationError with key "levels".
    `runs` holds "reference" and each level's (M, tau)."""
    if params_base is None:
        params_base = SolverParams(tau=1.0)
    reference_M, pairs = reference[0], [tuple(reference)]
    for M, tau in levels:
        if (M, tau) in pairs:
            raise ConfigurationError(f"(M={M}, tau={tau}) repeats an earlier level or the "
                                     "reference", key="levels")
        if not (M >= 1 and reference_M % M == 0):
            raise ConfigurationError(f"M={M} does not divide the reference's M={reference_M}",
                                     key="levels")
        pairs.append((M, tau))

    f0 = initial_data_from_key(initial_data) if isinstance(initial_data, str) else initial_data
    specs = {M: make_problem(m, Grid(domain[0], domain[1], M), f0) for M, _ in pairs}
    configs = [RunConfig(spec=specs[M], params=dataclasses.replace(params_base, tau=tau),
                         t_final=t_eval) for M, tau in pairs]
    results = [run(config) for config in configs]

    runs = {"reference": results[0]}
    ref_state = results[0].final_state
    f_ref = recover_density(ref_state.x_curr, specs[reference_M], ref_state.slope_curr,
                            ref_state.wide_curr)

    records = []
    for (M, tau), res in zip(pairs[1:], results[1:]):
        runs[(M, tau)] = res
        spec, x = specs[M], res.final_state.x_curr
        f = recover_density(x, spec, res.final_state.slope_curr, res.final_state.wide_curr)
        stride = reference_M // M
        f_l2, f_inf = density_error_norms(x, f, ref_state.x_curr, f_ref, stride)
        x_l2, x_inf = trajectory_error_norms(x, ref_state.x_curr, stride, spec.grid)
        records.append(ErrorRecord(h=spec.grid.h, tau=tau,
                                   err_f_l2=f_l2, err_f_inf=f_inf,
                                   err_x_l2=x_l2, err_x_inf=x_inf))

    report = ConvergenceReport(m=m, t_eval=t_eval, records=records,
                               orders=observed_orders(records))
    return StudyResult(report=report, runs=runs)


def convergence_study(m: float,
                      h_list: list,
                      reference_M: int,
                      t_eval: float,
                      initial_data: Union[str, Callable],
                      domain=(0.0, 1.0),
                      params_base: Optional[SolverParams] = None) -> StudyResult:
    """refinement_study with tau = h, one level per mesh width in h_list, the
    study's keys checked first (study_cell_counts); `runs` holds "reference"
    and each coarse M."""
    length = domain_length(*domain)
    m_list = study_cell_counts(h_list, reference_M, t_eval, length)
    study = refinement_study(m, [(M, length / M) for M in m_list],
                             (reference_M, length / reference_M), t_eval,
                             initial_data, domain, params_base)
    study.runs = {k if k == "reference" else k[0]: res for k, res in study.runs.items()}
    return study


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

CSV_HEADER = ["h", "tau", "err_f_L2", "order", "err_f_inf", "order",
              "err_x_L2", "order", "err_x_inf", "order"]


def report_rows(report: ConvergenceReport) -> list:
    rows = []
    for k, rec in enumerate(report.records):
        row = [rec.h, rec.tau]
        for key in NORM_KEYS:
            o = report.orders[key][k - 1] if k else math.nan
            row += [rec.norm(key), "" if math.isnan(o) else o]
        rows.append(row)
    return rows


def format_table(report: ConvergenceReport) -> str:
    """Aligned plain-text table (errors to 4 significant digits, orders to 3
    decimals)."""
    header = (f"{'h':>12} {'tau':>12} {'err_f_L2':>10} {'ord':>6} {'err_f_inf':>10}"
              f" {'ord':>6} {'err_x_L2':>10} {'ord':>6} {'err_x_inf':>10} {'ord':>6}")
    lines = [f"m = {report.m:g}, t = {report.t_eval:g}", header]
    for row in report_rows(report):
        cells = [f"{row[0]:>12.6g}", f"{row[1]:>12.6g}"]
        for err, o in zip(row[2::2], row[3::2]):
            cells += [f"{err:>10.4g}", f"{'-':>6}" if o == "" else f"{o:>6.3f}"]
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"
