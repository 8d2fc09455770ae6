"""Error norms against a nested fine-mesh reference, observed-order
computation, the refinement-study harness, and the published table it is
checked against (PUBLISHED_TABLE).

Coarse and reference runs share Lagrangian labels when the reference cell
count is an integer multiple of the coarse one, so errors are formed by
striding the reference arrays; no spatial interpolation ever enters.

A study's runs are independent.  run_many makes them over the CPUs this
process may use: it runs the largest of its longest-first bins itself and
forks a child for each other bin, or runs everything in process where a
fork cannot pay (see its docstring).  refinement_study, convergence_study
and convergence_studies, which maps every run of several exponents' studies
in one call, are the only callers; nothing else in pmetraj forks.
"""
from __future__ import annotations

import dataclasses
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .errors import ConfigurationError
from .functional import SolverParams
from .grid import Grid, domain_length, require_cell_count
from .problem import initial_data_from_key, make_problem, recover_density
from .stepper import RunConfig, _plan_steps, run

NORM_KEYS = ("f_l2", "f_inf", "x_l2", "x_inf")

#: The refinement table the source paper publishes, by exponent: the errors
#: of the coarse levels h = 1/200, 1/400, 1/800 and 1/1600 (tau = h) at
#: t = 0.05 in each norm of NORM_KEYS, and the observed orders between them.
PUBLISHED_TABLE = {
    5.0 / 3.0: {
        "errors": {
            "f_l2": [1.506e-4, 3.620e-5, 8.495e-6, 1.887e-6],
            "f_inf": [3.277e-4, 8.421e-5, 2.033e-5, 4.695e-6],
            "x_l2": [7.593e-5, 1.871e-5, 4.464e-6, 1.000e-6],
            "x_inf": [7.844e-5, 1.934e-5, 4.617e-6, 1.036e-6],
        },
        "orders": {
            "f_l2": [2.056, 2.092, 2.170],
            "f_inf": [1.960, 2.050, 2.114],
            "x_l2": [2.021, 2.067, 2.158],
            "x_inf": [2.020, 2.066, 2.156],
        },
    },
    2.0: {
        "errors": {
            "f_l2": [1.502e-4, 3.599e-5, 8.431e-6, 1.853e-6],
            "f_inf": [3.279e-4, 8.370e-5, 2.005e-5, 4.563e-6],
            "x_l2": [7.642e-5, 1.873e-5, 4.458e-6, 9.871e-7],
            "x_inf": [7.902e-5, 1.938e-5, 4.615e-6, 1.024e-6],
        },
        "orders": {
            "f_l2": [2.061, 2.094, 2.186],
            "f_inf": [1.970, 2.061, 2.136],
            "x_l2": [2.028, 2.071, 2.175],
            "x_inf": [2.028, 2.070, 2.172],
        },
    },
}


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
    return math.sqrt(0.5 * float(np.add.reduce(e * e * w))), float(np.abs(e).max())


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


# ---------------------------------------------------------------------------
# Independent runs on every available core
# ---------------------------------------------------------------------------

#: The least work, in cell-steps (M times steps), outside the largest bin for
#: which run_many forks.  A child costs the caller about 4 ms (the fork, its
#: pickled results, reaping it).  On a 2-core Xeon, handing 20,000 cell-steps
#: to a child gained 2.8-17 ms at M = 400-2000, 16,000 at M = 4000 lost
#: 1.2 ms, and studies at M <= 200 broke even near 600.
MIN_FORK_CELL_STEPS = 20_000

#: Python 3.12 and later warn (DeprecationWarning) on fork in a process with
#: more than one thread, as numpy's OpenBLAS keeps when it is not pinned to one.
_FORK_WARNS_WITH_THREADS = sys.version_info >= (3, 12)
_in_worker = False  # set in a forked child, whose runs stay in process


def _thread_count() -> int:
    """The process's thread count, or 0 where /proc does not give it."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def _worker_count(tasks: int) -> int:
    """How many processes run_many may use for this many runs: 1 (in
    process) without os.fork or os.sched_getaffinity, inside a forked
    child, or where fork would warn of threads; else min(tasks, the CPUs
    this process may run on)."""
    if (_in_worker or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or (_FORK_WARNS_WITH_THREADS and _thread_count() != 1)):
        return 1
    return max(1, min(tasks, len(os.sched_getaffinity(0))))


def _cell_steps(config: RunConfig) -> int:
    n_full, tail = _plan_steps(config.t_final, config.params.tau)
    return config.spec.grid.M * (n_full + (tail > 0.0))


def _bins(configs: list, count: int) -> list:
    """Static longest-first bins of run indices by M times steps, each in
    input order, the largest load first: every run, costliest first, joins
    the bin with the least load so far.  One bin of every run when the
    others would hold under MIN_FORK_CELL_STEPS."""
    costs = [_cell_steps(config) for config in configs]
    loads, bins = [0] * count, [[] for _ in range(count)]
    for i in sorted(range(len(configs)), key=lambda i: -costs[i]):
        b = loads.index(min(loads))
        bins[b].append(i)
        loads[b] += costs[i]
    if sum(loads) - max(loads) < MIN_FORK_CELL_STEPS:
        return [list(range(len(configs)))]
    order = sorted(range(count), key=lambda b: -loads[b])
    return [sorted(bins[b]) for b in order if bins[b]]


def _run_bin(configs: list, indices) -> dict:
    """Each run's RunResult by index, run in input order up to the first
    that raises, whose exception stands in for its result."""
    outcomes = {}
    for i in indices:
        try:
            outcomes[i] = run(configs[i])  # looked up by name, as a tracer patches it
        except Exception as exc:
            outcomes[i] = exc
            break
    return outcomes


def _fork_bin(configs: list, indices):
    """(pid, read end of its pipe as a binary file) of a child that runs the
    bin and writes its outcomes to the pipe, pickled; None if the pipe or
    the fork cannot be made."""
    global _in_worker
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            _in_worker = True
            with open(write_fd, "wb") as pipe:
                pickle.dump(_run_bin(configs, indices), pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _outcomes(configs: list) -> list:
    """Each run's RunResult or exception in input order, None for a run not
    made because one before it in its bin raised (see run_many)."""
    bins = _bins(configs, _worker_count(len(configs)))
    own, children = list(bins[0]), []
    try:
        for indices in bins[1:]:
            child = _fork_bin(configs, indices)
            if child is None:  # no fork: the bin's runs are made here
                own = sorted(own + indices)
            else:
                children.append((indices, *child))
        outcomes = _run_bin(configs, own)
        while children:
            indices, pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            # a child that died without its outcomes has its runs made here
            outcomes.update(pickle.loads(payload) if status == 0 and payload
                            else _run_bin(configs, indices))
    finally:
        for _, pid, pipe in children:  # left only when an exception escapes
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [outcomes.get(i) for i in range(len(configs))]


def _results(outcomes: list) -> list:
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def run_many(configs: list) -> list:
    """The RunResults of independent runs, in input order.

    The runs are packed into static longest-first bins by M times steps,
    one per process, min(len(configs), the CPUs of os.sched_getaffinity(0)):
    this process runs the largest bin itself, forked children the others,
    each bin in input order, and the children's results come back pickled.
    Everything runs in process instead with fewer than 2 CPUs, without
    os.fork or os.sched_getaffinity, inside a child, where the interpreter
    would warn of forking a threaded process (Python 3.12 and later), or
    when the bins other than the largest hold under MIN_FORK_CELL_STEPS.
    A run's own output files (RunConfig.output_dir) are written by the
    process that makes it.

    On failure, the first failing run in input order raises its exception,
    with its class, message and attributes (a ConfigurationError's key, a
    NonconvergenceError's report); from a child, without its traceback and
    cause.  No child outlives the call.
    """
    return _results(_outcomes(list(configs)))


# ---------------------------------------------------------------------------
# Refinement studies
# ---------------------------------------------------------------------------

@dataclass
class _StudyPlan:
    m: float
    t_eval: float
    pairs: list    # (M, tau) of the reference, then of each level
    specs: dict    # M -> ProblemSpec
    configs: list  # RunConfig of each pair


def _study_plan(m, levels, reference, t_eval, initial_data, domain,
                params_base) -> _StudyPlan:
    """Every run of a refinement study, checked (see refinement_study)."""
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
    return _StudyPlan(m=m, t_eval=t_eval, pairs=pairs, specs=specs, configs=configs)


def _study_result(plan: _StudyPlan, results: list) -> StudyResult:
    """The error records and orders of a planned study from its runs' results."""
    reference_M = plan.pairs[0][0]
    runs = {"reference": results[0]}
    ref_state = results[0].final_state
    f_ref = recover_density(ref_state.x_curr, plan.specs[reference_M], ref_state.slope_curr,
                            ref_state.wide_curr)

    records = []
    for (M, tau), res in zip(plan.pairs[1:], results[1:]):
        runs[(M, tau)] = res
        spec, x = plan.specs[M], res.final_state.x_curr
        f = recover_density(x, spec, res.final_state.slope_curr, res.final_state.wide_curr)
        stride = reference_M // M
        f_l2, f_inf = density_error_norms(x, f, ref_state.x_curr, f_ref, stride)
        x_l2, x_inf = trajectory_error_norms(x, ref_state.x_curr, stride, spec.grid)
        records.append(ErrorRecord(h=spec.grid.h, tau=tau,
                                   err_f_l2=f_l2, err_f_inf=f_inf,
                                   err_x_l2=x_l2, err_x_inf=x_inf))

    report = ConvergenceReport(m=plan.m, t_eval=plan.t_eval, records=records,
                               orders=observed_orders(records))
    return StudyResult(report=report, runs=runs)


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
    The runs are independent and go through run_many.
    `runs` holds "reference" and each level's (M, tau)."""
    plan = _study_plan(m, levels, reference, t_eval, initial_data, domain, params_base)
    return _study_result(plan, run_many(plan.configs))


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
    return next(convergence_studies([m], h_list, reference_M, t_eval, initial_data,
                                    domain, params_base))


def convergence_studies(m_values: list,
                        h_list: list,
                        reference_M: int,
                        t_eval: float,
                        initial_data: Union[str, Callable],
                        domain=(0.0, 1.0),
                        params_base: Optional[SolverParams] = None) -> Iterator[StudyResult]:
    """convergence_study of each exponent in m_values, in order, with the
    runs of every study mapped together, as one run_many call maps them.

    Every study is checked and every run made before this returns; the
    studies are then yielded one at a time.  A study with a failing run
    raises, when it is reached, the exception of its first failing run in
    input order, so the studies before it are yielded first."""
    length = domain_length(*domain)
    m_list = study_cell_counts(h_list, reference_M, t_eval, length)
    plans = [_study_plan(m, [(M, length / M) for M in m_list],
                         (reference_M, length / reference_M), t_eval, initial_data,
                         domain, params_base) for m in m_values]
    outcomes = iter(_outcomes([config for plan in plans for config in plan.configs]))

    def studies():
        for plan in plans:
            study = _study_result(plan, _results([next(outcomes) for _ in plan.configs]))
            study.runs = {k if k == "reference" else k[0]: res
                          for k, res in study.runs.items()}
            yield study

    return studies()


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
