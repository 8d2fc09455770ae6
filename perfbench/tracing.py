"""Span tracing of pmetraj from outside the package.

The tracer wraps the public function of each layer by replacing the module
attribute that its call sites look up (for example ``stepper.advance``, which
``stepper.run`` calls by name, or ``analysis.run``, which ``analysis`` imported
by name).  Nothing under ``src/`` changes.  Spans are kept in memory as
``[name, start, end, parent, op]`` lists and written once, at exit.

``g_convex_integral`` runs 19,200 times per ``checks.run_all`` call; it is
counted, not given a span.
"""
from __future__ import annotations

import json
import math
import os
import time
from collections import Counter, defaultdict

from pmetraj import (_kernels, analysis, checks, cli, config, functional,
                     newton, stepper)
from pmetraj.errors import NonconvergenceError

CHECK_FUNCTIONS = (
    "check_q1_signs", "check_w_nonpositive", "check_g_second_nonnegative",
    "check_branch_continuity", "check_gradient_fd", "check_hessian_fd",
    "check_summation_by_parts", "check_wide_slope_norm",
)

# Computed (not measured) traffic and arithmetic of the numpy kernels, per
# unknown or per cell: each array read or written once, 8-byte floats,
# log1p and division counted as one flop.  Every array here fits in the
# 300 MB last-level cache, so no bandwidth or roofline figure is derived.
THOMAS_BYTES, THOMAS_FLOPS = 64, 8          # per unknown: 8 array passes
RESIDUAL_BYTES, RESIDUAL_FLOPS = 48, 22     # per cell: 5 fields in, g out
HESSIAN_BYTES, HESSIAN_FLOPS = 48, 26       # per cell: 4 fields in, 2 out


class Tracer:
    """Installs span wrappers, records spans and counters, and restores the
    original attributes.  Spans and counters persist across installs."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op = -1
        self.counts: Counter = Counter()
        self._saved: list = []
        self._study_runs: list = []

    # -- recording ----------------------------------------------------------

    def begin(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, note=None):
        def traced(*args, **kwargs):
            rec = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(rec)
                if note is not None:
                    note(args, None, exc, rec)
                raise
            self.end(rec)
            if note is not None:
                note(args, out, None, rec)
            return out
        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr, name, note=None):
        self._patch(owner, attr, self._wrap(name, getattr(owner, attr), note))

    # -- notes: counters read from arguments and results ---------------------

    def _note_thomas(self, args, out, exc, rec):
        self.counts["thomas.unknowns"] += len(args[0])

    def _note_cells(self, key):
        def note(args, out, exc, rec):
            self.counts[key] += len(args[0]) - 1
        return note

    def _note_newton(self, args, out, exc, rec):
        spec = args[2]
        if exc is None:
            report = out[1]
            self.counts["newton.accepted"] += 1
            self.counts["newton.cell_steps"] += spec.grid.M
        elif isinstance(exc, NonconvergenceError) and exc.report is not None:
            report = exc.report
        else:
            return
        self.counts["newton.iterations"] += report.iterations
        self.counts["newton.damped_steps"] += report.damped_steps
        self.counts["newton.converged"] += int(report.converged)

    def _note_guard(self, args, out, exc, rec):
        if exc is not None:
            return
        omega_in, omega_out = args[2], out[0]
        self.counts["newton.guard.halvings"] += round(math.log2(omega_in / omega_out))
        self.counts["newton.full_steps"] += int(omega_out == 1.0)

    def _note_csv(self, args, out, exc, rec):
        if exc is None:
            self.counts["csvio.bytes"] += os.path.getsize(args[0])

    def _note_study_run(self, args, out, exc, rec):
        self._study_runs.append((args[0].spec.grid.M, rec[2] - rec[1]))

    def _note_study(self, args, out, exc, rec):
        reference_M = args[2]
        self.counts["analysis.reference_s"] += sum(
            dt for M, dt in self._study_runs if M == reference_M)
        self._study_runs.clear()

    # -- install / restore --------------------------------------------------

    def install(self) -> "Tracer":
        span = self._span
        span(_kernels, "thomas_spd", "kernels.thomas_spd", self._note_thomas)
        span(_kernels, "residual_interior", "kernels.residual_interior",
             self._note_cells("residual.cells"))
        span(_kernels, "hessian_tridiag", "kernels.hessian_tridiag",
             self._note_cells("hessian.cells"))
        span(functional, "residual", "functional.residual")
        span(functional, "hessian_coefficients", "functional.hessian_coefficients")
        span(functional, "build_coefficients", "functional.build_coefficients")
        span(functional, "eval_F", "functional.eval_F")
        self._patch(functional, "g_convex_integral",
                    self._count("functional.g_convex_integral",
                                functional.g_convex_integral))
        span(newton, "newton_step", "newton.newton_step", self._note_newton)
        span(newton, "solve_tridiagonal", "newton.solve_tridiagonal")
        span(newton, "_guarded_update", "newton.guard", self._note_guard)
        span(stepper, "advance", "stepper.advance")
        self._patch(stepper, "run", self._wrap("stepper.run", stepper.run))
        self._patch(analysis, "run", self._wrap("stepper.run", analysis.run,
                                                self._note_study_run))
        energy = self._wrap("problem.discrete_energy", stepper.discrete_energy)
        self._patch(stepper, "discrete_energy", energy)
        density = self._wrap("problem.recover_density", stepper.recover_density)
        self._patch(stepper, "recover_density", density)
        self._patch(analysis, "recover_density", density)
        csv = self._wrap("csvio.write_csv_atomic", stepper.write_csv_atomic,
                         self._note_csv)
        self._patch(stepper, "write_csv_atomic", csv)
        self._patch(cli, "write_csv_atomic", csv)
        span(analysis, "convergence_study", "analysis.convergence_study",
             self._note_study)
        for fn in CHECK_FUNCTIONS:
            span(checks, fn, "checks." + fn[len("check_"):])
        load = config.Config.__dict__["load"].__func__
        self._patch(config.Config, "load",
                    classmethod(self._wrap("config.load", load)))
        span(cli, "main", "cli.main")
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write(self, path, header: dict) -> None:
        """Write the header and every span as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def layer_times(spans) -> tuple[dict, dict, dict]:
    """Per span name: call count, total seconds, and self seconds (duration
    minus the durations of its direct children)."""
    calls: Counter = Counter()
    total: dict = defaultdict(float)
    child: dict = defaultdict(float)
    for name, start, end, parent, _ in spans:
        calls[name] += 1
        total[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    self_s: dict = defaultdict(float)
    for idx, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += (end - start) - child.get(idx, 0.0)
    return calls, total, self_s
