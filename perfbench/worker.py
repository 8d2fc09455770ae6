"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py`` with the monotonic time at which it was spawned, so the
set-up time covers interpreter start, importing numpy and pmetraj, and
generating the inputs.  Prints one JSON object as its last line.

Untraced (``--trace 0``): the operations run for about ``--seconds`` and the
end-to-end metrics are reported, with each operation's time scaled to the
host's speed (``hostspeed.py``).  Traced (``--trace 1``): every
operation runs twice in a row, untraced and then traced; the per-layer
metrics come from the traced runs, and the ratio of traced to untraced time
is the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import pmetraj
from pmetraj.errors import SolverError

from hostspeed import HostClock
from tracing import (CHECK_FUNCTIONS, HESSIAN_BYTES, HESSIAN_FLOPS,
                     RESIDUAL_BYTES, RESIDUAL_FLOPS, THOMAS_BYTES, THOMAS_FLOPS,
                     Tracer, layer_times)
from workloads import WORKLOADS, OutputError

# Units of the end-to-end metrics; setup_s is added by run.py.
END_TO_END = {
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}

# Units of the per-layer metrics, by the last part of the name; the rest are
# shares of the traced operations' wall time.
PER_LAYER_UNITS = {
    "calls": "count", "iterations": "count", "damped_steps": "count",
    "halvings": "count", "bytes": "B", "ns_per_unknown": "ns/unknown",
    "computed_bytes_per_call": "B", "computed_flops_per_call": "flop",
    "newton_iters_per_step": "iter/step", "cell_steps_per_s": "1/s",
}


def tail(values):
    """The highest percentile with at least 10 samples beyond it, and that
    percentile; the maximum when there are too few samples for one at or
    above the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 21:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def _run_one(workload, op, tracer, op_id, clock=None):
    """Run and check one operation; returns (seconds, status, cell_steps).
    With a clock, the run is also timed under index `op_id`."""
    if tracer is not None:
        tracer.install()
        tracer.op = op_id
        span = tracer.begin("op")
    if clock is not None:
        clock.begin()
    t0 = time.perf_counter()
    try:
        try:
            out = workload.run(op)
        except SolverError as exc:
            out = exc
        dt = time.perf_counter() - t0
    finally:
        if clock is not None:
            clock.end(op_id)
        if tracer is not None:
            tracer.end(span)
            tracer.restore()
    if isinstance(out, SolverError):
        return dt, "solver_error", 0
    try:
        return dt, "ok", workload.check(op, out)
    except OutputError as exc:
        print(f"output check failed on {_label(op)}: {exc}", file=sys.stderr)
        return dt, "wrong", 0


def run_ops(workload, seconds, tracer=None, clock=None):
    """Closed loop over the workload's operations: the ``once`` operations a
    single time, then whole passes over ``ops``, as many as fit in `seconds`
    at the workload's nominal ``pass_seconds`` (at least one).  The amount of
    work is fixed by `seconds`, not by how fast this machine happens to be.
    With a tracer, every operation runs twice in a row, untraced and then
    traced, so that both see the same state of the machine.  With a clock,
    the untraced runs are timed on it.  Returns, per
    distinct operation, its (seconds, status, cell_steps) records untraced
    and traced."""
    ops = list(getattr(workload, "once", [])) + list(workload.ops)
    n_once = len(ops) - len(workload.ops)
    passes = max(1, round(seconds / workload.pass_seconds))
    plain = [[] for _ in ops]
    traced = [[] for _ in ops]
    n_traced = 0
    for p in range(passes):
        for i, op in enumerate(ops):
            if p > 0 and i < n_once:
                continue
            plain[i].append(_run_one(workload, op, None, i, clock))
            if tracer is not None:
                traced[i].append(_run_one(workload, op, tracer, n_traced))
                n_traced += 1
    return ops, plain, traced


def best_times(samples) -> list:
    """Each operation's fastest raw time over its runs."""
    return [min(r[0] for r in records) for records in samples]


def end_to_end(samples, clock) -> dict:
    records = [r for recs in samples for r in recs]
    times = clock.op_seconds()
    ok = sum(r[1] == "ok" for r in records)
    tail_s, _ = tail(times)
    return {
        "wall_s": sum(times),
        "op_ms_p50": 1e3 * statistics.median(times),
        "op_ms_tail": 1e3 * tail_s,
        "ok_share": ok / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _div(a, b):
    return a / b if b else 0.0


def per_layer(plain, traced, tracer) -> dict:
    """Per-layer metrics from the traced runs: counts per operation, times as
    shares of the traced operations' wall time."""
    plain = [r for recs in plain for r in recs]
    traced = [r for recs in traced for r in recs]
    n = len(traced)
    wall = sum(r[0] for r in traced)
    calls, total, self_s = layer_times(tracer.spans)
    c = tracer.counts

    def per_op(value):
        return value / n

    def share(name):
        return total[name] / wall

    def self_share(name):
        return self_s[name] / wall

    thomas_calls = calls["kernels.thomas_spd"]
    res_calls = calls["kernels.residual_interior"]
    hess_calls = calls["kernels.hessian_tridiag"]
    steps = calls["newton.newton_step"]
    out = {
        "kernels.thomas_spd.calls": per_op(thomas_calls),
        "kernels.thomas_spd.share": share("kernels.thomas_spd"),
        "kernels.thomas_spd.ns_per_unknown":
            1e9 * _div(total["kernels.thomas_spd"], c["thomas.unknowns"]),
        "kernels.thomas_spd.computed_bytes_per_call":
            THOMAS_BYTES * _div(c["thomas.unknowns"], thomas_calls),
        "kernels.thomas_spd.computed_flops_per_call":
            THOMAS_FLOPS * _div(c["thomas.unknowns"], thomas_calls),
        "kernels.residual_interior.calls": per_op(res_calls),
        "kernels.residual_interior.share": share("kernels.residual_interior"),
        "kernels.residual_interior.computed_bytes_per_call":
            RESIDUAL_BYTES * _div(c["residual.cells"], res_calls),
        "kernels.residual_interior.computed_flops_per_call":
            RESIDUAL_FLOPS * _div(c["residual.cells"], res_calls),
        "kernels.hessian_tridiag.calls": per_op(hess_calls),
        "kernels.hessian_tridiag.share": share("kernels.hessian_tridiag"),
        "kernels.hessian_tridiag.computed_bytes_per_call":
            HESSIAN_BYTES * _div(c["hessian.cells"], hess_calls),
        "kernels.hessian_tridiag.computed_flops_per_call":
            HESSIAN_FLOPS * _div(c["hessian.cells"], hess_calls),
        "functional.residual.self_share": self_share("functional.residual"),
        "functional.hessian_coefficients.self_share":
            self_share("functional.hessian_coefficients"),
        "functional.build_coefficients.share": share("functional.build_coefficients"),
        "functional.eval_F.calls": per_op(calls["functional.eval_F"]),
        "functional.eval_F.share": share("functional.eval_F"),
        "functional.g_convex_integral.calls": per_op(c["functional.g_convex_integral"]),
        "newton.newton_step.calls": per_op(steps),
        "newton.newton_step.self_share": self_share("newton.newton_step"),
        "newton.solve_tridiagonal.self_share": self_share("newton.solve_tridiagonal"),
        "newton.iterations": per_op(c["newton.iterations"]),
        "newton.damped_steps": per_op(c["newton.damped_steps"]),
        "newton.guard.share": share("newton.guard"),
        "newton.guard.halvings": per_op(c["newton.guard.halvings"]),
        "newton.converged_share": _div(c["newton.converged"], steps),
        "newton.full_step_share": _div(c["newton.full_steps"], calls["newton.guard"]),
        "newton_iters_per_step": _div(c["newton.iterations"], steps),
        "cell_steps_per_s": c["newton.cell_steps"] / sum(r[0] for r in plain),
        "stepper.advance.self_share": self_share("stepper.advance"),
        "stepper.run.self_share": self_share("stepper.run"),
        "problem.discrete_energy.share": share("problem.discrete_energy"),
        "problem.recover_density.share": share("problem.recover_density"),
        "csvio.write_csv_atomic.calls": per_op(calls["csvio.write_csv_atomic"]),
        "csvio.write_csv_atomic.share": share("csvio.write_csv_atomic"),
        "csvio.write_csv_atomic.bytes": per_op(c["csvio.bytes"]),
        "analysis.reference_share":
            _div(c["analysis.reference_s"], total["analysis.convergence_study"]),
        "analysis.convergence_study.self_share":
            self_share("analysis.convergence_study"),
    }
    for fn in CHECK_FUNCTIONS:
        name = "checks." + fn[len("check_"):]
        out[name + ".share"] = share(name)
    out["config.load.share"] = share("config.load")
    out["cli.main.self_share"] = self_share("cli.main")
    out["trace.overhead_share"] = wall / sum(r[0] for r in plain) - 1.0
    return out


def machine_facts() -> dict:
    """Facts recorded with every result.  Imports scipy and numba only after
    the measurement is done."""
    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pmetraj_backend": pmetraj.backend_name(),
        "PMETRAJ_BACKEND": os.environ.get("PMETRAJ_BACKEND", ""),
    }
    try:
        import scipy
        facts["scipy"] = scipy.__version__
    except ImportError:
        facts["scipy"] = None
    try:
        import numba  # noqa: F401
        facts["numba_imports"] = True
    except ImportError:
        facts["numba_imports"] = False
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")), None)
    except OSError:
        facts["cpu_model"] = None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    facts["caches"] = caches
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not Path(pmetraj.__file__).resolve().is_relative_to(root / "src"):
        print(f"pmetraj imported from {pmetraj.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.smoke, args.work_dir)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        tracer = Tracer()
        ops, plain, samples = run_ops(workload, args.seconds, tracer)
        metrics = {name: {"value": value,
                          "unit": PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "share")}
                   for name, value in per_layer(plain, samples, tracer).items()}
    else:
        clock = HostClock().install()
        try:
            ops, samples, plain = run_ops(workload, args.seconds, clock=clock)
        finally:
            clock.restore()
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in end_to_end(samples, clock).items()}

    records = [r for recs in samples + plain for r in recs]
    _, tail_pct = tail(best_times(samples))
    summary = {
        "ops": len(ops),
        "runs_per_op": max(len(recs) for recs in samples),
        "tail_percentile": tail_pct,
        "raw_wall_s": sum(best_times(samples)),
        "fail_share": sum(r[1] != "ok" for r in records) / len(records),
        "cell_steps_per_s": sum(r[2] for r in records) / sum(r[0] for r in records),
        "failed_ops": [_label(op) for op, recs in zip(ops, samples)
                       if any(r[1] != "ok" for r in recs)],
    }
    if not args.trace:
        summary["op_ms"] = [round(1e3 * t, 2) for t in clock.op_seconds()]
        summary["host_speed"] = statistics.median(clock.speeds)
    if hasattr(workload, "max_mass_drift"):
        summary["max_rel_mass_drift"] = workload.max_mass_drift
    facts = machine_facts()
    if args.trace and args.trace_file is not None:
        tracer.write(args.trace_file, {
            "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
            "ops": [_label(op) for op, recs in zip(ops, samples) for _ in recs],
            "facts": facts, "metrics": metrics, "summary": summary})
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": len(records),
        "failed": sum(r[1] != "ok" for r in records),
        "correct": all(r[1] != "wrong" for r in records),
        "metrics": metrics,
        "summary": summary,
        "facts": facts,
    }))
    return 0


def _label(op) -> str:
    if isinstance(op, tuple):
        return str(op[0]) if isinstance(op[0], str) else Path(op[0]).name
    return str(op)


if __name__ == "__main__":
    sys.exit(main())
