"""Benchmark of pmetraj: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout (nothing to build; pmetraj is imported
from ``src/``):

    python3 perfbench/run.py --workload refine_m2 --seed 1 --seconds 10 --trace 0

Workloads: refine_m2, solve_mix, stress, check (see ``workloads.py`` and
``README.md``).  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics from a separate traced pass; ``--smoke`` shrinks every
input to a few milliseconds of work.

Each run starts the worker in a fresh interpreter, with the BLAS/OpenMP
thread variables pinned to 1, so import cost lands in ``setup_s`` and no warm
state carries between runs.  ``setup_s`` is the median over the worker and
``SETUP_RUNS`` more interpreters that only set up.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the machine facts and a
readable summary.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("refine_m2", "solve_mix", "stress", "check")
SETUP_RUNS = 6
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every run
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PME_OUTPUT_DIR", None)
    return env


def _spawn(args: list, deadline: float) -> dict:
    """Run the worker in a fresh interpreter; return its last stdout line."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded the time limit: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    for needed in (ROOT / "src" / "pmetraj" / "__init__.py", ROOT / "configs" / "solve.cfg"):
        if not needed.is_file():
            raise BenchmarkError(f"{needed.relative_to(ROOT)} is missing: "
                                 "run from the root of a pmetraj checkout")
    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
    work_dir = work_root / f"work-{tag}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
              "--trace", str(trace)] + (["--smoke"] if smoke else [])
    setup = []
    try:
        for k in range(1 if smoke else SETUP_RUNS):
            probe_dir = work_dir / f"probe{k}"
            setup.append(_spawn(common + ["--work-dir", str(probe_dir), "--setup-only"],
                                deadline)["setup_s"])
            shutil.rmtree(probe_dir, ignore_errors=True)
        trace_file = work_root / f"trace-{tag}.jsonl"
        result = _spawn(common + ["--work-dir", str(work_dir / "run"),
                                  "--trace-file", str(trace_file)], deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setup.append(result["setup_s"])
    result["summary"]["setup_s_samples"] = setup
    if trace:
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    print("machine: " + json.dumps(result["facts"], sort_keys=True))
    summary = result["summary"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} ops, {result['failed']} failed, output checks "
          f"{'PASS' if result['correct'] else 'FAIL'}")
    for key, value in summary.items():
        print(f"  {key} = {value}")
    if args.trace:
        print(f"  trace_file = {result['trace_file']}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
