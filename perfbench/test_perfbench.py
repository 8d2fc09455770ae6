"""The benchmark's own test, on the tiny inputs of ``--smoke``.

    python3 -m pytest perfbench -q

Checks that every metric named in BENCHMARK.json is printed by name with its
unit, that the result line has the agreed keys, that the layer self times of
each traced operation sum to its wall time within the tracing overhead, and
that the benchmark refuses to run without the package.
"""
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _smoke(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    lines, result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
        assert any(line.strip().startswith(f"{metric['name']} = ")
                   and line.strip().endswith(f" {metric['unit']}") for line in lines)
    if not trace:
        assert result["metrics"]["setup_s"]["value"] > 0.0
        assert result["metrics"]["op_ms_p50"]["value"] > 0.0


def test_stress_counts_solver_errors_as_failures():
    _, result = _smoke("stress", 0)
    assert result["failed"] > 0
    assert result["metrics"]["ok_share"]["value"] < 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_sum_to_operation_wall(workload):
    lines, result = _smoke(workload, 1)
    overhead = abs(result["metrics"]["trace.overhead_share"]["value"])
    trace_file = next(line.split("=", 1)[1].strip() for line in lines
                      if line.strip().startswith("trace_file ="))
    records = [json.loads(line) for line in (ROOT / trace_file).read_text().splitlines()]
    header, spans = records[0], records[1:]
    assert header["workload"] == workload
    child = defaultdict(float)
    for span in spans:
        if span["parent"] >= 0:
            child[span["parent"]] += span["end"] - span["start"]
    layers, walls = defaultdict(float), {}
    for idx, span in enumerate(spans):
        if span["parent"] < 0:
            assert span["name"] == "op"
            walls[span["op"]] = span["end"] - span["start"]
        else:
            layers[span["op"]] += span["end"] - span["start"] - child[idx]
    assert walls and set(layers) <= set(walls)
    for op, wall in walls.items():
        assert layers[op] <= wall * (1 + 1e-9)
        assert wall - layers[op] <= max(overhead, 0.02) * wall + 2e-4, (op, wall, layers[op])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_unknown_workload_is_refused():
    proc = _bench("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
