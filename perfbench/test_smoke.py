"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at its smallest size with tracing off and on, and
checks that the result line names every metric of BENCHMARK.json with
its unit, that all checks pass, and that tracing leaves the losses and
predictions byte-identical (same output digest).
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def parse(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_present_and_tracing_changes_no_output(workload):
    digests = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        record, result = parse(run_bench(workload, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        for name, metric in result["metrics"].items():
            assert set(metric) == {"value", "unit"}
            assert math.isfinite(metric["value"]), name
            if group == "end_to_end":
                assert metric["value"] > 0, name
        assert record["environment"]["blas_threads"] == 1
        digests.append(record["output_sha256"])
    assert digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark's own files, the command
    exits non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
