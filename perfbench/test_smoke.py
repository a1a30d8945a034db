"""Smoke test of the benchmark harness at toy sizes.

    python3 -m pytest perfbench

The repository's test suite collects only tests/, so this file and the
full-size benchmark stay out of it.  Every workload runs untraced and
traced for one second at toy sizes; each run must pass its output checks
and print exactly the metrics BENCHMARK.json names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_printed(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, proc.stderr
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    detail = json.loads(proc.stdout.splitlines()[-2])
    assert detail["failed_frac"] == 0.0
    assert detail["machine"]["workers"] <= detail["machine"]["nproc"]


def test_layer_table_matches_benchmark_json():
    sys.path.insert(0, str(HERE))
    try:
        from spans import LAYER_METRICS
    finally:
        sys.path.remove(str(HERE))
    assert [{"name": m.name, "unit": m.unit, "better": m.better} for m in LAYER_METRICS] == (
        BENCH["per_layer"]
    )


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "session", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
