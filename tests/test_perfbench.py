"""Smoke test of the benchmark harness: every workload runs traced on tiny inputs.

A traced run fails to find a traced name once the program renames or deletes
it, and that layer would then read zero; this test reports it instead.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_is_correct_and_misses_no_name(tmp_path, workload):
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__", ".bench_work"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", "1", "--tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    trace = json.loads((tmp_path / ".bench_work" / workload / "trace.json").read_text())
    assert trace["missing"] == []
