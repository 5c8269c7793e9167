"""Smoke tests of the benchmark harness, each in a copy of `perfbench/` and `src/`.

Every workload runs traced on tiny inputs.  A traced run fails to find a
traced name once the program renames or deletes it, and that layer would then
read zero; this test reports it instead.  `perfbench/bite.py` shows that the
benchmark's output checks still reject damaged artifacts.
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


def run_copy(tmp_path: Path, *argv: str) -> subprocess.CompletedProcess:
    """A `perfbench/` script run with `argv` in a copy of `perfbench/` and `src/` under `tmp_path`."""
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__", ".bench_work"))
    return subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_is_correct_and_misses_no_name(tmp_path, workload):
    done = run_copy(tmp_path, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0",
                    "--trace", "1", "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    trace = json.loads((tmp_path / ".bench_work" / workload / "trace.json").read_text())
    assert trace["missing"] == []


def test_output_checks_reject_damaged_artifacts(tmp_path):
    done = run_copy(tmp_path, "perfbench/bite.py")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "all damaged outputs rejected"
