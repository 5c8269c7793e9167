"""The run gate can neither always pass nor always fail: one law drawn twice passes, two betas do not."""

from __future__ import annotations

import pytest

import run_gate
from transitepi.cli import main

# the artifact month of tests/test_artifacts.py
MONTH = ["--passengers", "300", "--routes", "8", "--stops-per-route", "12", "--days", "14", "--seed", "3"]


@pytest.fixture(scope="module")
def simulate(tmp_path_factory):
    root = tmp_path_factory.mktemp("run-gate")
    trips = root / "trips.csv"
    assert main(["generate", "--out", str(trips), *MONTH]) == 0

    def run(beta: float, master_seed: int):
        out = root / f"beta{beta}-seed{master_seed}"
        if not out.exists():
            assert main(["simulate", "--input", str(trips), "--min-trips", "10", "--seeds", "5", "--runs", "40",
                         "--dt-minutes", "15", "--beta", str(beta), "--master-seed", str(master_seed),
                         "--out-dir", str(out)]) == 0
        return out

    return run


def test_two_master_seeds_of_one_config_are_not_flagged(simulate, capsys):
    assert run_gate.main([str(simulate(0.5, 1)), str(simulate(0.5, 2))]) == 0
    rows = run_gate.compare(simulate(0.5, 1), simulate(0.5, 2))
    assert [name for name, *_ in rows] == list(run_gate.QUANTITIES) and len(rows) == 65
    assert not any(flag for *_, flag in rows)
    assert capsys.readouterr().out.splitlines()[-1].endswith("; 0 flagged")


def test_halving_beta_is_flagged(simulate):
    rows = run_gate.compare(simulate(0.5, 1), simulate(0.25, 1))
    name, old, new, z, flag = rows[0]
    assert name == "infections" and flag and z < 0 and new < old
    with pytest.raises(ValueError, match="at least 2 runs"):
        run_gate.runs(simulate(0.5, 1).parent)
