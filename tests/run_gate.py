"""Run-level statistics of two `simulate` output directories, compared run against run.

Usage: python tests/run_gate.py OLD_DIR NEW_DIR

Each directory is the `--out-dir` of one `simulate` of one config on one
dataset: its `assignments.csv` and one `infections_runNNN.csv` per run.
The two sides must hold the same assignments.  Per run the gate takes the
number of infections and the 8 x 8 infector-group by infectee-group event
counts (`flows.count_events` on that run alone).  Each quantity's two sets
of runs are compared with Welch's statistic, and a quantity is flagged when
|z| exceeds the Bonferroni cut at family-wise alpha = 0.01 over the 65
quantities; `welch` and the cut are `month_gate`'s.  The report is a
plain-text table, and the exit status is 1 when anything is flagged.

A redraw of the simulation that keeps every law of its draws should flag
nothing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from statistics import fmean

import numpy as np

from month_gate import ALPHA, bonferroni_cut, welch
from transitepi.classify import GROUP_NAMES, read_assignments_csv
from transitepi.flows import count_events
from transitepi.sim import read_infection_csv

QUANTITIES = ("infections",) + tuple(f"{a} -> {b}" for a in GROUP_NAMES for b in GROUP_NAMES)


def runs(directory: Path) -> tuple:
    """The assignments of one directory and one row of QUANTITIES per run, in run order."""
    paths = sorted(directory.glob("infections_run*.csv"))
    if len(paths) < 2:
        raise ValueError(f"{directory}: Welch's statistic needs at least 2 runs, found {len(paths)}")
    assignments = read_assignments_csv(directory / "assignments.csv")
    rows = []
    for path in paths:
        outcome = read_infection_csv(path)
        rows.append([outcome.infectee.size, *count_events([outcome], assignments).pairs.ravel().tolist()])
    return assignments, np.array(rows, np.float64)


def compare(old_dir: Path, new_dir: Path) -> list:
    """(quantity, old mean, new mean, z, flagged) for each of QUANTITIES."""
    (old_groups, old), (new_groups, new) = runs(Path(old_dir)), runs(Path(new_dir))
    if old_groups.cards != new_groups.cards or not np.array_equal(old_groups.group, new_groups.group):
        raise ValueError(f"{old_dir} and {new_dir} hold different assignments")
    cut = bonferroni_cut(len(QUANTITIES))
    out = []
    for name, x, y in zip(QUANTITIES, old.T.tolist(), new.T.tolist()):
        z, _ = welch(x, y)
        out.append((name, fmean(x), fmean(y), z, abs(z) > cut))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_dir")
    parser.add_argument("new_dir")
    args = parser.parse_args(argv)
    rows = compare(Path(args.old_dir), Path(args.new_dir))
    print(f"flag |z| > {bonferroni_cut(len(QUANTITIES)):.3f} (alpha {ALPHA} over {len(QUANTITIES)} quantities)")
    print(f"{'quantity':40s} {'old mean':>10s} {'new mean':>10s} {'z':>7s}")
    for name, x, y, z, flag in rows:
        print(f"{name:40s} {x:10.3f} {y:10.3f} {z:7.2f}{'  FLAG' if flag else ''}")
    flags = sum(flag for *_, flag in rows)
    print(f"max |z| {max(abs(z) for *_, z, _ in rows):.2f}; {flags} flagged")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
