"""Show that the benchmark's output checks reject damaged outputs.

    python3 perfbench/bite.py

Runs each workload once on its tiny input (a few seconds), checks that the
untouched outputs pass, then damages a copy of one artifact at a time and
requires the workload's check to reject it with the expected message.
Exits 1 if any damaged copy passes or is rejected for another reason.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import checks
import run

SEED = 1


def edit_csv(path, edit) -> None:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def edit_json(path, edit) -> None:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    edit(data)
    Path(path).write_text(json.dumps(data), encoding="utf-8")


def swap_labels(path, differing_part: int) -> None:
    """Swap the groups of two cards whose groups differ only in one part, keeping group sizes."""
    def edit(rows):
        by_group = {}
        for i, (_, group) in enumerate(rows[1:], start=1):
            by_group.setdefault(group, i)
        for group, i in sorted(by_group.items()):
            parts = group.split("_")
            parts[differing_part] = {"exp": "ret", "ret": "exp", "high": "low", "low": "high",
                                     "long": "short", "short": "long"}[parts[differing_part]]
            j = by_group.get("_".join(parts))
            if j is not None:
                rows[i][1], rows[j][1] = rows[j][1], rows[i][1]
                return
        raise SystemExit(f"no two groups differ only in part {differing_part}")
    edit_csv(path, edit)


def median_row(rows, column):
    data = sorted(rows[1:], key=lambda r: float(r[column]))
    return data[len(data) // 2]


def bump_count(row, column) -> None:
    row[column] = str(int(row[column]) + 1)


def first_event(rows, kind):
    return next(r for r in rows[1:] if r[4] == kind)


def bump(row, column, by) -> None:
    row[column] = repr(float(row[column]) + by)


CLASSIFY = [
    ("assignments: a card dropped", "missing cards",
     lambda d: edit_csv(d / "assignments.csv", lambda rows: rows.pop(1))),
    ("assignments: exploration labels of two cards swapped", "rule says",
     lambda d: swap_labels(d / "assignments.csv", 0)),
    ("assignments: connectivity labels of two cards swapped", "connectivity:",
     lambda d: swap_labels(d / "assignments.csv", 1)),
    ("assignments: distance labels of two cards swapped", "distance:",
     lambda d: swap_labels(d / "assignments.csv", 2)),
    ("classification.json: population off by one", "population",
     lambda d: edit_json(d / "classification.json", lambda j: j.update(population=j["population"] + 1))),
    ("mobility.csv: rg of a sampled card 1 m too large", "direct summation",
     lambda d: edit_csv(d / "mobility.csv", lambda rows: bump(rows[1], 1, 1.0))),
    ("mobility.csv: one card's encounters plus one", "encounters sum",
     lambda d: edit_csv(d / "mobility.csv", lambda rows: bump_count(median_row(rows, 4), 4))),
]


def _flows(d):
    return sorted(d.glob("flow_*.csv"))


SWEEP = [
    ("manifest: a listed flow matrix removed", "missing", lambda d: _flows(d)[0].unlink()),
    ("flow matrix: an entry made negative", "negative flow",
     lambda d: edit_csv(_flows(d)[-1], lambda rows: rows[1].__setitem__(1, "-0.000000001"))),
    ("difference matrix: an entry off by 1e-6", "off from variant",
     lambda d: edit_csv(sorted(d.glob("diff_*.csv"))[0], lambda rows: bump(rows[3], 4, 1e-6))),
    ("assignments: a card dropped", "missing cards",
     lambda d: edit_csv(d / "assignments.csv", lambda rows: rows.pop(-1))),
    ("manifest: runs differ from the command line", "runs, seeds or master seed",
     lambda d: edit_json(d / "manifest.json", lambda j: j["parameters"].update(n_runs=j["parameters"]["n_runs"] + 1))),
]


def _log(d):
    return d / "sim" / "infections_run000.csv"


def _other_vehicle(rows):
    row = first_event(rows, "direct")
    row[3] = next(r[3] for r in rows[1:] if r[3] != row[3])


SIMULATE = [
    ("infection log: a row dropped", "summary.json says", lambda d: edit_csv(_log(d), lambda rows: rows.pop(-1))),
    ("infection log: an infectee infected twice", "infected twice",
     lambda d: edit_csv(_log(d), lambda rows: rows[2].__setitem__(1, rows[1][1]))),
    ("infection log: a direct event moved half a second earlier", "",
     lambda d: edit_csv(_log(d), lambda rows: bump(first_event(rows, "direct"), 2, -0.5))),
    ("infection log: an indirect event moved one second later", "",
     lambda d: edit_csv(_log(d), lambda rows: bump(first_event(rows, "indirect"), 2, 1.0))),
    ("infection log: an event put on another vehicle", "not on board",
     lambda d: edit_csv(_log(d), _other_vehicle)),
    ("summary.json: mean infections changed", "mean_infections",
     lambda d: edit_json(d / "sim" / "summary.json", lambda j: j["ensemble"].update(
         mean_infections=j["ensemble"]["mean_infections"] + 0.5))),
    ("simulate assignments: a card dropped", "missing cards",
     lambda d: edit_csv(d / "sim" / "assignments.csv", lambda rows: rows.pop(1))),
    ("analysis flow matrix: an entry changed", "differs from simulate's",
     lambda d: edit_csv(d / "analysis" / "flow_matrix.csv", lambda rows: bump(rows[2], 2, 1e-3))),
    ("group summary: total transmitted changed", "total transmitted",
     lambda d: edit_csv(d / "analysis" / "group_summary.csv", lambda rows: bump(rows[1], 3, 1.0))),
    ("components: two components merged", "union-find",
     lambda d: edit_json(d / "analysis" / "components.json", lambda j: j.update(
         component_sizes=[j["component_sizes"][0] + j["component_sizes"][1]] + j["component_sizes"][2:]))),
    ("degree distribution: one degree plus one", "degree sum",
     lambda d: edit_csv(d / "analysis" / "degree_distribution.csv",
                        lambda rows: bump_count(rows[-1], 0))),
]

CORRUPTIONS = {"classify-city": CLASSIFY, "sweep-grid": SWEEP, "simulate-analyze": SIMULATE}


def expect_rejection(name, fragment, check) -> bool:
    try:
        check()
    except checks.CheckFailed as exc:
        ok = fragment in str(exc)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: rejected: {exc}")
        return ok
    print(f"FAIL {name}: accepted")
    return False


def main() -> int:
    good = True
    for workload in run.WORKLOADS.values():
        steps, error = run.run(workload, SEED, 0, trace=False, tiny=True)
        if error is not None:
            print(f"FAIL {workload.name}: tiny run failed: {error}")
            good = False
            continue
        p = run.params(workload, SEED, tiny=True)
        work = run.WORK / workload.name
        out, copy = work / "out", work / "damaged"
        facts = checks.TripFacts(work / "trips.csv")
        workload.check(out, facts, p)
        print(f"ok   {workload.name}: untouched outputs pass")
        for name, fragment, damage in CORRUPTIONS[workload.name]:
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(out, copy)
            damage(copy)
            good &= expect_rejection(f"{workload.name}: {name}", fragment,
                                     lambda: workload.check(copy, facts, p))
        good &= expect_rejection(f"{workload.name}: a second invocation differs in one file", "byte-identical",
                                 lambda: checks.check_same_artifacts(checks.digest_dir(out),
                                                                     checks.digest_dir(copy), workload.name))
        shutil.rmtree(copy)
        report = work / "ingest_report.json"
        edit_json(report, lambda j: j.update(accepted=j["accepted"] - 1, rejected_by_reason={"bad timestamp": 1}))
        good &= expect_rejection(f"{workload.name}: ingest report with a rejected row", "rejected",
                                 lambda: checks.check_setup(report, facts))
    print("all damaged outputs rejected" if good else "some damaged outputs were not rejected")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
