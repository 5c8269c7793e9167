"""The bytes of every artifact the commands write, pinned across commits.

One small month goes through `ingest`, `classify`, `simulate`, a 2x2
`sweep` and `analyze`, and each file they write must hash as pinned.  A
refactor of a writer or reader that moves one byte fails here.  A change
that moves a byte on purpose names the file and its new digest.

The benchmark's months are pinned through the engine as well: their sweeps,
their simulate-analyze point and the 10,000-passenger month's exposure logs,
where a change that moves one infection of one lane, or one row of a log,
moves a digest.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from transitepi.cli import main
from transitepi.contacts import build_exposure_log
from transitepi.ingest import filter_by_min_trips, parse_trip_records

SPEC = ["--input", "trips.csv", "--min-trips", "10"]
RUNS = ["--seeds", "5", "--runs", "3"]

DIGESTS = {
    "analysis/chord.json": "4cedbcfc5d021ae4d4e4e82f4d1f0137999a6712619864cd13b18e8084c86a30",
    "analysis/components.json": "2262b1c2c850a7e5dd31d40ffaf4550325377eaa9e94e721b046fbf8e12a4d15",
    "analysis/degree_distribution.csv": "7873f6111f739ffb053c1956a9447a972ed7375dd3f1954005c1f5af15c8ede0",
    "analysis/flow_matrix.csv": "399eb2e2e41c9a869a5cfce0b63285e03c0dfff896a03af79ca5fc2b5f58d6e8",
    "analysis/group_summary.csv": "3cac6bfeb52d8b3096f4d3103c0eb5e92f5dbb005fe42b2bb8f298e7ef832d4c",
    "assignments.csv": "40b8d796cae679adf3baa4b15ca6d5cc602f55de4564ea3f14b30b02239ed07d",
    "filtered.csv": "92dc40519c301bc8e5c53ff2bd2e6b1069f44e4f968ff8d240d7a24edb0323e5",
    "freq.csv": "21b9c0eb37ae60e1ebf81f1a807480f466a0d21b2b29009305d654f414a33573",
    "mobility.csv": "983c1bccbd130abab6ea2560f43e7629489f455c766963fcf9a2f1b6c930ccf0",
    "population.csv": "4b551ad3a349f3d9fb235bf56eda45d30ed0695ef8c6319bfaa96560cc8c4c8a",
    "report.json": "08a017db0543c0a578e7d03fe8bedd86c5e00aedb475df408c79138efc5fe3ed",
    "sim/assignments.csv": "40b8d796cae679adf3baa4b15ca6d5cc602f55de4564ea3f14b30b02239ed07d",
    "sim/chord.json": "4cedbcfc5d021ae4d4e4e82f4d1f0137999a6712619864cd13b18e8084c86a30",
    "sim/flow_matrix.csv": "399eb2e2e41c9a869a5cfce0b63285e03c0dfff896a03af79ca5fc2b5f58d6e8",
    "sim/group_summary.csv": "3cac6bfeb52d8b3096f4d3103c0eb5e92f5dbb005fe42b2bb8f298e7ef832d4c",
    "sim/infections_run000.csv": "66618792438e1996b29ecc3d876cf300bcd83af836363f10ab7a9a052fb298fa",
    "sim/infections_run001.csv": "eaf0aac288c49ccd71c469fbc1e9b1fcf2913ef73e9e49a15add2bf8ddec73f0",
    "sim/infections_run002.csv": "30a89447b415cd45b846a9842b74888cb8082236e6c94c6b99a7c0b643360c3f",
    "sim/summary.json": "fa10a9d62f9707f8edd2997014a628fd58e33d6b0427b93fa0c103d76cbe2e79",
    "summary.json": "723a59d770d0e039fb5acc5fe6bc1a90806e4c42ba2430c6bef37c30d769032c",
    "sweep/assignments.csv": "40b8d796cae679adf3baa4b15ca6d5cc602f55de4564ea3f14b30b02239ed07d",
    "sweep/classification.json": "723a59d770d0e039fb5acc5fe6bc1a90806e4c42ba2430c6bef37c30d769032c",
    "sweep/diff_beta0.5_vs_beta0.25_dt0m.csv": "35bd21c41456f245776c893a32617e17f3e471fee680d00cf81dd922ddd754a5",
    "sweep/diff_beta0.5_vs_beta0.25_dt15m.csv": "627020ea37d592ad4a70ff9363cd642e8b63e9d726a42f3c469fba66a052e6ba",
    "sweep/diff_dt15m_vs_dt0m_beta0.25.csv": "86bd82285fcda8ccffa0794692b60dd7076745048e994ae632b72e2e92edc658",
    "sweep/diff_dt15m_vs_dt0m_beta0.5.csv": "beef1cda99b21faa2eda5253aad39af45abd9f69ccb0377d386e8143cbdac7d9",
    "sweep/flow_beta0.25_dt0m.csv": "9abf56ceb007e4fb32c91a80b9ddfccd5aa42e0d7f3eaac1941391dafbc9af26",
    "sweep/flow_beta0.25_dt15m.csv": "b21c01e574ebf584a001cb522165cb88b193161ca511dd46b1fd675ac9193788",
    "sweep/flow_beta0.5_dt0m.csv": "d116afcd05aa5d22b2497653f352c60b6110c1a3d0dbcefde2fbf1687145c3be",
    "sweep/flow_beta0.5_dt15m.csv": "399eb2e2e41c9a869a5cfce0b63285e03c0dfff896a03af79ca5fc2b5f58d6e8",
    "sweep/manifest.json": "3dd3528a06d8895bc2adff3a022d739431bb25393935b8277b0d99440c20fb6e",
    "trips.csv": "92dc40519c301bc8e5c53ff2bd2e6b1069f44e4f968ff8d240d7a24edb0323e5",
}

# The distance centroids of a classification summary come from radii taken
# through numpy's arcsin, whose last bit depends on the SIMD kernel numpy picks
# for the CPU (an AVX-512 kernel and the C library differ on this month).  Those
# two files are hashed with each centroid cut to 12 significant digits, after a
# check that their layout is exactly the writer's.
ROUNDED = {"summary.json", "sweep/classification.json"}


def _digest(name: str, data: bytes) -> str:
    if name in ROUNDED:
        summary = json.loads(data)
        assert data == (json.dumps(summary, sort_keys=True, indent=2) + "\n").encode(), name
        summary["centroids"] = {axis: [float(f"{c:.12g}") for c in pair] for axis, pair in summary["centroids"].items()}
        data = json.dumps(summary, sort_keys=True, indent=2).encode()
    return hashlib.sha256(data).hexdigest()


def _digests(root: Path) -> dict:
    """The digest of every file under `root` by relative path; hidden files (the trip-parse sidecars) left out."""
    names = (path.relative_to(root).as_posix() for path in sorted(root.rglob("*")) if path.is_file())
    return {name: _digest(name, (root / name).read_bytes()) for name in names if not Path(name).name.startswith(".")}


def test_every_artifact_keeps_its_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the sweep manifest records the dataset path as given
    commands = [
        ["generate", "--out", "trips.csv", "--passengers", "300", "--routes", "8", "--stops-per-route", "12",
         "--days", "14", "--seed", "3"],
        ["ingest", "--input", "trips.csv", "--min-trips", "10", "--out", "filtered.csv", "--report", "report.json",
         "--freq-csv", "freq.csv", "--population-csv", "population.csv"],
        ["classify", *SPEC, "--out-assignments", "assignments.csv", "--out-summary", "summary.json",
         "--out-mobility", "mobility.csv"],
        ["simulate", *SPEC, *RUNS, "--beta", "0.5", "--dt-minutes", "15", "--out-dir", "sim"],
        ["sweep", *SPEC, *RUNS, "--beta-grid", "0.25,0.5", "--dt-grid-minutes", "0,15", "--out-dir", "sweep"],
        ["analyze", *SPEC, "--assignments", "sim/assignments.csv", "--events-dir", "sim", "--out-dir", "analysis"],
    ]
    for argv in commands:
        assert main(argv) == 0, argv[0]
    assert _digests(tmp_path) == DIGESTS


# the benchmark's simulation settings; runs differ between its workloads
BENCH = ["--seeds", "100", "--min-trips", "15", "--infectious-days", "5", "--master-seed", "7"]


def _joined_digest(root: Path, *patterns: str) -> str:
    """One sha256 over the files that match each pattern in turn, each pattern's files in name order."""
    digest = hashlib.sha256()
    for pattern in patterns:
        for path in sorted(root.glob(pattern)):
            digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def sweep_grid_month(tmp_path_factory) -> Path:
    """The benchmark's sweep-grid month: 2,000 passengers, seed 1, at `generate`'s other defaults."""
    trips = tmp_path_factory.mktemp("sweep-grid") / "trips.csv"
    assert main(["generate", "--out", str(trips), "--passengers", "2000", "--seed", "1"]) == 0
    return trips


# manifest.json (which names the input path) and classification.json (whose
# centroids depend on the CPU's arcsin) are left out
@pytest.mark.parametrize("dt_grid, patterns, digest", [
    ("0,60", ("flow_*.csv", "diff_*.csv", "assignments.csv"),
     "884b4cd5f9b58be42c6749faa724aee1966e82ca6a0b71507103b8d9e08b8944"),
    # the 60-minute log narrowed to 15 min keeps indirect rows, and to 0 keeps none
    ("0,15,60", ("flow_*.csv", "diff_*.csv"),
     "f57a2892d80c32466a0bfea900658956f92a6ec97abb6f561acfa36e55c60280"),
], ids=["dt-0-60", "dt-0-15-60"])
def test_sweep_grid_sweep_keeps_its_digest(tmp_path, sweep_grid_month, dt_grid, patterns, digest):
    assert main(["sweep", "--input", str(sweep_grid_month), *BENCH, "--runs", "10", "--beta-grid", "0.1,0.25,1",
                 "--dt-grid-minutes", dt_grid, "--out-dir", str(tmp_path)]) == 0
    assert _joined_digest(tmp_path, *patterns) == digest


def test_simulate_analyze_point_keeps_its_digest(tmp_path, sweep_grid_month):
    # the sweeps pin group counts only, this every infection's time, which the engine decodes from its clock
    assert main(["simulate", "--input", str(sweep_grid_month), *BENCH, "--runs", "20", "--beta", "1",
                 "--dt-minutes", "60", "--out-dir", str(tmp_path / "sim")]) == 0
    assert main(["analyze", "--input", str(sweep_grid_month), "--min-trips", "15",
                 "--assignments", str(tmp_path / "sim" / "assignments.csv"), "--events-dir", str(tmp_path / "sim"),
                 "--out-dir", str(tmp_path / "analysis")]) == 0
    assert _joined_digest(
        tmp_path, "sim/infections_run*.csv", "sim/summary.json", "sim/flow_matrix.csv", "sim/group_summary.csv",
        "analysis/*.csv", "analysis/*.json",
    ) == "9bf84a189e8c915f592668ce6328a6e909b6c5b2b01252c085296ba06c0491d9"


def test_ten_thousand_passenger_exposure_logs_keep_their_digest(tmp_path):
    # the logs at d_t = 0 and 120 min, filtered at 15 trips as the benchmark filters
    assert main(["generate", "--out", str(tmp_path / "trips.csv"), "--passengers", "10000", "--seed", "1"]) == 0
    trips = filter_by_min_trips(parse_trip_records(tmp_path / "trips.csv")[0], 15)
    digest = hashlib.sha256()
    for d_t in (0.0, 7200.0):
        log = build_exposure_log(trips, d_t)
        for column in (log.src_ride, log.tgt_ride, log.direct):
            digest.update(column.tobytes())
        del log  # released before the wider log is built
    assert digest.hexdigest() == "ce28e8ac1ae947ea8dc309efb523639f496d8efbbad8f43585ab66dbbb6d6018"
