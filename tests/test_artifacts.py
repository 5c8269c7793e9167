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
    "analysis/chord.json": "41654c322b34daa098c9938b9edbe13fc8d6473d9bbe4587f0bfbac132c92529",
    "analysis/components.json": "2262b1c2c850a7e5dd31d40ffaf4550325377eaa9e94e721b046fbf8e12a4d15",
    "analysis/degree_distribution.csv": "7873f6111f739ffb053c1956a9447a972ed7375dd3f1954005c1f5af15c8ede0",
    "analysis/flow_matrix.csv": "bbccb14150b8246eb82b5ca697838e0d0397bc070bcff84d52ebd2258b446db6",
    "analysis/group_summary.csv": "df1fecb4d92b40bd09003232eb15dda56760df5ffba8168f32dbcdb30c836e5e",
    "assignments.csv": "40b8d796cae679adf3baa4b15ca6d5cc602f55de4564ea3f14b30b02239ed07d",
    "filtered.csv": "92dc40519c301bc8e5c53ff2bd2e6b1069f44e4f968ff8d240d7a24edb0323e5",
    "freq.csv": "21b9c0eb37ae60e1ebf81f1a807480f466a0d21b2b29009305d654f414a33573",
    "mobility.csv": "983c1bccbd130abab6ea2560f43e7629489f455c766963fcf9a2f1b6c930ccf0",
    "population.csv": "4b551ad3a349f3d9fb235bf56eda45d30ed0695ef8c6319bfaa96560cc8c4c8a",
    "report.json": "08a017db0543c0a578e7d03fe8bedd86c5e00aedb475df408c79138efc5fe3ed",
    "sim/assignments.csv": "40b8d796cae679adf3baa4b15ca6d5cc602f55de4564ea3f14b30b02239ed07d",
    "sim/chord.json": "41654c322b34daa098c9938b9edbe13fc8d6473d9bbe4587f0bfbac132c92529",
    "sim/flow_matrix.csv": "bbccb14150b8246eb82b5ca697838e0d0397bc070bcff84d52ebd2258b446db6",
    "sim/group_summary.csv": "df1fecb4d92b40bd09003232eb15dda56760df5ffba8168f32dbcdb30c836e5e",
    "sim/infections_run000.csv": "83c309b5b5a891a7ab0eda4289aec7811c2f473d9d04a94c5d26ab9a2e0bb81d",
    "sim/infections_run001.csv": "329a05cfa2f7da40030eca15efaf8bc320d40a25a9ae9a81ae22cff3fada5d51",
    "sim/infections_run002.csv": "d7b3a195449509ad73c15825a9210be45e0f75e6242ab8096ec00335045563f1",
    "sim/summary.json": "088f7d771ba1bb83aa7c9ccd6619c8b663c350e4cbc636bbc097f4e33a2b65b3",
    "summary.json": "723a59d770d0e039fb5acc5fe6bc1a90806e4c42ba2430c6bef37c30d769032c",
    "sweep/assignments.csv": "40b8d796cae679adf3baa4b15ca6d5cc602f55de4564ea3f14b30b02239ed07d",
    "sweep/classification.json": "723a59d770d0e039fb5acc5fe6bc1a90806e4c42ba2430c6bef37c30d769032c",
    "sweep/diff_beta0.5_vs_beta0.25_dt0m.csv": "1ebc14aaccc1df1d252aa2de0b885ffa0dc21aa60d74f714dbaa5abd455d38d3",
    "sweep/diff_beta0.5_vs_beta0.25_dt15m.csv": "1e2e4287af2b35f4600901022bed38c71dafadb3a411af5012f5def57e9656d9",
    "sweep/diff_dt15m_vs_dt0m_beta0.25.csv": "6d9febccf4cf2a4b165cb58472f7b38e6bf772e7aced5bc58f94439cf49d1f6f",
    "sweep/diff_dt15m_vs_dt0m_beta0.5.csv": "a7e798a4d70c77e4651d838158f6148cca11808252bb51098cbe19c3a2fdb335",
    "sweep/flow_beta0.25_dt0m.csv": "9ab63136b6cad52df6ae0b95b748fe17b431c20370377608a805969a14e730f7",
    "sweep/flow_beta0.25_dt15m.csv": "b4c245217ebbb41735df01fe556aab58c9696936f2ca3e8904baef7b8ee0a441",
    "sweep/flow_beta0.5_dt0m.csv": "4aefd58edf466f288bcf9b1b950b6277c5aadbd389cc812838f40d26a77367b7",
    "sweep/flow_beta0.5_dt15m.csv": "bbccb14150b8246eb82b5ca697838e0d0397bc070bcff84d52ebd2258b446db6",
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
     "69df3c8539b26aa1b327cf93a61a45318996c3c9c1790d28e2d5ac82316fb7a4"),
    # the 60-minute log narrowed to 15 min keeps indirect rows, and to 0 keeps none
    ("0,15,60", ("flow_*.csv", "diff_*.csv"),
     "eccf015ed84cd3e15c5b3696a4e9beb4938929de63351776add0c991c6454ebc"),
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
    ) == "9c0febd8c1b3fcc950cae50275d6d8ee7c26cc0ce0026d12a501bdb6862642a2"


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
