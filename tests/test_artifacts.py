"""The bytes of every artifact the commands write, pinned across commits.

One small month goes through `ingest`, `classify`, `simulate`, a 2x2
`sweep` and `analyze`, and each file they write must hash as pinned.  A
refactor of a writer or reader that moves one byte fails here.  A change
that moves a byte on purpose names the file and its new digest.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from transitepi.cli import main

SPEC = ["--input", "trips.csv", "--min-trips", "10"]
RUNS = ["--seeds", "5", "--runs", "3"]

DIGESTS = {
    "analysis/chord.json": "8f6949bc7e777aceb78ef154caced08b4d5a3aa5849110b5d0bae78b5da47fe6",
    "analysis/components.json": "dabee4968b6fc0d5df221d6004fed0d406bc6aadea40a8c209ba4c7000689f4f",
    "analysis/degree_distribution.csv": "a541364e8f391f4162ae88bdfd514349a1c286a656427a032ba745aa454467d1",
    "analysis/flow_matrix.csv": "0d0262a525008ead675c90a434909254cb7e81be8736a7ed2e1a7b4ec5ecc4b9",
    "analysis/group_summary.csv": "d7493b6d000d998be187b81a5d8dd86bce2b641e1b7a85294157ce729fcedfe7",
    "assignments.csv": "e424ee3429cde981b921886a5b3f69d036976375672703bfb0b2480f76a8f4b4",
    "filtered.csv": "f864969034c35d385775dd53c547ac2e130713aba8ecd36dc32da9bce0be4296",
    "freq.csv": "422367eb0dc0e827cd5b3e566af8efe37465ec1f388c45bd25b5c1e6bd2d0d40",
    "mobility.csv": "29eb05e3de1e77d58cd4fccc58b31e76b9352506852378e251da9abffe701063",
    "population.csv": "da63f78255aa0b312c4c40dd599e068e3d035f511215825db2f0b1633ff77376",
    "report.json": "93ce6055fdd4e5be8b2171c49d40d12bbe238bdc555211abc4c710bf6d1644d8",
    "sim/assignments.csv": "e424ee3429cde981b921886a5b3f69d036976375672703bfb0b2480f76a8f4b4",
    "sim/chord.json": "8f6949bc7e777aceb78ef154caced08b4d5a3aa5849110b5d0bae78b5da47fe6",
    "sim/flow_matrix.csv": "0d0262a525008ead675c90a434909254cb7e81be8736a7ed2e1a7b4ec5ecc4b9",
    "sim/group_summary.csv": "d7493b6d000d998be187b81a5d8dd86bce2b641e1b7a85294157ce729fcedfe7",
    "sim/infections_run000.csv": "783c5e22eea9df2359bc6ad5d49c2d9b458c69bce8e3833c26e427c387c8fc1e",
    "sim/infections_run001.csv": "cd8dd05cac5c4beabb620997d383721bdbf951cb39e56ebc06c5db96c122984e",
    "sim/infections_run002.csv": "e02facd145823b20b2a487a5428ec4128482d496891844e4da3c5c2d88768d42",
    "sim/summary.json": "4f0bbd64d5eb4911b6acf1c66debbc86a7b978262d58eb6d8948f11fd81a56cb",
    "summary.json": "532bd9b8dbe58490e005471321936d269172b166116dbaa38ebecc6f35781071",
    "sweep/assignments.csv": "e424ee3429cde981b921886a5b3f69d036976375672703bfb0b2480f76a8f4b4",
    "sweep/classification.json": "532bd9b8dbe58490e005471321936d269172b166116dbaa38ebecc6f35781071",
    "sweep/diff_beta0.5_vs_beta0.25_dt0m.csv": "658c900f53c56de1168bedc6a05b5c6c3097f0dcf96dbc6bd95eb02ef6bc6c24",
    "sweep/diff_beta0.5_vs_beta0.25_dt15m.csv": "86b7c5737c6edb17655642dc94217bd63a5ed7d4482f66e78c2319915d8085f8",
    "sweep/diff_dt15m_vs_dt0m_beta0.25.csv": "d8218e8368795ae50ccfdef483147844f8a8a1ed2cac5576ce0a31b6473a56c0",
    "sweep/diff_dt15m_vs_dt0m_beta0.5.csv": "79a3e2398abfa7a9aac8b80bb12daf467bfdc0182544bf5f0a46fe57861bc116",
    "sweep/flow_beta0.25_dt0m.csv": "978d23095976dc7e4eafcf249bd53c3f2ca9e76698402d0c06b560eff09f4246",
    "sweep/flow_beta0.25_dt15m.csv": "6fa4d5ff22088246cfccb84ba21cec37b803144d879e2f5e520c7514a4eaf4eb",
    "sweep/flow_beta0.5_dt0m.csv": "78dfefb0066f88efa55030cbe0912bd9ca6bafaa9a1a392e4b15614e9f5d00d7",
    "sweep/flow_beta0.5_dt15m.csv": "0d0262a525008ead675c90a434909254cb7e81be8736a7ed2e1a7b4ec5ecc4b9",
    "sweep/manifest.json": "3dd3528a06d8895bc2adff3a022d739431bb25393935b8277b0d99440c20fb6e",
    "trips.csv": "f864969034c35d385775dd53c547ac2e130713aba8ecd36dc32da9bce0be4296",
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
