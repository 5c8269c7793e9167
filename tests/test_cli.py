from __future__ import annotations

import csv
import json
import random
import shutil
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import read_group_matrix
from transitepi import cli, ingest, sim
from transitepi.cli import main
from transitepi.contacts import build_exposure_log
from transitepi.ingest import parse_trip_records

SYNTH = {
    "n_passengers": 260,
    "n_routes": 8,
    "stops_per_route": 12,
    "days": 14,
    "rng_seed": 3,
    "city_extent_km": 30.0,
}


@pytest.fixture()
def synth_config(tmp_path) -> str:
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(SYNTH))
    return str(path)


@pytest.fixture()
def trips_csv(tmp_path, synth_config) -> str:
    out = tmp_path / "trips.csv"
    assert main(["generate", "--out", str(out), "--synth-config", synth_config]) == 0
    return str(out)


class TestGenerate:
    def test_deterministic_output(self, tmp_path, synth_config):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["generate", "--out", str(a), "--synth-config", synth_config]) == 0
        assert main(["generate", "--out", str(b), "--synth-config", synth_config]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_minimal_flags(self, tmp_path):
        out = tmp_path / "t.csv"
        code = main([
            "generate", "--out", str(out), "--passengers", "40", "--routes", "3",
            "--stops-per-route", "6", "--days", "7", "--seed", "1",
        ])
        assert code == 0
        records, report = parse_trip_records(out)
        assert report.rejected == 0
        assert len(records.cards) == 40

    def test_round_trips_through_ingest(self, trips_csv):
        records, report = parse_trip_records(trips_csv)
        assert report.rejected == 0
        assert report.accepted == len(records) > 0

    def test_bad_mix_is_config_error(self, tmp_path):
        code = main([
            "generate", "--out", str(tmp_path / "t.csv"), "--passengers", "10",
            "--mix", "commuter=0.7",
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--mix", "commuter=1.5,roamer=-0.5"], ["--extent-km", "nan"], ["--extent-km", "inf"],
         ["--extent-km", "1e308"]],
        ids=["negative-fraction", "nan-extent", "inf-extent", "off-the-globe-extent"],
    )
    def test_bad_fraction_or_extent_is_config_error(self, tmp_path, caplog, flags):
        code = main([
            "generate", "--out", str(tmp_path / "t.csv"), "--passengers", "10", "--days", "3",
            "--min-trips-per-passenger", "1", *flags,
        ])
        assert code == 2
        assert "must be" in caplog.text
        assert not (tmp_path / "t.csv").exists()

    # a file's seed is checked on its own, before a flag overrides it
    @pytest.mark.parametrize("source", ["flag", "synth-config", "synth-config-and-flag"])
    def test_negative_seed_is_config_error(self, tmp_path, caplog, source):
        out = tmp_path / "t.csv"
        path = tmp_path / "synth.json"
        path.write_text(json.dumps({**SYNTH, "rng_seed": -1}))
        flags = {
            "flag": ["--passengers", "10", "--days", "3", "--min-trips-per-passenger", "1", "--seed", "-1"],
            "synth-config": ["--synth-config", str(path)],
            "synth-config-and-flag": ["--synth-config", str(path), "--seed", "3"],
        }[source]
        assert main(["generate", "--out", str(out), *flags]) == 2
        assert "rng_seed must be >= 0, got -1" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, named",
        [([SYNTH], "synth config must be a JSON object"), ({"n_passenger": 10}, "'n_passenger'")],
        ids=["not-an-object", "unknown-key"],
    )
    def test_malformed_synth_config_is_usage_error(self, tmp_path, caplog, content, named):
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(content))
        assert main(["generate", "--out", str(tmp_path / "trips.csv"), "--synth-config", str(path)]) == 1
        assert named in caplog.text


class TestIngest:
    def test_report_and_profiles(self, tmp_path, trips_csv):
        report = tmp_path / "report.json"
        freq = tmp_path / "freq.csv"
        pop = tmp_path / "pop.csv"
        filtered = tmp_path / "filtered.csv"
        code = main([
            "ingest", "--input", trips_csv, "--report", str(report),
            "--out", str(filtered), "--freq-csv", str(freq),
            "--population-csv", str(pop), "--population-thresholds", "1,5,15",
        ])
        assert code == 0
        data = json.loads(report.read_text())
        assert data["accepted"] == data["total_rows"]
        assert freq.read_text().startswith("trips_per_card,count")
        rows = [line.split(",") for line in pop.read_text().strip().splitlines()[1:]]
        pops = [int(r[1]) for r in rows]
        assert pops == sorted(pops, reverse=True)

    def test_out_reproduces_generated_file(self, tmp_path, trips_csv):
        out = tmp_path / "again.csv"
        assert main(["ingest", "--input", trips_csv, "--min-trips", "1", "--out", str(out)]) == 0
        assert out.read_bytes() == Path(trips_csv).read_bytes()

    @pytest.mark.parametrize("reverse", [False, True], ids=["file-order", "reversed"])
    def test_stop_with_two_coordinate_pairs_is_data_error(self, tmp_path, trips_csv, caplog, reverse):
        # without the check, each card took the pair it met first, so the
        # mobility table depended on the order of the rows
        header, *rows = Path(trips_csv).read_text().splitlines()
        cells = rows[0].split(",")
        stop = cells[4]
        cells[5] = f"{float(cells[5]) + 0.05:.6f}"
        rows[0] = ",".join(cells)
        if reverse:
            rows.reverse()
        path = tmp_path / "conflict.csv"
        path.write_text("\n".join([header] + rows) + "\n")
        code = main([
            "classify", "--input", str(path), "--out-assignments", str(tmp_path / "a.csv"),
            "--out-mobility", str(tmp_path / "m.csv"), "--min-trips", "10",
        ])
        assert code == 2
        assert repr(stop) in caplog.text

    def test_field_over_the_csv_size_limit_is_data_error(self, tmp_path, caplog):
        path = tmp_path / "big.csv"
        path.write_text(",".join(ingest.REQUIRED_COLUMNS) + "\n" + '"' + "c" * (csv.field_size_limit() + 1)
                        + '",v1,100,200,sA,-33.8,151.2,sB,-33.9,151.3\n')
        out = tmp_path / "out.csv"
        assert main(["ingest", "--input", str(path), "--min-trips", "1", "--out", str(out)]) == 2
        assert "field larger than field limit" in caplog.text
        assert not out.exists()

    def test_missing_input_is_data_error(self, tmp_path):
        assert main(["ingest", "--input", str(tmp_path / "nope.csv")]) == 2

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["ingest"])
        assert exc.value.code == 1


class TestClassify:
    def test_outputs_and_idempotence(self, tmp_path, trips_csv):
        a1 = tmp_path / "a1.csv"
        s1 = tmp_path / "s1.json"
        argv = ["classify", "--input", trips_csv, "--out-summary", str(s1), "--min-trips", "10"]
        assert main(argv + ["--out-assignments", str(a1)]) == 0
        a2 = tmp_path / "a2.csv"
        assert main(argv + ["--out-assignments", str(a2)]) == 0
        assert a1.read_bytes() == a2.read_bytes()
        summary = json.loads(s1.read_text())
        assert summary["population"] > 0
        assert abs(sum(summary["shares"].values()) - 1.0) < 1e-9

    def test_mobility_export(self, tmp_path, trips_csv):
        mob = tmp_path / "mob.csv"
        code = main([
            "classify", "--input", trips_csv, "--out-assignments", str(tmp_path / "a.csv"),
            "--out-mobility", str(mob), "--min-trips", "10",
        ])
        assert code == 0
        header = mob.read_text().splitlines()[0]
        assert header == "card_id,rg_m,rgk_m,k,encounters"

    def test_no_distance_model_to_choose(self, tmp_path, trips_csv, monkeypatch, caplog):
        # every command computes great-circle radii: neither a flag nor a spec key picks another model
        monkeypatch.setattr(cli, "parse_trip_records", mock.Mock(side_effect=AssertionError("trips read")))
        argv = ["classify", "--input", trips_csv, "--out-assignments", str(tmp_path / "p.csv")]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--distance-model", "planar"])
        assert exc.value.code == 1  # an unrecognized argument
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"distance_model": "planar"}))
        assert main(argv + ["--spec", str(spec)]) == 1
        assert "unknown spec key(s): 'distance_model'" in caplog.text
        assert not (tmp_path / "p.csv").exists()


class TestSimulate:
    def test_beta_zero_produces_no_infections(self, tmp_path, trips_csv):
        out_dir = tmp_path / "sim"
        code = main([
            "simulate", "--input", trips_csv, "--beta", "0", "--seeds", "5",
            "--runs", "2", "--min-trips", "10", "--out-dir", str(out_dir),
        ])
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["ensemble"]["per_run_infections"] == [0, 0]
        assert (out_dir / "infections_run000.csv").exists()
        assert (out_dir / "flow_matrix.csv").exists()

    def test_too_many_seeds_is_data_error(self, tmp_path, trips_csv):
        code = main([
            "simulate", "--input", trips_csv, "--beta", "1", "--seeds", "100000",
            "--runs", "1", "--min-trips", "10", "--out-dir", str(tmp_path / "x"),
        ])
        assert code == 2
        assert list((tmp_path / "x").iterdir()) == []  # a failed command moves nothing and leaves no staging

    def test_integer_in_spec_writes_like_the_flag(self, tmp_path, trips_csv):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"beta": 1, "infectious_days": 5}))
        argv = ["simulate", "--input", trips_csv, "--seeds", "2", "--runs", "1", "--min-trips", "10"]
        assert main(argv + ["--spec", str(spec), "--out-dir", str(tmp_path / "a")]) == 0
        assert main(argv + ["--beta", "1", "--infectious-days", "5", "--out-dir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "summary.json").read_bytes() == (tmp_path / "b" / "summary.json").read_bytes()

    def test_outdir_env_fallback(self, tmp_path, trips_csv, monkeypatch):
        out_dir = tmp_path / "via-env"
        monkeypatch.setenv("TRANSITEPI_OUTDIR", str(out_dir))
        code = main([
            "simulate", "--input", trips_csv, "--beta", "0", "--seeds", "2",
            "--runs", "1", "--min-trips", "10",
        ])
        assert code == 0
        assert (out_dir / "summary.json").exists()


class TestSweep:
    def test_single_point_no_differences(self, tmp_path, trips_csv):
        out_dir = tmp_path / "sweep1"
        code = main([
            "sweep", "--input", trips_csv, "--beta-grid", "1", "--dt-grid-minutes", "0",
            "--seeds", "5", "--runs", "2", "--min-trips", "10", "--out-dir", str(out_dir),
        ])
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["matrices"]) == 1
        assert manifest["differences"] == []
        assert not (out_dir / ".staging").exists()

    def test_dt_pair_yields_one_difference(self, tmp_path, trips_csv):
        out_dir = tmp_path / "sweep2"
        code = main([
            "sweep", "--input", trips_csv, "--beta-grid", "1", "--dt-grid-minutes", "0,15",
            "--seeds", "5", "--runs", "2", "--min-trips", "10", "--out-dir", str(out_dir),
        ])
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["matrices"]) == 2
        assert len(manifest["differences"]) == 1
        diff = manifest["differences"][0]
        assert diff["axis"] == "dt"
        assert diff["baseline_dt_minutes"] == 0 and diff["dt_minutes"] == 15
        assert (out_dir / diff["path"]).exists()

    def test_manifest_counts_grid_product(self, tmp_path, trips_csv):
        out_dir = tmp_path / "sweep3"
        code = main([
            "sweep", "--input", trips_csv, "--beta-grid", "0.5,1", "--dt-grid-minutes", "0,15,30",
            "--seeds", "5", "--runs", "2", "--min-trips", "10", "--out-dir", str(out_dir),
        ])
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["matrices"]) == 6
        # dt diffs: 2 betas x 2 non-baseline dts; beta diffs: 3 dts x 1 pair
        assert len(manifest["differences"]) == 7
        for entry in manifest["matrices"]:
            assert (out_dir / entry["path"]).exists()

    @pytest.mark.parametrize(
        "beta_grid, dt_grid",
        [("1,0.5", "0"), ("0.5,2", "0"), ("1", "-5,0"),
         # two values that file names would spell alike: one matrix would overwrite the other
         ("0.1000001,0.1000002", "0"), ("1", "1000000.1,1000000.2")],
        ids=["unsorted", "beta-above-one", "negative-dt", "betas-named-alike", "dts-named-alike"],
    )
    def test_unsorted_grid_is_usage_error(self, tmp_path, trips_csv, monkeypatch, beta_grid, dt_grid):
        # rejected before any trip is read or any artifact written
        monkeypatch.setattr(cli, "parse_trip_records", mock.Mock(side_effect=AssertionError("trips read")))
        code = main([
            "sweep", "--input", trips_csv, f"--beta-grid={beta_grid}", f"--dt-grid-minutes={dt_grid}",
            "--out-dir", str(tmp_path / "x"),
        ])
        assert code == 1
        assert not (tmp_path / "x").exists()

    def test_grid_values_named_alike_are_both_named(self):
        with pytest.raises(cli.UsageError, match=r"0\.1000001 and 0\.1000002 share the file name part '0\.1'"):
            cli.ExperimentSpec().validate_grids((0.1000001, 0.1000002), (0.0,))

    def test_byte_identical_reruns(self, tmp_path, trips_csv):
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for d in dirs:
            code = main([
                "sweep", "--input", trips_csv, "--beta-grid", "0.5,1",
                "--dt-grid-minutes", "0,15", "--seeds", "5", "--runs", "2",
                "--min-trips", "10", "--master-seed", "7", "--out-dir", str(d),
            ])
            assert code == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name

    def test_each_point_of_a_narrowed_log_writes_what_simulate_writes(self, tmp_path, trips_csv):
        # the sweep narrows one 60-minute log to 15 and 0 minutes, and the 15-minute log keeps indirect rows
        trips = ingest.filter_by_min_trips(parse_trip_records(trips_csv)[0], 10)
        assert not build_exposure_log(trips, 15 * 60.0).direct.all()
        flags = ["--input", trips_csv, "--seeds", "5", "--runs", "3", "--min-trips", "10", "--master-seed", "7"]
        sweep = tmp_path / "sweep"
        assert main(["sweep", *flags, "--beta-grid", "0.25,1", "--dt-grid-minutes", "0,15,60",
                     "--out-dir", str(sweep)]) == 0
        for beta in ("0.25", "1"):
            for dt in ("0", "15", "60"):
                point = tmp_path / f"sim_{beta}_{dt}"
                assert main(["simulate", *flags, "--beta", beta, "--dt-minutes", dt, "--out-dir", str(point)]) == 0
                flow = (sweep / f"flow_beta{beta}_dt{dt}m.csv").read_bytes()
                assert flow == (point / "flow_matrix.csv").read_bytes(), (beta, dt)

    # JSON integers in a grid are floats, as a flag's values are
    @pytest.mark.parametrize("beta, dt", [(1.0, 0.0), (1, 0)], ids=["float-grids", "integer-grids"])
    def test_spec_file_with_flag_override(self, tmp_path, trips_csv, beta, dt):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "dataset": trips_csv,
            "beta_grid": [beta],
            "dt_grid_minutes": [dt],
            "n_seeds": 5,
            "n_runs": 3,
            "min_trips": 10,
        }))
        out_dir = tmp_path / "spec-sweep"
        code = main(["sweep", "--spec", str(spec), "--runs", "1", "--out-dir", str(out_dir)])
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["parameters"]["n_runs"] == 1  # flag wins
        assert manifest["parameters"]["n_seeds"] == 5
        assert repr(manifest["parameters"]["beta_grid"]) == "[1.0]"
        assert repr(manifest["parameters"]["dt_grid_minutes"]) == "[0.0]"

    @pytest.mark.parametrize(
        "content, named",
        [
            ([{"n_runs": 1}], "spec must be a JSON object"),
            ({"n_run": 1}, "'n_run'"),
            ({"synth": {"n_passenger": 10}}, "'synth'"),  # only generate synthesizes
        ],
        ids=["not-an-object", "unknown-key", "unknown-synth-key"],
    )
    def test_malformed_spec_is_usage_error(self, tmp_path, trips_csv, caplog, content, named):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(content))
        code = main([
            "sweep", "--spec", str(spec), "--input", trips_csv,
            "--out-dir", str(tmp_path / "spec-sweep"),
        ])
        assert code == 1
        assert named in caplog.text


@pytest.mark.parametrize(
    "command, content, named",
    [
        ("generate", {"n_passengers": "10"}, "'n_passengers'"),
        ("sweep", {"n_runs": "5"}, "'n_runs'"),
        ("sweep", {"beta_grid": 0.5}, "'beta_grid'"),
    ],
    ids=["synth-string-count", "spec-string-runs", "spec-scalar-grid"],
)
def test_wrongly_typed_value_is_usage_error(tmp_path, trips_csv, caplog, command, content, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(content))
    if command == "generate":
        argv = ["generate", "--out", str(tmp_path / "t.csv"), "--synth-config", str(path)]
    else:
        argv = ["sweep", "--spec", str(path), "--input", trips_csv, "--out-dir", str(tmp_path / "s")]
    assert main(argv) == 1
    assert named in caplog.text


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize(
    "param, value",
    [
        ("beta", "2"), ("beta", "nan"),
        ("dt", "nan"), ("dt", "inf"), ("dt", "-5"),
        ("seeds", "0"), ("runs", "0"),
        ("infectious-days", "nan"), ("infectious-days", "inf"), ("infectious-days", "0"),
        ("master-seed", "-1"), ("master-seed", str(2**64)),
    ],
)
def test_invalid_simulation_parameter_is_usage_error_before_any_trip_is_read(
    tmp_path, trips_csv, monkeypatch, command, param, value
):
    monkeypatch.setattr(cli, "parse_trip_records", mock.Mock(side_effect=AssertionError("trips read")))
    flag = {
        ("simulate", "beta"): "--beta", ("simulate", "dt"): "--dt-minutes",
        ("sweep", "beta"): "--beta-grid", ("sweep", "dt"): "--dt-grid-minutes",
    }.get((command, param), f"--{param}")
    assert main([command, "--input", trips_csv, f"{flag}={value}", "--out-dir", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, module", [("simulate", sim), ("sweep", cli)])
def test_running_out_of_memory_is_data_error(tmp_path, trips_csv, monkeypatch, caplog, command, module):
    message = "Unable to allocate 59.4 GiB for an array with shape (7970000000,) and data type int64"
    monkeypatch.setattr(module, "build_exposure_log", mock.Mock(side_effect=MemoryError(message)))
    assert main([command, "--input", trips_csv, "--runs", "2", "--out-dir", str(tmp_path / "out")]) == 2
    assert message in caplog.text
    assert not list((tmp_path / "out").iterdir())  # nothing staged is kept


def _no_dataset_argv(command: str, out: Path) -> list:
    return [command] + {
        "classify": ["--out-assignments", str(out / "a.csv")],
        "analyze": ["--assignments", str(out / "a.csv"), "--events-dir", str(out), "--out-dir", str(out)],
    }.get(command, ["--out-dir", str(out)])


@pytest.mark.parametrize("command", ["classify", "simulate", "sweep", "analyze"])
def test_no_dataset_is_usage_error_before_any_output(tmp_path, caplog, command):
    out = tmp_path / "out"
    assert main(_no_dataset_argv(command, out)) == 1
    assert "no dataset" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command", ["classify", "simulate", "sweep", "analyze"])
def test_only_generate_synthesizes(tmp_path, synth_config, command):
    with pytest.raises(SystemExit) as exc:
        main(_no_dataset_argv(command, tmp_path / "out") + ["--synth-config", synth_config])
    assert exc.value.code == 1  # an unrecognized argument
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "analyze"])
def test_no_out_dir_is_usage_error_before_any_trip_is_read(tmp_path, monkeypatch, caplog, command):
    monkeypatch.delenv("TRANSITEPI_OUTDIR", raising=False)
    monkeypatch.setattr(cli, "parse_trip_records", mock.Mock(side_effect=AssertionError("trips read")))
    argv = [command, "--input", str(tmp_path / "trips.csv")]
    if command == "analyze":
        argv += ["--assignments", str(tmp_path / "a.csv"), "--events-dir", str(tmp_path)]
    assert main(argv) == 1
    assert f"{command} needs --out-dir (or TRANSITEPI_OUTDIR)" in caplog.text


@pytest.mark.parametrize(
    "command, flag",
    [
        ("classify", "--k=0"), ("classify", "--min-trips=0"),
        ("simulate", "--k=0"), ("simulate", "--min-trips=0"),
        ("sweep", "--k=0"), ("sweep", "--min-trips=-1"),
        ("analyze", "--k=0"), ("analyze", "--min-trips=0"),
        ("ingest", "--min-trips=0"), ("ingest", "--min-trips=-1"),
        ("ingest", "--delimiter=;;"), ("ingest", "--delimiter="), ("ingest", '--delimiter="'),
        ("ingest", "--delimiter=\r"), ("ingest", "--delimiter=\n"),
        ("ingest", "--population-thresholds=5,2"), ("ingest", "--population-thresholds=2,2"),
        ("ingest", "--population-thresholds=1,x"), ("ingest", "--population-thresholds="),
    ],
)
def test_invalid_front_half_parameter_is_usage_error_before_any_trip_is_read(tmp_path, monkeypatch, command, flag):
    monkeypatch.setattr(cli, "parse_trip_records", mock.Mock(side_effect=AssertionError("trips read")))
    out = tmp_path / "out"
    argv = [command, "--input", str(tmp_path / "trips.csv"), flag]
    argv += {
        "classify": ["--out-assignments", str(out / "a.csv")],
        "analyze": ["--assignments", str(tmp_path / "a.csv"), "--events-dir", str(tmp_path), "--out-dir", str(out)],
        "ingest": ["--out", str(out / "trips.csv")],
    }.get(command, ["--out-dir", str(out)])
    assert main(argv) == 1
    assert not out.exists()


class TestRowOrder:
    """Every artifact is the same whatever the order of the trip file's rows, parsed or read from its sidecar."""

    @pytest.fixture(scope="class")
    def unshuffled(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("row-order")
        trips = work / "trips.csv"
        assert main([
            "generate", "--out", str(trips), "--passengers", "60", "--routes", "4",
            "--stops-per-route", "8", "--days", "14", "--seed", "2",
        ]) == 0
        return work, trips.read_text(), self.artifacts(work)

    @staticmethod
    def artifacts(work: Path) -> dict:
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        common = ["--input", str(work / "trips.csv"), "--seeds", "3", "--runs", "2", "--master-seed", "5"]
        assert main([
            "classify", "--input", str(work / "trips.csv"), "--out-assignments", str(out / "assignments.csv"),
            "--out-summary", str(out / "classification.json"), "--out-mobility", str(out / "mobility.csv"),
        ]) == 0
        assert main(["simulate", *common, "--beta", "0.5", "--dt-minutes", "15", "--out-dir", str(out / "sim")]) == 0
        assert main(["sweep", *common, "--beta-grid", "0.5,1", "--dt-grid-minutes", "0,15",
                     "--out-dir", str(out / "sweep")]) == 0
        assert main(["analyze", "--input", str(work / "trips.csv"), "--assignments", str(out / "sim" / "assignments.csv"),
                     "--events-dir", str(out / "sim"), "--out-dir", str(out / "analysis")]) == 0
        return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    def test_same_artifacts_with_and_without_the_sidecar(self, unshuffled):
        work, text, want = unshuffled
        (work / "trips.csv").write_text(text)
        (work / ".trips.csv.table").unlink(missing_ok=True)
        with mock.patch.object(ingest, "_write_sidecar"):
            assert self.artifacts(work) == want  # every command parses
        parse_trip_records(work / "trips.csv")
        with mock.patch.object(ingest, "_parse_stream", side_effect=AssertionError("trips parsed")):
            assert self.artifacts(work) == want  # no command parses

    @settings(max_examples=4)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_shuffled_rows_same_artifacts(self, unshuffled, seed):
        work, text, want = unshuffled
        header, *rows = text.splitlines()
        random.Random(seed).shuffle(rows)
        (work / "trips.csv").write_text("\n".join([header] + rows) + "\n")
        got = self.artifacts(work)
        assert got.keys() == want.keys()
        assert [name for name in want if got[name] != want[name]] == []


class TestFrontHalfOnce:
    """Each front-half stage runs once per command, however many outputs use it."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = {"mobility_table": 0, "build_exposure_log": 0}
        # a build counts whether the command makes it or leaves it to the simulator
        for module, name in ((cli, "mobility_table"), (cli, "build_exposure_log"), (sim, "build_exposure_log")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return calls

    def test_classify_builds_one_mobility_table(self, tmp_path, trips_csv, calls):
        code = main([
            "classify", "--input", trips_csv, "--out-assignments", str(tmp_path / "a.csv"),
            "--out-mobility", str(tmp_path / "mob.csv"), "--min-trips", "10",
        ])
        assert code == 0
        assert calls == {"mobility_table": 1, "build_exposure_log": 0}

    def test_analyze_builds_no_log(self, tmp_path, trips_csv, calls):
        sim_dir = tmp_path / "sim"
        assert main([
            "simulate", "--input", trips_csv, "--beta", "1", "--seeds", "5", "--runs", "1", "--min-trips", "10",
            "--out-dir", str(sim_dir),
        ]) == 0
        calls.update(mobility_table=0, build_exposure_log=0)
        assert main([
            "analyze", "--input", trips_csv, "--min-trips", "10", "--assignments", str(sim_dir / "assignments.csv"),
            "--events-dir", str(sim_dir), "--out-dir", str(tmp_path / "analysis"),
        ]) == 0
        assert calls == {"mobility_table": 0, "build_exposure_log": 0}

    def test_analyze_holds_one_infection_log_at_a_time(self, tmp_path, trips_csv, monkeypatch):
        sim_dir = tmp_path / "sim"
        assert main([
            "simulate", "--input", trips_csv, "--beta", "1", "--seeds", "5", "--runs", "4", "--min-trips", "10",
            "--out-dir", str(sim_dir),
        ]) == 0
        read = []  # a weak reference to each outcome read so far

        def tracked(path):
            assert all(ref() is None for ref in read), "an earlier infection log is still held"
            outcome = sim.read_infection_csv(path)
            read.append(weakref.ref(outcome))
            return outcome

        monkeypatch.setattr(cli, "read_infection_csv", tracked)
        analysis = tmp_path / "analysis"
        assert main([
            "analyze", "--input", trips_csv, "--min-trips", "10", "--assignments", str(sim_dir / "assignments.csv"),
            "--events-dir", str(sim_dir), "--out-dir", str(analysis),
        ]) == 0
        assert len(read) == 4
        for name in ("flow_matrix.csv", "group_summary.csv", "chord.json"):
            assert (analysis / name).read_bytes() == (sim_dir / name).read_bytes()

    def test_sweep_builds_one_log(self, tmp_path, trips_csv, calls):
        code = main([
            "sweep", "--input", trips_csv, "--beta-grid", "1", "--dt-grid-minutes", "0,15",
            "--seeds", "5", "--runs", "1", "--min-trips", "10", "--out-dir", str(tmp_path / "s"),
        ])
        assert code == 0
        assert calls["build_exposure_log"] == 1

    def test_simulate_builds_one_log(self, tmp_path, trips_csv, calls):
        code = main([
            "simulate", "--input", trips_csv, "--beta", "1", "--dt-minutes", "15",
            "--seeds", "5", "--runs", "1", "--min-trips", "10", "--out-dir", str(tmp_path / "s"),
        ])
        assert code == 0
        assert calls["build_exposure_log"] == 1

    def test_sweep_computes_keys_once_per_dt_and_draws_no_whole_log_uniforms(self, tmp_path, trips_csv, monkeypatch):
        calls = {"_exposure_keys": 0, "exposure_uniforms": 0}
        for name in calls:
            original = getattr(sim, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(sim, name, counted)
        code = main([
            "sweep", "--input", trips_csv, "--beta-grid", "0.5,1", "--dt-grid-minutes", "0,15",
            "--seeds", "5", "--runs", "2", "--min-trips", "10", "--out-dir", str(tmp_path / "s"),
        ])
        assert code == 0
        # one run_lanes call per d_t; its lanes draw each trial from the keys as they evaluate it
        assert calls == {"_exposure_keys": 2, "exposure_uniforms": 0}


class TestAnalyze:
    def test_reaggregates_simulation_outputs(self, tmp_path, trips_csv):
        sim_dir = tmp_path / "sim"
        # a longer run first: the rerun into the same directory replaces its infection logs
        for flags in (["--beta", "0.5", "--dt-minutes", "15", "--runs", "3"], ["--beta", "1", "--runs", "2"]):
            code = main([
                "simulate", "--input", trips_csv, "--seeds", "5", "--min-trips", "10", "--out-dir", str(sim_dir),
                *flags,
            ])
            assert code == 0
        assert sorted(p.name for p in sim_dir.glob("infections_run*.csv")) == [
            "infections_run000.csv", "infections_run001.csv",
        ]
        assert not (sim_dir / ".staging").exists()
        out_dir = tmp_path / "analysis"
        code = main([
            "analyze", "--input", trips_csv, "--min-trips", "10",
            "--assignments", str(sim_dir / "assignments.csv"),
            "--events-dir", str(sim_dir), "--out-dir", str(out_dir),
        ])
        assert code == 0
        matrix = read_group_matrix(out_dir / "flow_matrix.csv")
        reference = read_group_matrix(sim_dir / "flow_matrix.csv")
        assert (matrix.values == reference.values).all()
        chord = json.loads((out_dir / "chord.json").read_text())
        assert len(chord["flows"]) == 64
        for name in ("flow_matrix.csv", "group_summary.csv", "chord.json"):
            assert (out_dir / name).read_bytes() == (sim_dir / name).read_bytes(), name
        assert not (out_dir / ".staging").exists()

    def test_ids_ending_in_nul_read_back_whole(self, tmp_path):
        path = tmp_path / "infections_run000.csv"
        path.write_text("infector,infectee,time,vehicle_id,kind\na\x00,b,100.0,v\x00,direct\n", encoding="utf-8")
        outcome = sim.read_infection_csv(path)
        assert outcome.cards == ["a\x00", "b"]
        assert outcome.vehicles == ["v\x00"]
        assert (outcome.infector.tolist(), outcome.infectee.tolist(), outcome.vehicle.tolist()) == ([0], [1], [0])

    def test_unclassified_card_is_data_error(self, tmp_path, trips_csv, caplog):
        events_dir = tmp_path / "events"
        events_dir.mkdir()
        (events_dir / "infections_run000.csv").write_text(
            "infector,infectee,time,vehicle_id,kind\nc1,stranger,100.0,v,direct\n"
        )
        assignments = tmp_path / "assignments.csv"
        assignments.write_text("card_id,group\nc1,exp_high_long\n")
        code = main([
            "analyze", "--input", trips_csv, "--min-trips", "10",
            "--assignments", str(assignments), "--events-dir", str(events_dir),
            "--out-dir", str(tmp_path / "analysis"),
        ])
        assert code == 2
        assert "'stranger'" in caplog.text

    @pytest.mark.parametrize(
        "content, where",
        [
            ("infector,infectee,time\n", "1:"),
            ("infector,infectee,time,vehicle_id,kind\na,b,100.0\n", "2: expected 5 fields, got 3"),
            ("infector,infectee,time,vehicle_id,kind\na,b,100.0,v,direct,x\n", "2: expected 5 fields, got 6"),
            ("infector,infectee,time,vehicle_id,kind\na,b,100.0,v,direct\nb,c,inf,v,direct\n",
             "3: time 'inf' is not a finite number"),
            ("infector,infectee,time,vehicle_id,kind\na,b,100.0,v,airborne\n", "2:"),
            ("infector,infectee,time,vehicle_id,kind\na,b,100.0,v,direct\nc,c,200.0,v,direct\n", "3:"),
            ('infector,infectee,time,vehicle_id,kind\n"a\nx",b,100.0,v,direct\nc,c,200.0,v,direct\n',
             "4: card 'c' infects itself"),
            ("infector,infectee,time,vehicle_id,kind\na,b,100.0,v,direct\nb,c,150.0,v,indirect\nc,b,200.0,v,direct\n", "4:"),
        ],
        ids=["header", "short-row", "long-row", "non-finite-time", "unknown-kind", "self-infection",
             "self-infection-after-a-two-line-id", "infected-twice"],
    )
    def test_malformed_infection_log_is_data_error(self, tmp_path, trips_csv, caplog, content, where):
        events_dir = tmp_path / "events"
        events_dir.mkdir()
        (events_dir / "infections_run000.csv").write_text(content)
        assignments = tmp_path / "assignments.csv"
        assignments.write_text("card_id,group\n")
        code = main([
            "analyze", "--input", trips_csv, "--min-trips", "10",
            "--assignments", str(assignments), "--events-dir", str(events_dir),
            "--out-dir", str(tmp_path / "analysis"),
        ])
        assert code == 2
        assert f"infections_run000.csv:{where}" in caplog.text

    def test_field_over_the_csv_size_limit_in_infection_log_is_data_error(self, tmp_path, trips_csv, caplog):
        events_dir = tmp_path / "events"
        events_dir.mkdir()
        (events_dir / "infections_run000.csv").write_text(
            'infector,infectee,time,vehicle_id,kind\n"' + "a" * (csv.field_size_limit() + 1) + '",b,100.0,v,direct\n'
        )
        assignments = tmp_path / "assignments.csv"
        assignments.write_text("card_id,group\n")
        out_dir = tmp_path / "analysis"
        code = main([
            "analyze", "--input", trips_csv, "--min-trips", "10",
            "--assignments", str(assignments), "--events-dir", str(events_dir), "--out-dir", str(out_dir),
        ])
        assert code == 2
        assert "field larger than field limit" in caplog.text
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize(
        "content, where",
        [
            ("", "1:"),
            ("card_id,group\nc1,exp_high_long\nonlyone\n", "3: expected 2 fields, got 1"),
            ("card_id,group\nc1,exp_high_long,x\n", "2: expected 2 fields, got 3"),
            ("card_id,group\nc1,exp_high_long\nc1,ret_low_short\n", "3:"),
            ("card_id,group\nc1,exp_high_long\nc2,exp_high_medium\n", "3:"),
            ("card_id,group\nc1,exp_high\n", "2:"),
            ("card_id,group\nc1,exp_high_long\n\nc2,ret_low_short\n", "3: expected 2 fields, got 0"),
            ('card_id,group\n"a\nb",exp_high_long\nc1,exp_high_long\nc1,ret_low_short\n',
             "5: card 'c1' is listed twice"),
        ],
        ids=["empty", "one-field-row", "three-field-row", "card-twice", "unknown-group", "two-part-group",
             "blank-line", "card-twice-after-a-two-line-id"],
    )
    def test_malformed_assignments_is_data_error(self, tmp_path, trips_csv, caplog, content, where):
        assignments = tmp_path / "assignments.csv"
        assignments.write_text(content)
        code = main([
            "analyze", "--input", trips_csv, "--min-trips", "10",
            "--assignments", str(assignments), "--events-dir", str(tmp_path),
            "--out-dir", str(tmp_path / "analysis"),
        ])
        assert code == 2
        assert f"assignments.csv:{where}" in caplog.text
