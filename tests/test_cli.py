from __future__ import annotations

import json
import random
import shutil
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from transitepi import cli, sim
from transitepi.cli import main
from transitepi.flows import GroupMatrix
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
        [["--mix", "commuter=1.5,roamer=-0.5"], ["--extent-km", "nan"], ["--extent-km", "inf"]],
        ids=["negative-fraction", "nan-extent", "inf-extent"],
    )
    def test_bad_fraction_or_extent_is_config_error(self, tmp_path, caplog, flags):
        code = main([
            "generate", "--out", str(tmp_path / "t.csv"), "--passengers", "10", "--days", "3",
            "--min-trips-per-passenger", "1", *flags,
        ])
        assert code == 2
        assert "must be" in caplog.text
        assert not (tmp_path / "t.csv").exists()

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

    def test_planar_distance_model(self, tmp_path, trips_csv):
        code = main([
            "classify", "--input", trips_csv, "--out-assignments", str(tmp_path / "p.csv"),
            "--distance-model", "planar", "--min-trips", "10",
        ])
        assert code == 0
        assert (tmp_path / "p.csv").read_text().startswith("card_id,group")


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
        [("1,0.5", "0"), ("0.5,2", "0"), ("1", "-5,0")],
        ids=["unsorted", "beta-above-one", "negative-dt"],
    )
    def test_unsorted_grid_is_usage_error(self, tmp_path, trips_csv, monkeypatch, beta_grid, dt_grid):
        # rejected before any trip is read
        monkeypatch.setattr(cli, "parse_trip_records", mock.Mock(side_effect=AssertionError("trips read")))
        code = main([
            "sweep", "--input", trips_csv, f"--beta-grid={beta_grid}", f"--dt-grid-minutes={dt_grid}",
            "--out-dir", str(tmp_path / "x"),
        ])
        assert code == 1

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

    def test_spec_file_with_flag_override(self, tmp_path, trips_csv):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "dataset": trips_csv,
            "beta_grid": [1.0],
            "dt_grid_minutes": [0.0],
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

    @pytest.mark.parametrize(
        "content, named",
        [
            ([{"n_runs": 1}], "spec must be a JSON object"),
            ({"n_run": 1}, "'n_run'"),
            ({"synth": {"n_passenger": 10}}, "'n_passenger'"),
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
    """Every artifact is the same whatever the order of the trip file's rows."""

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
        for name in calls:
            original = getattr(cli, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
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
        code = main([
            "simulate", "--input", trips_csv, "--beta", "1", "--seeds", "5",
            "--runs", "2", "--min-trips", "10", "--out-dir", str(sim_dir),
        ])
        assert code == 0
        out_dir = tmp_path / "analysis"
        code = main([
            "analyze", "--input", trips_csv, "--min-trips", "10",
            "--assignments", str(sim_dir / "assignments.csv"),
            "--events-dir", str(sim_dir), "--out-dir", str(out_dir),
        ])
        assert code == 0
        matrix = GroupMatrix.from_csv(out_dir / "flow_matrix.csv")
        reference = GroupMatrix.from_csv(sim_dir / "flow_matrix.csv")
        assert (matrix.values == reference.values).all()
        chord = json.loads((out_dir / "chord.json").read_text())
        assert len(chord["flows"]) == 64
        for name in ("flow_matrix.csv", "group_summary.csv", "chord.json"):
            assert (out_dir / name).read_bytes() == (sim_dir / name).read_bytes(), name

    def test_ids_ending_in_nul_read_back_whole(self, tmp_path):
        path = tmp_path / "infections_run000.csv"
        path.write_text("infector,infectee,time,vehicle_id,kind\na\x00,b,100.0,v\x00,direct\n", encoding="utf-8")
        outcome = cli._read_outcome_csv(path)
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
        "content, line",
        [
            ("infector,infectee,time\n", 1),
            ("infector,infectee,time,vehicle_id,kind\na,b,100.0\n", 2),
            ("infector,infectee,time,vehicle_id,kind\na,b,100.0,v,direct\nb,c,inf,v,direct\n", 3),
            ("infector,infectee,time,vehicle_id,kind\na,b,100.0,v,airborne\n", 2),
        ],
        ids=["header", "short-row", "non-finite-time", "unknown-kind"],
    )
    def test_malformed_infection_log_is_data_error(self, tmp_path, trips_csv, caplog, content, line):
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
        assert f"infections_run000.csv:{line}:" in caplog.text

    @pytest.mark.parametrize(
        "content, line",
        [
            ("", 1),
            ("card_id,group\nc1,exp_high_long\nonlyone\n", 3),
            ("card_id,group\nc1,exp_high_long\nc1,ret_low_short\n", 3),
            ("card_id,group\nc1,exp_high_long\nc2,exp_high_medium\n", 3),
            ("card_id,group\nc1,exp_high\n", 2),
        ],
        ids=["empty", "one-field-row", "card-twice", "unknown-group", "two-part-group"],
    )
    def test_malformed_assignments_is_data_error(self, tmp_path, trips_csv, caplog, content, line):
        assignments = tmp_path / "assignments.csv"
        assignments.write_text(content)
        code = main([
            "analyze", "--input", trips_csv, "--min-trips", "10",
            "--assignments", str(assignments), "--events-dir", str(tmp_path),
            "--out-dir", str(tmp_path / "analysis"),
        ])
        assert code == 2
        assert f"assignments.csv:{line}:" in caplog.text
