"""Command-line pipeline: generate | ingest | classify | simulate | sweep | analyze.

Every parameter can come from a JSON spec file (--spec) or a flag; flags win.
Data goes to files, logs go to stderr.  Exit codes: 0 success, 1 usage or
configuration error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import shutil
import sys
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .classify import (
    ClassificationResult,
    DegenerateClusteringError,
    classify_population,
    group_shares,
    read_assignments_csv,
    write_assignments_csv,
)
from .contacts import (
    DIRECT,
    INDIRECT,
    build_exposure_log,
    connected_components,
    degree_distribution,
    encounter_counts,
    write_histogram_csv,
)
from .flows import DataIntegrityError, GroupMatrix, chord_export, difference_matrix, group_flow_matrix, per_group_summary
from .geo import get_model
from .ingest import (
    SchemaError,
    TripTable,
    _vocabulary,
    check_delimiter,
    filter_by_min_trips,
    parse_trip_records,
    population_vs_threshold,
    trip_frequency_distribution,
    write_trip_csv,
)
from .mobility import DEFAULT_K, MobilityVector, mobility_table, write_mobility_csv
from .sim import (
    INFECTION_CSV_HEADER,
    SimConfig,
    SimOutcome,
    run_ensemble,
    run_lanes,
    write_infection_csv,
)
from .synth import SynthConfig, synthesize

logger = logging.getLogger("transitepi")

DEFAULT_BETA_GRID = (0.05, 0.1, 0.15, 0.25, 0.5, 0.75, 1.0)
DEFAULT_DT_GRID_MINUTES = (0.0, 15.0, 30.0, 60.0, 120.0)
DEFAULT_MIN_TRIPS = 15
OUTDIR_ENV = "TRANSITEPI_OUTDIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    pass


@dataclass
class ExperimentSpec:
    """Everything one experiment needs; mirrors the JSON spec file."""

    dataset: Optional[str] = None
    synth: Optional[SynthConfig] = None
    k: int = DEFAULT_K
    min_trips: int = DEFAULT_MIN_TRIPS
    distance_model: str = "haversine"
    beta: float = 1.0
    dt_minutes: float = 0.0
    n_seeds: int = 500
    infectious_days: float = 5.0
    n_runs: int = 100
    master_seed: int = 0
    beta_grid: Tuple[float, ...] = DEFAULT_BETA_GRID
    dt_grid_minutes: Tuple[float, ...] = DEFAULT_DT_GRID_MINUTES
    output_dir: Optional[str] = None

    def validate_grids(self, betas: Sequence[float], dts_minutes: Sequence[float]) -> None:
        """The grids a command simulates: non-empty, strictly ascending, a valid `SimConfig` at every point."""
        for name, grid in (("beta_grid", betas), ("dt_grid_minutes", dts_minutes)):
            if not grid:
                raise UsageError(f"{name} must be non-empty")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise UsageError(f"{name} must be sorted strictly ascending, got {list(grid)}")
        try:
            for beta in betas:
                for dt in dts_minutes:
                    dataclasses.replace(self.sim_config(dt), beta=beta).validate()
        except ValueError as exc:
            raise UsageError(str(exc)) from None

    def validate_front_half(self) -> None:
        """The trip threshold and the k of the k-radius: both at least 1."""
        for name, value in (("min_trips", self.min_trips), ("k", self.k)):
            if value < 1:
                raise UsageError(f"{name} must be >= 1, got {value}")

    def sim_config(self, dt_minutes: Optional[float] = None) -> SimConfig:
        return SimConfig(
            beta=self.beta,
            d_t=60.0 * (self.dt_minutes if dt_minutes is None else dt_minutes),
            n_seeds=self.n_seeds,
            infectious_period=self.infectious_days * 86_400.0,
            n_runs=self.n_runs,
            master_seed=self.master_seed,
        )


def _check_fields(path, what: str, data, cls) -> None:
    """A spec section must be a JSON object naming only fields of `cls`, each with a value of its type.

    Float fields given as JSON integers are made floats in place.
    """
    if not isinstance(data, dict):
        raise UsageError(f"{path}: {what} must be a JSON object, got {type(data).__name__}")
    types = typing.get_type_hints(cls)
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise UsageError(f"{path}: unknown {what} key(s): {', '.join(map(repr, unknown))}")
    for key, value in data.items():
        if not _json_fits(value, types[key]):
            name = types[key].__name__ if isinstance(types[key], type) else str(types[key]).replace("typing.", "")
            raise UsageError(f"{path}: {what} key {key!r} must be {name}, got {json.dumps(value)}")
        if types[key] is float:  # a JSON 1 must write as 1.0, as the flag's value does
            data[key] = float(value)


def _json_fits(value, hint) -> bool:
    """Whether a JSON value can stand for a field annotated `hint`."""
    if dataclasses.is_dataclass(hint):
        return isinstance(value, dict)  # a nested section, checked on its own
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return any(_json_fits(value, arg) for arg in args)
    if origin is tuple:
        return isinstance(value, list) and all(_json_fits(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(_json_fits(v, args[1]) for v in value.values())
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _synth_config(path, what: str, data) -> SynthConfig:
    _check_fields(path, what, data, SynthConfig)
    config = SynthConfig(**data)
    config.validate()
    return config


def _load_spec(path) -> ExperimentSpec:
    """A --spec file: every section checked, the grids made floats."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    _check_fields(path, "spec", data, ExperimentSpec)
    synth = data.pop("synth", None)
    spec = ExperimentSpec(**data)
    if synth is not None:
        spec.synth = _synth_config(path, "synth", synth)
    spec.beta_grid = tuple(float(b) for b in spec.beta_grid)
    spec.dt_grid_minutes = tuple(float(d) for d in spec.dt_grid_minutes)
    return spec


def _load_synth_config(path) -> SynthConfig:
    """A --synth-config file, checked like the synth section of a spec."""
    with open(path, "r", encoding="utf-8") as fh:
        return _synth_config(path, "synth config", json.load(fh))


def _fmt_num(x: float) -> str:
    return f"{x:g}"


def _parse_grid(text: str) -> Tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}")


def _parse_mix(text: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        if not value:
            raise argparse.ArgumentTypeError(f"mix entries must look like name=fraction, got {part!r}")
        out[name.strip()] = float(value)
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    spec = _load_spec(args.spec) if getattr(args, "spec", None) else ExperimentSpec()
    for attr, flag in (
        ("dataset", "input"),
        ("k", "k"),
        ("min_trips", "min_trips"),
        ("distance_model", "distance_model"),
        ("beta", "beta"),
        ("dt_minutes", "dt_minutes"),
        ("n_seeds", "seeds"),
        ("infectious_days", "infectious_days"),
        ("n_runs", "runs"),
        ("master_seed", "master_seed"),
        ("beta_grid", "beta_grid"),
        ("dt_grid_minutes", "dt_grid_minutes"),
        ("output_dir", "out_dir"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(spec, attr, value)
    if getattr(args, "synth_config", None):
        spec.synth = _load_synth_config(args.synth_config)
    if spec.output_dir is None:
        spec.output_dir = os.environ.get(OUTDIR_ENV)
    spec.validate_front_half()  # before any trip is read
    return spec


def _filtered_trips(spec: ExperimentSpec, staging: Optional[Path]) -> TripTable:
    """The trips of cards with at least `min_trips` trips.

    The dataset path wins; otherwise the trips are synthesized, and all of
    them are written to `staging` when it is given.
    """
    if spec.dataset:
        trips, report = parse_trip_records(spec.dataset)
        if report.rejected:
            logger.warning("ingest rejected %d of %d rows", report.rejected, report.total_rows)
    elif spec.synth is None:
        raise UsageError("no dataset: pass --input or a synth config")
    else:
        _, trips = synthesize(spec.synth)
        if staging is not None:
            write_trip_csv(trips, staging / "trips.csv")
    filtered = filter_by_min_trips(trips, spec.min_trips)
    if not filtered:
        raise DataIntegrityError(f"no passengers survive the {spec.min_trips}-trip threshold")
    return filtered


def _classified(trips: TripTable, spec: ExperimentSpec) -> Tuple[List[MobilityVector], ClassificationResult]:
    """Mobility vectors of the trips and the eight groups."""
    vectors = mobility_table(trips, k=spec.k, model=get_model(spec.distance_model))
    return vectors, classify_population(vectors)


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args: argparse.Namespace) -> int:
    if args.synth_config:
        config = _load_synth_config(args.synth_config)
    else:
        config = SynthConfig()
    overrides = {
        "n_passengers": args.passengers,
        "n_routes": args.routes,
        "stops_per_route": args.stops_per_route,
        "days": args.days,
        "rng_seed": args.seed,
        "city_extent_km": args.extent_km,
        "min_trips_per_passenger": args.min_trips_per_passenger,
        "archetype_mix": args.mix,
    }
    for name, value in overrides.items():
        if value is not None:
            setattr(config, name, value)
    config.validate()
    _, trips = synthesize(config)
    write_trip_csv(trips, args.out)
    logger.info("wrote %d trips to %s", len(trips), args.out)
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace) -> int:
    if args.min_trips < 1:
        raise UsageError(f"min_trips must be >= 1, got {args.min_trips}")
    try:
        check_delimiter(args.delimiter)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    trips, report = parse_trip_records(args.input, args.delimiter)
    if args.report:
        Path(args.report).write_text(report.to_json() + "\n", encoding="utf-8")
    filtered = filter_by_min_trips(trips, args.min_trips) if args.min_trips > 1 else trips
    if args.out:
        write_trip_csv(filtered, args.out)
    if args.freq_csv:
        write_histogram_csv(trip_frequency_distribution(trips), args.freq_csv, value_name="trips_per_card")
    if args.population_csv:
        thresholds = [int(t) for t in (args.population_thresholds or "1,2,5,10,15,20,30").split(",")]
        curve = population_vs_threshold(trips, thresholds)
        with open(args.population_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["threshold", "population"])
            writer.writerows(curve)
    logger.info(
        "accepted %d/%d rows; %d records after min-trips filter (threshold %d)",
        report.accepted, report.total_rows, len(filtered), args.min_trips,
    )
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    trips = _filtered_trips(spec, None)
    vectors, result = _classified(trips, spec)
    write_assignments_csv(result, args.out_assignments)
    if args.out_summary:
        Path(args.out_summary).write_text(result.to_summary_json() + "\n", encoding="utf-8")
    if args.out_mobility:
        write_mobility_csv(vectors, args.out_mobility)
    shares = group_shares(result)
    logger.info("classified %d passengers; shares: %s", len(result.assignments), shares)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    spec.validate_grids((spec.beta,), (spec.dt_minutes,))  # before any trip is read
    if spec.output_dir is None:
        raise UsageError("simulate needs --out-dir (or TRANSITEPI_OUTDIR)")
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trips = _filtered_trips(spec, None)
    config = spec.sim_config()
    vectors, result = _classified(trips, spec)  # before the log, so that their transients do not stack
    log = build_exposure_log(trips, config.d_t)
    outcomes = run_ensemble(trips, config, exposures=log, progress=lambda i, n: logger.info("run %d/%d", i, n))
    write_assignments_csv(result, out_dir / "assignments.csv")
    for outcome in outcomes:
        write_infection_csv(outcome, out_dir / f"infections_run{outcome.per_run_seed:03d}.csv")
    summary = per_group_summary(outcomes, result.assignments, {v.card_id: v.encounters for v in vectors})
    summary.to_csv(out_dir / "group_summary.csv")
    matrix = group_flow_matrix(outcomes, result.assignments)
    matrix.to_csv(out_dir / "flow_matrix.csv")
    chord_export(matrix, path=out_dir / "chord.json")
    infections = [o.infectee.size for o in outcomes]
    mean_infections = float(np.mean(infections))
    payload = {
        "config": {
            "beta": config.beta,
            "d_t_seconds": config.d_t,
            "n_seeds": config.n_seeds,
            "infectious_period_seconds": config.infectious_period,
            "n_runs": config.n_runs,
            "master_seed": config.master_seed,
        },
        "ensemble": {
            "n_runs": len(outcomes),
            "mean_infections": mean_infections,
            "mean_attack_rate": float(np.mean([o.attack_rate for o in outcomes])),
            "per_run_infections": infections,
        },
    }
    (out_dir / "summary.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    logger.info("simulate: mean infections %.1f over %d runs", mean_infections, config.n_runs)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    spec.validate_grids(spec.beta_grid, spec.dt_grid_minutes)  # before any trip is read
    if spec.output_dir is None:
        raise UsageError("sweep needs --out-dir (or TRANSITEPI_OUTDIR)")
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    staging = out_dir / ".staging"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    try:
        artifacts = _run_sweep(spec, staging)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    for name in artifacts:
        os.replace(staging / name, out_dir / name)
    shutil.rmtree(staging, ignore_errors=True)
    logger.info("sweep complete: %d artifacts in %s", len(artifacts), out_dir)
    return EXIT_OK


def _run_sweep(spec: ExperimentSpec, staging: Path) -> List[str]:
    """Produce all sweep artifacts inside `staging`; returns their names."""
    trips = _filtered_trips(spec, staging)
    _, result = _classified(trips, spec)  # before the log, so that their transients do not stack
    log = build_exposure_log(trips, 60.0 * spec.dt_grid_minutes[-1])

    artifacts: List[str] = []
    if (staging / "trips.csv").exists():
        artifacts.append("trips.csv")
    write_assignments_csv(result, staging / "assignments.csv")
    (staging / "classification.json").write_text(result.to_summary_json() + "\n", encoding="utf-8")
    artifacts += ["assignments.csv", "classification.json"]

    matrices: Dict[Tuple[float, float], GroupMatrix] = {}
    # widest column first: each narrower log is a row mask of the one before,
    # which is released, with the lanes that reference it, as it is replaced
    for dt in reversed(spec.dt_grid_minutes):
        log = log.within(60.0 * dt)
        config = spec.sim_config(dt_minutes=dt)
        lanes = run_lanes(trips, config, spec.beta_grid, range(config.n_runs), exposures=log)
        for k, beta in enumerate(spec.beta_grid):
            matrices[(beta, dt)] = group_flow_matrix(lanes.outcomes(k), result.assignments)
            logger.info("sweep point done: beta=%s dt=%sm", _fmt_num(beta), _fmt_num(dt))
        del lanes

    manifest = {
        "dataset": spec.dataset or "trips.csv",
        "parameters": {
            "beta_grid": list(spec.beta_grid),
            "dt_grid_minutes": list(spec.dt_grid_minutes),
            "n_seeds": spec.n_seeds,
            "n_runs": spec.n_runs,
            "infectious_days": spec.infectious_days,
            "master_seed": spec.master_seed,
            "min_trips": spec.min_trips,
            "k": spec.k,
        },
        "matrices": [],
        "differences": [],
    }
    for (beta, dt), matrix in sorted(matrices.items()):
        name = f"flow_beta{_fmt_num(beta)}_dt{_fmt_num(dt)}m.csv"
        matrix.to_csv(staging / name)
        artifacts.append(name)
        manifest["matrices"].append({"beta": beta, "dt_minutes": dt, "path": name})

    dt0 = spec.dt_grid_minutes[0]
    for beta in spec.beta_grid:
        for dt in spec.dt_grid_minutes[1:]:
            diff = difference_matrix(matrices[(beta, dt0)], matrices[(beta, dt)])
            name = f"diff_dt{_fmt_num(dt)}m_vs_dt{_fmt_num(dt0)}m_beta{_fmt_num(beta)}.csv"
            diff.to_csv(staging / name)
            artifacts.append(name)
            manifest["differences"].append(
                {"axis": "dt", "beta": beta, "baseline_dt_minutes": dt0, "dt_minutes": dt, "path": name}
            )
    for dt in spec.dt_grid_minutes:
        for b_low, b_high in zip(spec.beta_grid, spec.beta_grid[1:]):
            diff = difference_matrix(matrices[(b_low, dt)], matrices[(b_high, dt)])
            name = f"diff_beta{_fmt_num(b_high)}_vs_beta{_fmt_num(b_low)}_dt{_fmt_num(dt)}m.csv"
            diff.to_csv(staging / name)
            artifacts.append(name)
            manifest["differences"].append(
                {"axis": "beta", "dt_minutes": dt, "baseline_beta": b_low, "beta": b_high, "path": name}
            )

    (staging / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    artifacts.append("manifest.json")
    return artifacts


def cmd_analyze(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    if spec.output_dir is None:
        raise UsageError("analyze needs --out-dir (or TRANSITEPI_OUTDIR)")
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trips = _filtered_trips(spec, None)
    assignments = read_assignments_csv(args.assignments)
    encounters = encounter_counts(trips)

    events_dir = Path(args.events_dir)
    event_files = sorted(events_dir.glob("infections_run*.csv"))
    if not event_files:
        raise DataIntegrityError(f"no infections_run*.csv files under {events_dir}")
    outcomes = [_read_outcome_csv(path) for path in event_files]

    summary = per_group_summary(outcomes, assignments, dict(zip(trips.cards, encounters.tolist())))
    summary.to_csv(out_dir / "group_summary.csv")
    matrix = group_flow_matrix(outcomes, assignments)
    matrix.to_csv(out_dir / "flow_matrix.csv")
    chord_export(matrix, path=out_dir / "chord.json")
    comps = connected_components(trips)
    write_histogram_csv(degree_distribution(encounters), out_dir / "degree_distribution.csv", value_name="degree")
    (out_dir / "components.json").write_text(
        json.dumps({"component_sizes": comps}, indent=2) + "\n", encoding="utf-8"
    )
    logger.info("analyze: %d runs aggregated from %s", len(outcomes), events_dir)
    return EXIT_OK


def _read_outcome_csv(path: Path) -> SimOutcome:
    """One stored run's infections as an outcome; any malformed line is a data error.

    The log records no seeds, population or clock, so the outcome serves the
    group tallies only.
    """
    rows: List[Tuple[str, str, float, str, bool]] = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != INFECTION_CSV_HEADER:
            raise DataIntegrityError(
                f"{path}:1: expected header {','.join(INFECTION_CSV_HEADER)}, got {header!r}"
            )
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != len(INFECTION_CSV_HEADER):
                raise DataIntegrityError(f"{where}: expected {len(INFECTION_CSV_HEADER)} fields, got {len(row)}")
            infector, infectee, time_text, vehicle_id, kind = row
            try:
                time = float(time_text)
            except ValueError:
                time = math.nan
            if not math.isfinite(time):
                raise DataIntegrityError(f"{where}: time {time_text!r} is not a finite number")
            if kind not in (DIRECT, INDIRECT):
                raise DataIntegrityError(f"{where}: kind {kind!r} is neither {DIRECT} nor {INDIRECT}")
            rows.append((infector, infectee, time, vehicle_id, kind == DIRECT))
    infectors, infectees, times, vehicle_ids, direct = list(zip(*rows)) or [()] * 5
    cards, card_codes = _vocabulary(infectors + infectees)
    vehicles, vehicle_codes = _vocabulary(vehicle_ids)
    return SimOutcome(
        cards, vehicles, card_codes[:len(rows)], card_codes[len(rows):],
        vehicle_codes, np.array(times, np.float64), np.array(direct, bool),
        seeds=(), per_run_seed=-1, population=[], start_time=math.nan, end_time=math.nan, period=math.nan,
    )


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="transitepi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic trip CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--synth-config", help="SynthConfig JSON file")
    p.add_argument("--passengers", type=int)
    p.add_argument("--routes", type=int)
    p.add_argument("--stops-per-route", type=int)
    p.add_argument("--days", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--extent-km", type=float)
    p.add_argument("--min-trips-per-passenger", type=int)
    p.add_argument("--mix", type=_parse_mix, help="e.g. commuter=0.45,roamer=0.3,long_hauler=0.1,offpeak_regular=0.15")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ingest", help="validate, filter and profile a trip CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--delimiter", default=",")
    p.add_argument("--min-trips", type=int, default=DEFAULT_MIN_TRIPS)
    p.add_argument("--out", help="filtered trip CSV")
    p.add_argument("--report", help="IngestReport JSON")
    p.add_argument("--freq-csv", help="trip frequency histogram CSV")
    p.add_argument("--population-csv", help="population vs threshold CSV")
    p.add_argument("--population-thresholds", help="comma-separated thresholds")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("classify", help="assign mobility groups")
    _add_spec_args(p)
    p.add_argument("--out-assignments", required=True)
    p.add_argument("--out-summary")
    p.add_argument("--out-mobility")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("simulate", help="run an SIR ensemble at one grid point")
    _add_spec_args(p)
    p.add_argument("--beta", type=float)
    p.add_argument("--dt-minutes", type=float)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="flow matrices over the beta and dt grids")
    _add_spec_args(p)
    p.add_argument("--beta-grid", type=_parse_grid)
    p.add_argument("--dt-grid-minutes", type=_parse_grid)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", help="re-aggregate stored infection logs")
    _add_spec_args(p)
    p.add_argument("--assignments", required=True)
    p.add_argument("--events-dir", required=True)
    p.set_defaults(func=cmd_analyze)

    return parser


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", help="ExperimentSpec JSON file; flags override it")
    p.add_argument("--input", help="trip CSV path")
    p.add_argument("--synth-config", help="SynthConfig JSON (used when no --input)")
    p.add_argument("--min-trips", type=int, dest="min_trips")
    p.add_argument("--k", type=int)
    p.add_argument("--distance-model", choices=("haversine", "planar"), dest="distance_model")
    p.add_argument("--seeds", type=int)
    p.add_argument("--runs", type=int)
    p.add_argument("--infectious-days", type=float, dest="infectious_days")
    p.add_argument("--master-seed", type=int, dest="master_seed")
    p.add_argument("--out-dir", dest="out_dir")


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        logger.error("%s", exc)
        return EXIT_USAGE
    except (SchemaError, DataIntegrityError, DegenerateClusteringError, OSError, ValueError) as exc:
        logger.error("%s", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
