"""Command-line pipeline: generate | ingest | classify | simulate | sweep | analyze.

Every parameter can come from a JSON spec file (--spec) or a flag; flags win.
Data goes to files, logs go to stderr.  Exit codes: 0 success, 1 usage or
configuration error, 2 data error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import logging
import os
import shutil
import sys
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .artifacts import DataIntegrityError, write_csv, write_json
from .classify import (Assignments, ClassificationResult, classify_population, read_assignments_csv,
                       write_assignments_csv)
from .contacts import (
    build_exposure_log,
    connected_components,
    degree_distribution,
    encounter_counts,
    write_histogram_csv,
)
from .flows import GroupMatrix, chord_export, count_events, difference_matrix, group_flow_matrix, per_group_summary
from .ingest import (
    SchemaError,
    TripTable,
    check_delimiter,
    check_thresholds,
    filter_by_min_trips,
    parse_trip_records,
    population_vs_threshold,
    trip_frequency_distribution,
    write_trip_csv,
)
from .mobility import DEFAULT_K, MobilityTable, mobility_table, write_mobility_csv
from .sim import (DEFAULT_INFECTIOUS_PERIOD_S, DEFAULT_RUNS, DEFAULT_SEEDS, SimConfig, SimOutcome, read_infection_csv,
                  run_ensemble, run_lanes, write_infection_csv)
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
    k: int = DEFAULT_K
    min_trips: int = DEFAULT_MIN_TRIPS
    beta: float = 1.0
    dt_minutes: float = 0.0
    n_seeds: int = DEFAULT_SEEDS
    infectious_days: float = DEFAULT_INFECTIOUS_PERIOD_S / 86_400.0
    n_runs: int = DEFAULT_RUNS
    master_seed: int = 0
    beta_grid: Tuple[float, ...] = DEFAULT_BETA_GRID
    dt_grid_minutes: Tuple[float, ...] = DEFAULT_DT_GRID_MINUTES
    output_dir: Optional[str] = None

    def validate_grids(self, betas: Sequence[float], dts_minutes: Sequence[float]) -> None:
        """The grids a command simulates: non-empty, strictly ascending, a valid `SimConfig` at every point,
        and no two values of a grid spelt alike in the sweep's file names."""
        for name, grid in (("beta_grid", betas), ("dt_grid_minutes", dts_minutes)):
            if not grid:
                raise UsageError(f"{name} must be non-empty")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise UsageError(f"{name} must be sorted strictly ascending, got {list(grid)}")
            # rounding is monotone, so in a sorted grid only neighbours can share a spelling
            for a, b in zip(grid, grid[1:]):
                if _fmt_num(a) == _fmt_num(b):
                    raise UsageError(f"{name} values {a!r} and {b!r} share the file name part {_fmt_num(a)!r}")
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

    def sim_config(self, dt_minutes: float) -> SimConfig:
        return SimConfig(
            beta=self.beta,
            d_t=60.0 * dt_minutes,
            n_seeds=self.n_seeds,
            infectious_period=self.infectious_days * 86_400.0,
            n_runs=self.n_runs,
            master_seed=self.master_seed,
        )


def _load_fields(path, what: str, cls):
    """A `cls` from a JSON file holding an object that names only fields of `cls`, each with a value of its type.

    Float fields, and grids of floats, given as JSON integers are made floats.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
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
        # a JSON 1 must write as 1.0, as the flag's value does
        if types[key] is float:
            data[key] = float(value)
        elif types[key] == Tuple[float, ...]:
            data[key] = tuple(map(float, value))
    return cls(**data)


def _json_fits(value, hint) -> bool:
    """Whether a JSON value can stand for a field annotated `hint`."""
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


def _override(config, args: argparse.Namespace) -> None:
    """Set each field of the dataclass `config` whose flag was given; a flag's dest is its field's name."""
    for f in dataclasses.fields(config):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(config, f.name, value)


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    spec = _load_fields(args.spec, "spec", ExperimentSpec) if args.spec else ExperimentSpec()
    _override(spec, args)
    if not spec.dataset:
        raise UsageError("no dataset: pass --input or a spec file's dataset")
    if spec.output_dir is None:
        spec.output_dir = os.environ.get(OUTDIR_ENV)
    spec.validate_front_half()  # before any trip is read
    return spec


@contextlib.contextmanager
def _staged(spec: ExperimentSpec, command: str) -> Iterator[Path]:
    """A fresh `<out-dir>/.staging` for the command's files.

    They replace their namesakes in `--out-dir` only if the command succeeds;
    the staging directory is removed either way.
    """
    if spec.output_dir is None:
        raise UsageError(f"{command} needs --out-dir (or {OUTDIR_ENV})")
    out_dir = Path(spec.output_dir)
    staging = out_dir / ".staging"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir(parents=True)
    try:
        yield staging
        for path in staging.iterdir():
            os.replace(path, out_dir / path.name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _filtered_trips(spec: ExperimentSpec) -> TripTable:
    """The dataset's trips of cards with at least `min_trips` trips."""
    trips, report = parse_trip_records(spec.dataset)
    if report.rejected:
        logger.warning("ingest rejected %d of %d rows", report.rejected, report.total_rows)
    filtered = filter_by_min_trips(trips, spec.min_trips)
    if not filtered:
        raise DataIntegrityError(f"no passengers survive the {spec.min_trips}-trip threshold")
    return filtered


def _classified(trips: TripTable, spec: ExperimentSpec) -> Tuple[MobilityTable, ClassificationResult]:
    """The mobility table of the trips and the eight groups."""
    table = mobility_table(trips, k=spec.k)
    return table, classify_population(table)


def _write_tallies(outcomes: Iterable[SimOutcome], assignments: Assignments, cards: Sequence[str],
                   encounters: np.ndarray, staging: Path) -> None:
    """An ensemble's per-group summary, its group flow matrix and the matrix's chord export, from one pass over its runs."""
    events = count_events(outcomes, assignments)
    per_group_summary(events, assignments, cards, encounters).to_csv(staging / "group_summary.csv")
    matrix = group_flow_matrix(events, assignments)
    matrix.to_csv(staging / "flow_matrix.csv")
    chord_export(matrix, path=staging / "chord.json")


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args: argparse.Namespace) -> int:
    config = _load_fields(args.synth_config, "synth config", SynthConfig) if args.synth_config else SynthConfig()
    config.validate()  # the file on its own, before any flag overrides it
    _override(config, args)
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
    try:
        thresholds = [int(t) for t in args.population_thresholds.split(",")]
        check_thresholds(thresholds)
    except ValueError as exc:
        raise UsageError(f"--population-thresholds {args.population_thresholds!r}: {exc}") from None
    trips, report = parse_trip_records(args.input, args.delimiter)
    if args.report:
        write_json(args.report, vars(report))
    filtered = filter_by_min_trips(trips, args.min_trips)
    if args.out:
        write_trip_csv(filtered, args.out)
    if args.freq_csv:
        write_histogram_csv(trip_frequency_distribution(trips), args.freq_csv, value_name="trips_per_card")
    if args.population_csv:
        write_csv(args.population_csv, ["threshold", "population"], population_vs_threshold(trips, thresholds))
    logger.info(
        "accepted %d/%d rows; %d records after min-trips filter (threshold %d)",
        report.accepted, report.total_rows, len(filtered), args.min_trips,
    )
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    trips = _filtered_trips(spec)
    table, result = _classified(trips, spec)
    write_assignments_csv(result, args.out_assignments)
    if args.out_summary:
        write_json(args.out_summary, result.summary)
    if args.out_mobility:
        write_mobility_csv(table, args.out_mobility)
    logger.info("classified %d passengers; shares: %s", len(table.cards), result.shares)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    spec.validate_grids((spec.beta,), (spec.dt_minutes,))  # before any trip is read
    with _staged(spec, "simulate") as staging:
        trips = _filtered_trips(spec)
        config = spec.sim_config(spec.dt_minutes)
        table, result = _classified(trips, spec)  # before the log, so that their transients do not stack
        outcomes = run_ensemble(trips, config)
        write_assignments_csv(result, staging / "assignments.csv")
        for outcome in outcomes:
            write_infection_csv(outcome, staging / f"infections_run{outcome.per_run_seed:03d}.csv")
        _write_tallies(outcomes, result.assignments, table.cards, table.encounters, staging)
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
        write_json(staging / "summary.json", payload)
        for stale in Path(spec.output_dir).glob("infections_run*.csv"):  # an earlier run's, which analyze would add
            if not (staging / stale.name).exists():
                stale.unlink()
    logger.info("simulate: mean infections %.1f over %d runs", mean_infections, config.n_runs)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    spec.validate_grids(spec.beta_grid, spec.dt_grid_minutes)  # before any trip is read
    with _staged(spec, "sweep") as staging:
        _run_sweep(spec, staging)
        logger.info("sweep complete: %d artifacts in %s", len(os.listdir(staging)), spec.output_dir)
    return EXIT_OK


def _run_sweep(spec: ExperimentSpec, staging: Path) -> None:
    """Write every sweep artifact into `staging`."""
    trips = _filtered_trips(spec)
    _, result = _classified(trips, spec)  # before the log, so that their transients do not stack
    log = build_exposure_log(trips, 60.0 * spec.dt_grid_minutes[-1])

    write_assignments_csv(result, staging / "assignments.csv")
    write_json(staging / "classification.json", result.summary)

    matrices: Dict[Tuple[float, float], GroupMatrix] = {}
    # widest column first: each narrower log is a row mask of the one before,
    # which is released, with the lanes that reference it, as it is replaced
    for dt in reversed(spec.dt_grid_minutes):
        log = log.within(60.0 * dt)
        config = spec.sim_config(dt)
        lanes = run_lanes(trips, config, spec.beta_grid, range(config.n_runs), exposures=log)
        for k, beta in enumerate(spec.beta_grid):
            events = count_events(lanes.outcomes(k), result.assignments)
            matrices[(beta, dt)] = group_flow_matrix(events, result.assignments)
            logger.info("sweep point done: beta=%s dt=%sm", _fmt_num(beta), _fmt_num(dt))
        del lanes

    manifest = {
        "dataset": spec.dataset,
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
        manifest["matrices"].append({"beta": beta, "dt_minutes": dt, "path": name})

    dt0 = spec.dt_grid_minutes[0]
    for beta in spec.beta_grid:
        for dt in spec.dt_grid_minutes[1:]:
            diff = difference_matrix(matrices[(beta, dt0)], matrices[(beta, dt)])
            name = f"diff_dt{_fmt_num(dt)}m_vs_dt{_fmt_num(dt0)}m_beta{_fmt_num(beta)}.csv"
            diff.to_csv(staging / name)
            manifest["differences"].append(
                {"axis": "dt", "beta": beta, "baseline_dt_minutes": dt0, "dt_minutes": dt, "path": name}
            )
    for dt in spec.dt_grid_minutes:
        for b_low, b_high in zip(spec.beta_grid, spec.beta_grid[1:]):
            diff = difference_matrix(matrices[(b_low, dt)], matrices[(b_high, dt)])
            name = f"diff_beta{_fmt_num(b_high)}_vs_beta{_fmt_num(b_low)}_dt{_fmt_num(dt)}m.csv"
            diff.to_csv(staging / name)
            manifest["differences"].append(
                {"axis": "beta", "dt_minutes": dt, "baseline_beta": b_low, "beta": b_high, "path": name}
            )

    write_json(staging / "manifest.json", manifest)


def cmd_analyze(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    with _staged(spec, "analyze") as staging:
        trips = _filtered_trips(spec)
        assignments = read_assignments_csv(args.assignments)
        encounters = encounter_counts(trips)

        events_dir = Path(args.events_dir)
        event_files = sorted(events_dir.glob("infections_run*.csv"))
        if not event_files:
            raise DataIntegrityError(f"no infections_run*.csv files under {events_dir}")
        # read one log at a time, as the tallies count it
        outcomes = (read_infection_csv(path) for path in event_files)
        _write_tallies(outcomes, assignments, trips.cards, encounters, staging)
        comps = connected_components(trips)
        write_histogram_csv(degree_distribution(encounters), staging / "degree_distribution.csv", value_name="degree")
        write_json(staging / "components.json", {"component_sizes": comps})
    logger.info("analyze: %d runs aggregated from %s", len(event_files), events_dir)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="transitepi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic trip CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--synth-config", help="SynthConfig JSON file")
    # each flag's dest is the SynthConfig field it sets
    p.add_argument("--passengers", type=int, dest="n_passengers")
    p.add_argument("--routes", type=int, dest="n_routes")
    p.add_argument("--stops-per-route", type=int)
    p.add_argument("--days", type=int)
    p.add_argument("--seed", type=int, dest="rng_seed")
    p.add_argument("--extent-km", type=float, dest="city_extent_km")
    p.add_argument("--min-trips-per-passenger", type=int)
    p.add_argument("--mix", type=_parse_mix, dest="archetype_mix",
                   help="e.g. commuter=0.45,roamer=0.3,long_hauler=0.1,offpeak_regular=0.15")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ingest", help="validate, filter and profile a trip CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--delimiter", default=",")
    p.add_argument("--min-trips", type=int, default=DEFAULT_MIN_TRIPS)
    p.add_argument("--out", help="filtered trip CSV")
    p.add_argument("--report", help="IngestReport JSON")
    p.add_argument("--freq-csv", help="trip frequency histogram CSV")
    p.add_argument("--population-csv", help="population vs threshold CSV")
    p.add_argument("--population-thresholds", default="1,2,5,10,15,20,30", help="comma-separated thresholds")
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
    """The flags every spec command takes; each flag's dest is the ExperimentSpec field it sets."""
    p.add_argument("--spec", help="ExperimentSpec JSON file; flags override it")
    p.add_argument("--input", dest="dataset", help="trip CSV path")
    p.add_argument("--min-trips", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--seeds", type=int, dest="n_seeds")
    p.add_argument("--runs", type=int, dest="n_runs")
    p.add_argument("--infectious-days", type=float)
    p.add_argument("--master-seed", type=int)
    p.add_argument("--out-dir", dest="output_dir")


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        logger.error("%s", exc)
        return EXIT_USAGE
    except (SchemaError, OSError, ValueError, csv.Error, MemoryError) as exc:  # numpy's MemoryError names the size
        logger.error("%s", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
