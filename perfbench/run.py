"""Benchmark of the transitepi command line, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

The program is reached only through ``transitepi.cli.main``, with the
checkout's own ``src`` on the path.  A run alternates two kinds of step, each
in a fresh interpreter:

  * set-up: ``generate`` the workload's synthetic month from the seed, then
    ``ingest`` it; done SETUPS times per run;
  * timed: the workload's analysis commands, repeated until their wall time
    reaches --seconds (and at least the workload's minimum).

Set-up and timed steps are interleaved so that a slow spell of a shared host
falls on both kinds of step instead of on one.  Every timed step's outputs
are checked (see checks.py).  The last line of standard output is one JSON
object: with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
metrics from spans recorded around the program's functions (see tracer.py).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUPS = 3
RUN_BUDGET_S = 165.0  # a run must end within 180 s
INFECTIOUS_DAYS = 5
SWEEP_BETAS = (0.1, 0.25, 1.0)
SWEEP_DTS = (0.0, 60.0)
SIM_DT_MINUTES = 60.0
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _grid(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def _common(trips, p) -> list:
    return ["--input", str(trips), "--min-trips", str(checks.MIN_TRIPS), "--seeds", str(p["seeds"]),
            "--infectious-days", str(INFECTIOUS_DAYS), "--master-seed", str(p["master_seed"])]


class ClassifyCity:
    name = "classify-city"
    min_timed = 1
    full = {"passengers": 3000}
    tiny = {"passengers": 200}

    def commands(self, trips, out, p):
        return [["classify", "--input", str(trips), "--min-trips", str(checks.MIN_TRIPS), "--k", str(checks.K),
                 "--out-assignments", str(out / "assignments.csv"),
                 "--out-summary", str(out / "classification.json"),
                 "--out-mobility", str(out / "mobility.csv")]]

    def check(self, out, facts, p):
        checks.check_classify(out, facts)


class SweepGrid:
    name = "sweep-grid"
    min_timed = 2  # the determinism check compares two sweeps of one run
    full = {"passengers": 2000, "runs": 10, "seeds": 100}
    tiny = {"passengers": 200, "runs": 2, "seeds": 10}

    def commands(self, trips, out, p):
        return [["sweep", *_common(trips, p), "--runs", str(p["runs"]), "--beta-grid", _grid(SWEEP_BETAS),
                 "--dt-grid-minutes", _grid(SWEEP_DTS), "--out-dir", str(out)]]

    def check(self, out, facts, p):
        checks.check_sweep(out, facts, SWEEP_BETAS, SWEEP_DTS, p["runs"], p["seeds"], p["master_seed"])


class SimulateAnalyze:
    name = "simulate-analyze"
    min_timed = 1
    full = {"passengers": 2000, "runs": 20, "seeds": 100}
    tiny = {"passengers": 200, "runs": 3, "seeds": 10}

    def commands(self, trips, out, p):
        sim = out / "sim"
        return [["simulate", *_common(trips, p), "--runs", str(p["runs"]), "--beta", "1",
                 "--dt-minutes", f"{SIM_DT_MINUTES:g}", "--out-dir", str(sim)],
                ["analyze", "--input", str(trips), "--min-trips", str(checks.MIN_TRIPS),
                 "--assignments", str(sim / "assignments.csv"), "--events-dir", str(sim),
                 "--out-dir", str(out / "analysis")]]

    def check(self, out, facts, p):
        checks.check_simulate_analyze(out, facts, p["runs"], p["seeds"], 60.0 * SIM_DT_MINUTES,
                                      INFECTIOUS_DAYS * 86_400.0)


WORKLOADS = {w.name: w for w in (ClassifyCity(), SweepGrid(), SimulateAnalyze())}


class StepFailed(Exception):
    pass


class Step:
    def __init__(self, kind, wall, cpu, rss_mb, codes, n_commands, trace):
        self.kind = kind
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.attempted = n_commands
        self.failed = n_commands - sum(1 for c in codes if c == 0)
        self.trace = trace


def run_process(argv, log_path, deadline):
    """Run argv to its end (killed at `deadline`); return its wall and CPU seconds."""
    env = dict(os.environ, **SINGLE_THREAD)
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime


def run_step(kind, index, commands, work, trace, deadline) -> Step:
    spec = work / f"{kind}{index}.step.json"
    result = work / f"{kind}{index}.result.json"
    spec.write_text(json.dumps({"src": str(SRC), "commands": commands, "trace": trace,
                                "result": str(result)}), encoding="utf-8")
    wall, cpu = run_process([sys.executable, str(HERE / "step.py"), str(spec)], work / "steps.log", deadline)
    outcome = json.loads(result.read_text(encoding="utf-8")) if result.exists() else {"codes": []}
    return Step(kind, wall, cpu, outcome.get("peak_rss_mb"), outcome["codes"], len(commands),
                outcome.get("trace"))


def params(workload, seed: int, tiny: bool) -> dict:
    return dict(workload.tiny if tiny else workload.full, master_seed=7 * seed)


def run(workload, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns its steps and the first failed check's message, or None."""
    p = params(workload, seed, tiny)
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trips, report, out = work / "trips.csv", work / "ingest_report.json", work / "out"
    setup_commands = [
        ["generate", "--out", str(trips), "--passengers", str(p["passengers"]), "--seed", str(seed),
         "--days", "30", "--routes", "30", "--stops-per-route", "20"],
        ["ingest", "--input", str(trips), "--min-trips", str(checks.MIN_TRIPS), "--report", str(report)],
    ]
    deadline = time.monotonic() + RUN_BUDGET_S
    steps, state = [], {}

    def execute(kind, commands):
        step = run_step(kind, len(steps), commands, work, trace, deadline)
        steps.append(step)
        if step.failed:
            raise StepFailed(f"{kind} step failed; see {work / 'steps.log'}")

    def setup():
        execute("setup", setup_commands)
        digest = checks.sha256(trips)
        if "facts" not in state:
            state["trips"], state["facts"] = digest, checks.TripFacts(trips)
        checks.require(digest == state["trips"], "generate: trips.csv differs between set-ups of one seed")
        checks.check_setup(report, state["facts"])

    def timed():
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        execute("timed", workload.commands(trips, out, p))
        workload.check(out, state["facts"], p)
        digest = checks.digest_dir(out)
        checks.check_same_artifacts(state.setdefault("out", digest), digest, workload.name)

    def need_timed():
        done = [s.wall for s in steps if s.kind == "timed"]
        if len(done) < workload.min_timed:
            return True
        return sum(done) < seconds and time.monotonic() + 1.5 * max(done) < deadline

    error = None
    try:
        for _ in range(1 if tiny else SETUPS):
            setup()
            if need_timed():
                timed()
        while need_timed():
            timed()
    except StepFailed as exc:
        print(exc, file=sys.stderr)  # counted in `failed`; the outputs made so far were checked
    except checks.CheckFailed as exc:
        error = str(exc)
    return steps, error


def _median(steps, kind, value):
    values = [value(s) for s in steps if s.kind == kind]
    return statistics.median(values) if values else None


def end_to_end(steps) -> dict:
    return {
        "wall_s": (_median(steps, "timed", lambda s: s.wall), "s"),
        "cpu_s": (_median(steps, "timed", lambda s: s.cpu), "s"),
        "setup_s": (_median(steps, "setup", lambda s: s.wall), "s"),
        "peak_rss_mb": (_median(steps, "timed", lambda s: s.rss_mb), "MiB"),
    }


def per_layer(steps) -> dict:
    """Median over set-up steps plus median over timed steps of each layer's value."""
    traced = [(s.kind, {**tracer.layer_seconds(s.trace["spans"]), **s.trace["counts"]})
              for s in steps if s.trace is not None]
    out = {}
    for metric in [*tracer.LAYERS, *tracer.COUNTS]:
        is_count = metric in tracer.COUNTS
        total = 0
        for kind in ("setup", "timed"):
            values = [v[metric] for k, v in traced if k == kind]
            if values:
                total += (statistics.median_low if is_count else statistics.median)(values)
        out[metric] = (total, "count" if is_count else "s")
    out["trace.cpu_s"] = (_median(steps, "timed", lambda s: s.cpu), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a small input that runs in seconds")
    args = parser.parse_args(argv)
    if not (SRC / "transitepi" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'transitepi' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "transitepi"), quiet=1)

    workload = WORKLOADS[args.workload]
    steps, error = run(workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    metrics = per_layer(steps) if args.trace else end_to_end(steps)
    result = {
        "correct": error is None,
        "attempted": sum(s.attempted for s in steps),
        "failed": sum(s.failed for s in steps),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items() if v is not None},
    }
    work = WORK / workload.name
    steps_out = [{"kind": s.kind, "wall_s": s.wall, "cpu_s": s.cpu, "peak_rss_mb": s.rss_mb} for s in steps]
    (work / "result.json").write_text(json.dumps(dict(result, steps=steps_out), indent=2) + "\n",
                                      encoding="utf-8")
    if args.trace:
        missing = sorted({m for s in steps if s.trace for m in s.trace["missing"]})
        if missing:
            print(f"traced names missing from the program: {', '.join(missing)}", file=sys.stderr)
        (work / "trace.json").write_text(json.dumps({
            "missing": missing,
            "steps": [{"kind": s.kind, "wall_s": s.wall, "cpu_s": s.cpu, "spans": s.trace["spans"],
                       "counts": s.trace["counts"]} for s in steps if s.trace is not None],
        }) + "\n", encoding="utf-8")
    if error is not None:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
