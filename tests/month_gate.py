"""Month-level statistics of two trip generators, compared across dataset seeds.

Usage: python tests/month_gate.py OLD_SRC NEW_SRC

Each side is a checkout's `src` directory.  For every dataset seed 1..SEEDS
each side synthesizes one month of PASSENGERS passengers (30 days, 30
routes of 20 stops) with `synth.synthesize`, the function `generate` writes
from, and takes each card's row and legs from `synth._people_and_legs`, the
helper `generate_passengers` rides, on a generator replayed to the same
state.  The cards per archetype come from `_apportion`, which draws nothing,
so they are checked for equality month by month and not tested.  The
statistics tested are those the draws can move: trips per card (mean, p10,
p50, p90), the novel share of roamer legs (legs off the card's anchor ride),
the share of each of the eight `classify` groups, exposure rows per card at
d_t = 0 and 60 min, and the mean infections of `simulate --beta 1
--dt-minutes 60 --seeds 100 --runs 20 --infectious-days 5 --master-seed 7`,
the last three kinds on the month filtered at 15 trips.  Each statistic's
two sets of months are compared with Welch's t.  A statistic is flagged
when |t| exceeds the normal quantile of a Bonferroni cut at family-wise
alpha = 0.01 over the statistics tested; with ten months a side the normal
quantile flags more readily than Student's t would.  The report is a
plain-text table.

A generator redraw that keeps every law of the draws should flag nothing.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import NormalDist, fmean, variance

ALPHA = 0.01
MIN_TRIPS = 15
SEEDS = 10
PASSENGERS = 2000


def month(seed: int) -> dict:
    """One month's cards per archetype and statistics, from the `transitepi` on `sys.path`."""
    import numpy as np

    from transitepi.classify import GROUP_NAMES, classify_population
    from transitepi.cli import main
    from transitepi.contacts import build_exposure_log
    from transitepi.ingest import filter_by_min_trips, write_trip_csv
    from transitepi.mobility import mobility_table
    from transitepi.synth import ARCHETYPES, SynthConfig, _people_and_legs, generate_network, synthesize

    config = SynthConfig(n_passengers=PASSENGERS, rng_seed=seed, days=30, n_routes=30, stops_per_route=20)
    _, trips = synthesize(config)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    people, legs = _people_and_legs(config, generate_network(config, rng), rng)
    if len(legs) != len(trips):
        raise RuntimeError(f"seed {seed}: {len(legs)} legs replayed for {len(trips)} trips synthesized")

    per_card = np.bincount(trips.card)
    stats = {"trips/card mean": per_card.mean()}
    for q in (10, 50, 90):
        stats[f"trips/card p{q}"] = np.percentile(per_card, q)
    route, a, b = people[legs[:, 0], 1:4].T
    forth, back = (legs[:, 3] == a) & (legs[:, 4] == b), (legs[:, 3] == b) & (legs[:, 4] == a)
    anchored = (legs[:, 1] == route) & (forth | back)
    roamer = people[legs[:, 0], 0] == ARCHETYPES.index("roamer")
    stats["novel share of roamer legs"] = 1 - anchored[roamer].mean()

    kept = filter_by_min_trips(trips, MIN_TRIPS)
    groups = np.bincount(classify_population(mobility_table(kept)).assignments.group, minlength=len(GROUP_NAMES))
    stats.update({f"share {name}": groups[g] / groups.sum() for g, name in enumerate(GROUP_NAMES)})
    for minutes in (0, 60):
        stats[f"exposures/card dt={minutes}"] = len(build_exposure_log(kept, 60.0 * minutes)) / len(kept.cards)

    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "trips.csv"
        write_trip_csv(trips, path)
        argv = ["simulate", "--input", str(path), "--beta", "1", "--dt-minutes", "60", "--seeds", "100", "--runs", "20",
                "--min-trips", str(MIN_TRIPS), "--infectious-days", "5", "--master-seed", "7",
                "--out-dir", str(Path(work) / "sim")]
        if main(argv) != 0:
            raise RuntimeError(f"simulate failed on seed {seed}")
        summary = json.loads((Path(work) / "sim" / "summary.json").read_text())
        stats["mean infections"] = summary["ensemble"]["mean_infections"]
    cards = np.bincount(people[:, 0], minlength=len(ARCHETYPES)).tolist()
    return {"cards": cards, "stats": {name: float(value) for name, value in stats.items()}}


def side(src: str) -> list:
    """Every month of one generator, each from a fresh interpreter whose `sys.path` starts with `src`."""
    out = []
    for seed in range(1, SEEDS + 1):
        code = f"import sys; sys.path.insert(0, {src!r}); sys.path.insert(0, {str(Path(__file__).parent)!r}); " \
               f"import json, month_gate; print(json.dumps(month_gate.month({seed})))"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        out.append(json.loads(run.stdout.splitlines()[-1]))
    return out


def welch(x: list, y: list) -> tuple:
    """Welch's t of the difference y - x, and its Welch-Satterthwaite degrees of freedom; 0 for two equal constants."""
    vx, vy = variance(x) / len(x), variance(y) / len(y)
    diff = fmean(y) - fmean(x)
    if vx + vy == 0:
        return (0.0 if diff == 0 else math.copysign(math.inf, diff)), math.nan
    df = (vx + vy) ** 2 / (vx ** 2 / (len(x) - 1) + vy ** 2 / (len(y) - 1))
    return diff / math.sqrt(vx + vy), df


def bonferroni_cut(n_statistics: int) -> float:
    """The |z| above which one of n_statistics two-sided tests is flagged, at family-wise alpha = ALPHA."""
    return NormalDist().inv_cdf(1 - ALPHA / (2 * n_statistics))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    args = parser.parse_args(argv)
    old, new = side(args.old_src), side(args.new_src)
    unequal = [seed for seed, (x, y) in enumerate(zip(old, new), 1) if x["cards"] != y["cards"]]
    print(f"cards per archetype: {'unequal on seeds ' + str(unequal) if unequal else 'equal on every seed'}")
    old, new = [m["stats"] for m in old], [m["stats"] for m in new]
    names = list(old[0])
    cut = bonferroni_cut(len(names))
    print(f"{SEEDS} months a side, {PASSENGERS} passengers; flag |t| > {cut:.3f} "
          f"(alpha {ALPHA} over {len(names)} statistics)")
    print(f"{'statistic':32s} {'old mean':>12s} {'new mean':>12s} {'new-old':>10s} {'t':>7s} {'df':>5s}")
    flags = 0
    for name in names:
        x, y = [m[name] for m in old], [m[name] for m in new]
        t, df = welch(x, y)
        flag = abs(t) > cut
        flags += flag
        print(f"{name:32s} {fmean(x):12.4f} {fmean(y):12.4f} {fmean(y) - fmean(x):10.4f} {t:7.2f} {df:5.1f}"
              f"{'  FLAG' if flag else ''}")
    print(f"{flags} flagged")
    return 1 if flags or unequal else 0


if __name__ == "__main__":
    sys.exit(main())
