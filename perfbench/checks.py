"""Output checks for the benchmark's workloads.

Every check compares the program's output files with facts the benchmark
computes itself from the trip CSV, or with properties the method must have.
No output of an earlier run serves as a reference.  A failed check raises
CheckFailed with a message naming the file and the entry.

No check asserts that infected sets are nested across beta or d_t: that
property does not hold at workload scale, because an earlier infection also
recovers earlier and can miss later exposures.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

MIN_TRIPS = 15
K = 2
GROUP_NAMES = tuple(
    f"{e}_{c}_{d}" for e in ("exp", "ret") for c in ("high", "low") for d in ("long", "short")
)
TRIP_COLUMNS = (
    "card_id", "vehicle_id", "board_time", "alight_time",
    "board_stop_id", "board_lat", "board_lon", "alight_stop_id", "alight_lat", "alight_lon",
)
EARTH_RADIUS_M = 6_371_000.0
GYRATION_SAMPLE = 200
CSV_ATOL = 2e-9  # three values printed with 9 decimals: each off by at most 5e-10


class CheckFailed(Exception):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_rows(path, header):
    require(Path(path).is_file(), f"{path}: missing")
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        require(first == list(header), f"{path}: header {first!r}, expected {list(header)!r}")
        rows = list(reader)
    for i, row in enumerate(rows):
        require(len(row) == len(header), f"{path}: row {i + 2} has {len(row)} fields")
    return rows


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digest_dir(path) -> dict:
    """sha256 of every file under `path`, keyed by relative path."""
    root = Path(path)
    return {str(p.relative_to(root)): sha256(p) for p in sorted(root.rglob("*")) if p.is_file()}


def check_same_artifacts(first: dict, later: dict, what: str) -> None:
    require(first.keys() == later.keys(), f"{what}: file sets differ: {sorted(first.keys() ^ later.keys())}")
    differ = sorted(name for name in first if first[name] != later[name])
    require(not differ, f"{what}: not byte-identical across invocations: {differ}")


# ---------------------------------------------------------------------------
# facts computed from the trip CSV alone


class TripFacts:
    """What the checks need to know about a trip CSV, computed apart from the program."""

    def __init__(self, path) -> None:
        rows = read_rows(path, TRIP_COLUMNS)
        self.total_rows = len(rows)
        counts = {}
        for row in rows:
            counts[row[0]] = counts.get(row[0], 0) + 1
        self.population = sorted(c for c, n in counts.items() if n >= MIN_TRIPS)
        keep = set(self.population)
        self.rows = [row for row in rows if row[0] in keep]
        require(self.rows, f"{path}: no card has {MIN_TRIPS} trips")
        self.board = np.array([float(r[2]) for r in self.rows])
        self.alight = np.array([float(r[3]) for r in self.rows])
        self.start_time = float(self.board.min())
        self.end_time = float(self.alight.max())
        self.rides = {}
        for row, a, b in zip(self.rows, self.board, self.alight):
            self.rides.setdefault((row[0], row[1]), []).append((float(a), float(b)))
        self._pairs = None

    def rides_at(self, card: str, vehicle: str, t: float) -> bool:
        return any(a <= t <= b for a, b in self.rides.get((card, vehicle), ()))

    def boards_at(self, card: str, vehicle: str, t: float) -> bool:
        return any(a == t for a, _ in self.rides.get((card, vehicle), ()))

    def direct_pairs(self) -> np.ndarray:
        """Card-index pairs (i, j) of distinct cards whose rides on one vehicle overlap.

        One row per overlapping pair of rides; intervals are closed, so a ride
        that ends when another begins overlaps it.
        """
        if self._pairs is None:
            index = {c: i for i, c in enumerate(self.population)}
            card = np.array([index[r[0]] for r in self.rows])
            _, vehicle = np.unique([r[1] for r in self.rows], return_inverse=True)
            order = np.lexsort((self.board, vehicle))
            card, vehicle = card[order], vehicle[order]
            board, alight = self.board[order], self.alight[order]
            # rides on one vehicle are contiguous and sorted by boarding time;
            # ride p overlaps every later ride on that vehicle boarding by alight[p]
            bounds = np.flatnonzero(np.diff(vehicle)) + 1
            ends = np.empty(len(order), dtype=np.int64)
            for lo, hi in zip(np.r_[0, bounds], np.r_[bounds, len(order)]):
                ends[lo:hi] = lo + np.searchsorted(board[lo:hi], alight[lo:hi], side="right")
            first = np.arange(len(order))
            n_later = ends - first - 1
            left = np.repeat(first, n_later)
            offsets = np.arange(len(left)) - np.repeat(np.cumsum(n_later) - n_later, n_later)
            right = left + 1 + offsets
            pairs = np.stack([card[left], card[right]], axis=1)
            self._pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        return self._pairs

    def component_sizes(self) -> list:
        """Component sizes of the direct-contact graph, largest first (plain union-find)."""
        parent = list(range(len(self.population)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in np.unique(np.sort(self.direct_pairs(), axis=1), axis=0).tolist():
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
        sizes = {}
        for i in range(len(parent)):
            r = find(i)
            sizes[r] = sizes.get(r, 0) + 1
        return sorted(sizes.values(), reverse=True)

    def visits(self, cards) -> dict:
        """card -> {stop id -> [lat, lon, visits]} over the boardings and alightings of `cards`."""
        out = {card: {} for card in cards}
        for row in self.rows:
            stops = out.get(row[0])
            if stops is None:
                continue
            for sid, lat, lon in ((row[4], row[5], row[6]), (row[7], row[8], row[9])):
                stops.setdefault(sid, [float(lat), float(lon), 0])[2] += 1
        return out


def check_setup(report_path, facts: TripFacts) -> None:
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    require(report["total_rows"] == facts.total_rows,
            f"{report_path}: total_rows {report['total_rows']}, CSV has {facts.total_rows}")
    require(report["accepted"] == facts.total_rows and not report["rejected_by_reason"],
            f"{report_path}: generated rows rejected: {report['rejected_by_reason']}")


def check_assignments(path, facts: TripFacts) -> dict:
    """Assigned cards are exactly the cards with at least MIN_TRIPS trips."""
    rows = read_rows(path, ("card_id", "group"))
    cards = [r[0] for r in rows]
    require(len(cards) == len(set(cards)), f"{path}: duplicate cards")
    missing = sorted(set(facts.population) - set(cards))
    extra = sorted(set(cards) - set(facts.population))
    require(not missing and not extra, f"{path}: missing cards {missing[:3]}, unexpected cards {extra[:3]}")
    for card, group in rows:
        require(group in GROUP_NAMES, f"{path}: card {card} has group {group!r}")
    return dict(rows)


# ---------------------------------------------------------------------------
# classify-city


def _wcss(x: np.ndarray) -> float:
    return float(((x - x.mean()) ** 2).sum())


def check_two_means(values, high, axis: str) -> None:
    """`high` must be the exhaustive two-means split of the min-max-normalised values."""
    v = np.asarray(values, dtype=float)
    high = np.asarray(high, dtype=bool)
    require(v.max() > v.min(), f"{axis}: a single distinct value")
    x = (v - v.min()) / (v.max() - v.min())
    s = np.sort(x)
    best_cost, best_cut = math.inf, None
    for cut in np.flatnonzero(s[1:] != s[:-1]) + 1:
        cost = _wcss(s[:cut]) + _wcss(s[cut:])
        if cost < best_cost:
            best_cost, best_cut = cost, cut
    if np.array_equal(x >= s[best_cut], high):
        return
    # a different labelling passes only as an equally good threshold split
    require(high.any() and not high.all(), f"{axis}: one cluster is empty")
    require(x[~high].max() < x[high].min(), f"{axis}: labels are not a threshold split")
    cost = _wcss(x[~high]) + _wcss(x[high])
    require(cost <= best_cost * (1 + 1e-9), f"{axis}: split cost {cost!r} exceeds the optimum {best_cost!r}")


def _haversine(lat1, lon1, lat2, lon2) -> float:
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    a = math.sin((p2 - p1) / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.atan2(math.sqrt(a), math.sqrt(1 - a))


def gyration(points) -> float:
    """Direct summation: weighted RMS great-circle distance from the spherical centroid."""
    if len(points) == 1:
        return 0.0
    sx = sy = sz = total = 0.0
    for lat, lon, w in points:
        phi, lam = math.radians(lat), math.radians(lon)
        sx += w * math.cos(phi) * math.cos(lam)
        sy += w * math.cos(phi) * math.sin(lam)
        sz += w * math.sin(phi)
        total += w
    norm = math.sqrt(sx * sx + sy * sy + sz * sz)
    clat, clon = math.degrees(math.asin(sz / norm)), math.degrees(math.atan2(sy, sx))
    acc = sum(w * _haversine(lat, lon, clat, clon) ** 2 for lat, lon, w in points)
    return math.sqrt(acc / total)


def check_classify(out, facts: TripFacts) -> None:
    out = Path(out)
    groups = check_assignments(out / "assignments.csv", facts)
    summary = json.loads((out / "classification.json").read_text(encoding="utf-8"))
    require(summary["population"] == len(facts.population), "classification.json: wrong population")
    sizes = Counter(groups.values())
    for name in GROUP_NAMES:
        require(summary["sizes"][name] == sizes[name], f"classification.json: size of {name} is not {sizes[name]}")

    path = out / "mobility.csv"
    rows = read_rows(path, ("card_id", "rg_m", "rgk_m", "k", "encounters"))
    require([r[0] for r in rows] == facts.population, f"{path}: cards differ from the population")
    require(all(r[3] == str(K) for r in rows), f"{path}: k is not {K}")
    rg = np.array([float(r[1]) for r in rows])
    rgk = np.array([float(r[2]) for r in rows])
    enc = np.array([int(r[4]) for r in rows])
    labels = [groups[r[0]].split("_") for r in rows]

    for (card, *_), (exploration, _, _), g, gk in zip(rows, labels, rg, rgk):
        if g > 0 and abs(gk - g / 2) <= 1e-6:
            continue  # within the CSV's rounding of the boundary
        expected = "ret" if g == 0 or gk > g / 2 else "exp"
        require(exploration == expected, f"{card}: rg={g} rgk={gk} labelled {exploration}, rule says {expected}")
    check_two_means(rg, [d == "long" for _, _, d in labels], "distance")
    check_two_means(enc, [c == "high" for _, c, _ in labels], "connectivity")

    pairs = len(facts.direct_pairs())
    require(int(enc.sum()) == 2 * pairs, f"{path}: encounters sum to {enc.sum()}, expected 2 x {pairs} pairs")

    sample = list(zip(facts.population, rg, rgk))[:: max(1, len(rows) // GYRATION_SAMPLE)]
    visits_of = facts.visits(card for card, _, _ in sample)
    for card, g, gk in sample:
        visits = visits_of[card]
        points = list(visits.values())
        ranked = sorted(visits, key=lambda sid: (-visits[sid][2], sid))[:K]
        for name, got, want in (("rg", g, gyration(points)),
                                ("rgk", gk, gyration([visits[sid] for sid in ranked]))):
            require(abs(got - want) <= 1e-6 + 1e-9 * want, f"{card}: {name} {got} vs direct summation {want}")


# ---------------------------------------------------------------------------
# sweep-grid


def read_matrix(path) -> np.ndarray:
    rows = read_rows(path, ("group",) + GROUP_NAMES)
    require([r[0] for r in rows] == list(GROUP_NAMES), f"{path}: row labels differ from the groups")
    values = np.array([[float(v) for v in r[1:]] for r in rows])
    require(np.isfinite(values).all(), f"{path}: non-finite entry")
    return values


def check_sweep(out, facts: TripFacts, betas, dts, n_runs: int, n_seeds: int, master_seed: int) -> None:
    out = Path(out)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    params = manifest["parameters"]
    require(params["beta_grid"] == list(betas) and params["dt_grid_minutes"] == list(dts),
            "manifest.json: grids differ from the command line")
    require((params["n_runs"], params["n_seeds"], params["master_seed"]) == (n_runs, n_seeds, master_seed),
            "manifest.json: runs, seeds or master seed differ from the command line")
    require(Path(manifest["dataset"]).is_file(), "manifest.json: dataset does not exist")
    check_assignments(out / "assignments.csv", facts)

    flows = {}
    for entry in manifest["matrices"]:
        values = read_matrix(out / entry["path"])
        require((values >= 0).all(), f"{entry['path']}: negative flow")
        flows[(entry["beta"], entry["dt_minutes"])] = values
    require(sorted(flows) == sorted((b, d) for b in betas for d in dts), "manifest.json: grid points missing")

    diffs = manifest["differences"]
    require(len(diffs) == len(betas) * (len(dts) - 1) + len(dts) * (len(betas) - 1),
            f"manifest.json: {len(diffs)} difference matrices")
    for entry in diffs:
        if entry["axis"] == "dt":
            base = flows[(entry["beta"], entry["baseline_dt_minutes"])]
        else:
            base = flows[(entry["baseline_beta"], entry["dt_minutes"])]
        variant = flows[(entry["beta"], entry["dt_minutes"])]
        error = np.abs(read_matrix(out / entry["path"]) - (variant - base)).max()
        require(error <= CSV_ATOL, f"{entry['path']}: off from variant - baseline by {error}")


# ---------------------------------------------------------------------------
# simulate-analyze

EVENT_COLUMNS = ("infector", "infectee", "time", "vehicle_id", "kind")


def check_attribution(path, events, facts: TripFacts, n_seeds: int, d_t: float, infectious: float) -> None:
    """Who infected whom, when and where, against the raw trips."""
    infected = {}
    for infector, infectee, t, vehicle, kind in events:
        require(infectee not in infected, f"{path}: {infectee} infected twice")
        require(kind in ("direct", "indirect"), f"{path}: kind {kind!r}")
        require(infector != infectee, f"{path}: {infectee} infected itself")
        infected[infectee] = t
    seeds = {e[0] for e in events} - infected.keys()
    require(len(seeds) <= n_seeds, f"{path}: {len(seeds)} infectors are never infected, more than {n_seeds} seeds")
    for infector, infectee, t, vehicle, kind in events:
        where = f"{path}: {infector}->{infectee} at {t!r} on {vehicle}"
        t_u = infected.get(infector, facts.start_time)
        require(facts.start_time <= t_u <= t, f"{where}: infector infected at {t_u!r}")
        if kind == "direct":
            require(t < t_u + infectious, f"{where}: infector recovered")
            require(facts.rides_at(infector, vehicle, t), f"{where}: infector not on board")
            require(facts.rides_at(infectee, vehicle, t), f"{where}: infectee not on board")
        else:
            require(facts.boards_at(infectee, vehicle, t), f"{where}: infectee does not board then")
            require(any(b >= t_u and a < t_u + infectious and t - d_t <= b < t
                        for a, b in facts.rides.get((infector, vehicle), ())),
                    f"{where}: no infectious ride of the infector ended within d_t before")


def check_simulate_analyze(out, facts: TripFacts, n_runs: int, n_seeds: int, d_t: float, infectious: float) -> None:
    sim, analysis = Path(out) / "sim", Path(out) / "analysis"
    check_assignments(sim / "assignments.csv", facts)
    summary = json.loads((sim / "summary.json").read_text(encoding="utf-8"))["ensemble"]
    per_run = summary["per_run_infections"]
    require(summary["n_runs"] == n_runs and len(per_run) == n_runs, "summary.json: wrong number of runs")
    names = sorted(p.name for p in sim.glob("infections_run*.csv"))
    require(names == [f"infections_run{i:03d}.csv" for i in range(n_runs)], f"infection logs: {names}")
    for name, count in zip(names, per_run):
        rows = read_rows(sim / name, EVENT_COLUMNS)
        require(len(rows) == count, f"{name}: {len(rows)} rows, summary.json says {count}")
        events = [(a, b, float(t), v, k) for a, b, t, v, k in rows]
        check_attribution(sim / name, events, facts, n_seeds, d_t, infectious)
    mean = sum(per_run) / n_runs
    require(abs(summary["mean_infections"] - mean) <= 1e-9 * max(1.0, mean), "summary.json: mean_infections")

    require((analysis / "flow_matrix.csv").read_bytes() == (sim / "flow_matrix.csv").read_bytes(),
            "analysis/flow_matrix.csv differs from simulate's")
    for path in (sim / "group_summary.csv", analysis / "group_summary.csv"):
        rows = read_rows(path, ("group", "population", "total_encounters", "total_transmitted",
                                "total_received", "avg_encounters_per_individual",
                                "avg_transmissions_per_individual", "avg_receptions_per_individual"))
        require(sum(int(r[1]) for r in rows) == len(facts.population), f"{path}: populations")
        for column, label in ((3, "transmitted"), (4, "received")):
            total = sum(float(r[column]) for r in rows)
            require(abs(total - mean) <= 1e-6, f"{path}: total {label} {total} != mean infections {mean}")

    sizes = json.loads((analysis / "components.json").read_text(encoding="utf-8"))["component_sizes"]
    require(sum(sizes) == len(facts.population), "components.json: sizes do not sum to the population")
    require(sizes == facts.component_sizes(), "components.json: differs from a union-find over the trips")
    rows = read_rows(analysis / "degree_distribution.csv", ("degree", "count"))
    degrees = [(int(d), int(c)) for d, c in rows]
    require(sum(c for _, c in degrees) == len(facts.population), "degree_distribution.csv: counts")
    pairs = len(facts.direct_pairs())
    require(sum(d * c for d, c in degrees) == 2 * pairs,
            f"degree_distribution.csv: degree sum is not 2 x {pairs} pairs")
