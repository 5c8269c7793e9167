"""Independent reference implementations used to check the library.

Everything here is deliberately written from first principles (plain loops,
no shared helpers with the package) so a bug in the library cannot hide in
its own oracle.  The one exception is `sir_reference`, which draws its seeds
and keyed uniforms through the package so that its events can be compared
with the simulator's one for one.  `parse_reference` builds its result with
the package's `TripTable.from_columns` and `IngestReport`, which hold none
of the rules it checks.  `passengers_reference` splits the passengers with the
package's `_apportion` and rides its legs with `_ride_legs`; every draw,
anchor, roam list, backstop and novel ride, one scalar draw per call and
card by card, is its own.
`exposure_log_reference` is the exposure build that compared float times
and sorted with a three-key lexsort, kept so that the integer-key build can
be checked against it row for row.
"""

from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, TextIO, Tuple

import numpy as np

from transitepi.contacts import DIRECT, INDIRECT, ExposureLog, build_exposure_log
from transitepi.ingest import (
    REASON_BAD_COORDINATE,
    REASON_BAD_TIMESTAMP,
    REASON_MISSING_FIELD,
    REASON_NON_POSITIVE_DURATION,
    REQUIRED_COLUMNS,
    IngestReport,
    SchemaError,
    TripTable,
)
from transitepi.sim import SimConfig, SimOutcome, _mix64, _run_token, exposure_uniforms
from transitepi.synth import (
    ARCHETYPES,
    COMMUTER_LONG_P,
    LONG_ANCHOR_KM,
    LONG_HAULER_PEAK_P,
    NOVELTY_P,
    OFFPEAK_ACTIVITY,
    PEAK_ACTIVITY,
    ROAM_NEAR_RADIUS_KM,
    ROAMER_PEAK_P,
    BusNetwork,
    SynthConfig,
    _apportion,
    _ride_legs,
)

SUSCEPTIBLE = "S"
INFECTIOUS = "I"
RECOVERED = "R"


# --- trip records, one row at a time ------------------------------------------

def parse_reference(stream: TextIO, delimiter: str = ",") -> Tuple[TripTable, IngestReport]:
    """The trip-CSV rules applied by a `csv` row loop: the reference for `ingest.parse_trip_records`.

    Each row is rejected with the first reason it fails (missing field, bad
    timestamp, bad coordinate, non-positive duration); each time column
    locks to the format of its first cell that parses, epoch seconds before
    ISO-8601; the first accepted row that gives a stop a second coordinate
    pair raises ValueError.
    """
    try:
        header = next(csv.reader(stream, delimiter=delimiter))
    except StopIteration:
        raise SchemaError("empty input: no header row")
    positions = {name.strip(): i for i, name in enumerate(header)}
    missing = [c for c in REQUIRED_COLUMNS if c not in positions]
    if missing:
        raise SchemaError(f"missing required column(s): {', '.join(missing)}")
    rows = _ReferenceRows([positions[c] for c in REQUIRED_COLUMNS])
    rows.read(csv.reader(stream, delimiter=delimiter))
    return rows.table(), rows.report


class _TimeColumn:
    """Per-column timestamp parser for stripped cells.

    The format (epoch seconds or ISO-8601) is locked on the first cell that
    parses; later cells must follow the same format.
    """

    def __init__(self) -> None:
        self.format: Optional[Callable[[str], Optional[float]]] = None

    def parse(self, text: str) -> Optional[float]:
        if not text:
            return None
        for parser in (self.format,) if self.format else (_parse_epoch, _parse_iso):
            value = parser(text)
            if value is not None:
                self.format = parser
                return value
        return None


def _parse_epoch(text: str) -> Optional[float]:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _parse_iso(text: str) -> Optional[float]:
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        return None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _parse_coord(lat_text: str, lon_text: str) -> Optional[Tuple[float, float]]:
    try:
        lat = float(lat_text)
        lon = float(lon_text)
    except ValueError:
        return None
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        return None
    return (lat, lon)


class _ReferenceRows:
    """Accepted rows so far as first-appearance id codes, stop coordinates by stop id, and the report."""

    def __init__(self, idx: List[int]) -> None:
        self.idx = idx
        self.board_col = _TimeColumn()
        self.alight_col = _TimeColumn()
        self.cards: Dict[str, int] = {}
        self.vehicles: Dict[str, int] = {}
        self.stops: Dict[str, int] = {}
        self.stop_lat: List[float] = []
        self.stop_lon: List[float] = []
        self.card: List[int] = []
        self.vehicle: List[int] = []
        self.board_stop: List[int] = []
        self.alight_stop: List[int] = []
        self.board: List[float] = []
        self.alight: List[float] = []
        self.report = IngestReport()

    def stop_code(self, stop_id: str, coord: Tuple[float, float]) -> int:
        code = self.stops.setdefault(stop_id, len(self.stops))
        if code == len(self.stop_lat):
            self.stop_lat.append(coord[0])
            self.stop_lon.append(coord[1])
            return code
        known = (self.stop_lat[code], self.stop_lon[code])
        if known != coord:
            raise ValueError(f"stop {stop_id!r} has two coordinate pairs: {known} and {coord}")
        return code

    def read(self, reader: Iterable[List[str]]) -> None:
        width = max(self.idx) + 1
        report = self.report
        for row in reader:
            report.total_rows += 1
            if len(row) < width:
                report.reject(REASON_MISSING_FIELD)
                continue
            (card_id, vehicle_id, board_text, alight_text,
             b_stop, b_lat, b_lon, a_stop, a_lat, a_lon) = [row[i].strip() for i in self.idx]
            if not card_id or not vehicle_id or not b_stop or not a_stop:
                report.reject(REASON_MISSING_FIELD)
                continue
            board_time = self.board_col.parse(board_text)
            alight_time = self.alight_col.parse(alight_text)
            if board_time is None or alight_time is None:
                report.reject(REASON_BAD_TIMESTAMP)
                continue
            board_coord = _parse_coord(b_lat, b_lon)
            alight_coord = _parse_coord(a_lat, a_lon)
            if board_coord is None or alight_coord is None:
                report.reject(REASON_BAD_COORDINATE)
                continue
            if not board_time < alight_time:
                report.reject(REASON_NON_POSITIVE_DURATION)
                continue
            self.board_stop.append(self.stop_code(b_stop, board_coord))
            self.alight_stop.append(self.stop_code(a_stop, alight_coord))
            self.card.append(self.cards.setdefault(card_id, len(self.cards)))
            self.vehicle.append(self.vehicles.setdefault(vehicle_id, len(self.vehicles)))
            self.board.append(board_time)
            self.alight.append(alight_time)
            report.accepted += 1

    def table(self) -> TripTable:
        cards, vehicles, stops = list(self.cards), list(self.vehicles), list(self.stops)
        return TripTable.from_columns(
            [cards[c] for c in self.card], [vehicles[v] for v in self.vehicle], self.board, self.alight,
            [stops[s] for s in self.board_stop], [stops[s] for s in self.alight_stop],
            {s: (self.stop_lat[c], self.stop_lon[c]) for c, s in enumerate(stops)},
        )


def write_reference(trips: TripTable, path) -> None:
    """Write a table in the canonical trip CSV schema with `csv.writer`, one row at a time.

    A time is written as an integer when it is one, else as its `repr`.
    """
    def time_text(t: float) -> str:
        return str(int(t)) if t == int(t) else repr(t)

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REQUIRED_COLUMNS)
        for k in range(len(trips)):
            b, a = int(trips.board_stop[k]), int(trips.alight_stop[k])
            writer.writerow([
                trips.cards[trips.card[k]], trips.vehicles[trips.vehicle[k]],
                time_text(float(trips.board[k])), time_text(float(trips.alight[k])),
                trips.stops[b], f"{float(trips.stop_lat[b]):.6f}", f"{float(trips.stop_lon[b]):.6f}",
                trips.stops[a], f"{float(trips.stop_lat[a]):.6f}", f"{float(trips.stop_lon[a]):.6f}",
            ])


# --- synthetic passengers, one draw per call ---------------------------------

def passengers_reference(config: SynthConfig, network: BusNetwork, rng: np.random.Generator) -> TripTable:
    """`synth.generate_passengers` as a per-card loop, one scalar draw per call: the reference for its batched draws.

    It takes the generator's kinds of draw in the generator's order, each
    kind card by card (or leg by leg): routes, long-pair flags, long pairs'
    first and then second stops, the other pairs' separations and first
    stops, peak flags, outbound and return offsets and near flags; then the
    day flags of every day, two jitters per round trip on the active days
    and then on the backstop's days, which fill inactive days first and
    then cycle through the period again until the passenger has
    `min_trips_per_passenger` legs; then a novelty flag per leg of a roamer
    with a route to roam, and for each novel leg a route of its roam list
    and two distinct stops of it.
    """
    config.validate()
    n_routes, m = network.xy_km.shape[:2]
    spacing = network.spacing_km.tolist()
    long_routes = [ri for ri in range(n_routes) if spacing[ri] * (m - 1) >= LONG_ANCHOR_KM]
    counts = _apportion(config.n_passengers, config.archetype_mix)
    kinds = [archetype for archetype in ARCHETYPES for _ in range(counts[archetype])]
    cards = range(len(kinds))

    route = []
    for archetype in kinds:
        if archetype == "long_hauler" and long_routes:
            route.append(long_routes[int(rng.integers(0, len(long_routes)))])
        else:
            route.append(int(rng.integers(0, n_routes)))
    want_long = [archetype == "long_hauler" for archetype in kinds]
    for c in cards:
        if kinds[c] in ("commuter", "offpeak_regular"):
            want_long[c] = bool(rng.random() < COMMUTER_LONG_P) and route[c] in long_routes
    delta_min = [math.ceil(LONG_ANCHOR_KM / spacing[route[c]]) for c in cards]
    long = [want_long[c] and delta_min[c] <= m - 1 for c in cards]
    anchors: List[Tuple[int, int]] = [(0, 0)] * len(kinds)
    for c in cards:
        if long[c]:
            anchors[c] = (int(rng.integers(0, m - delta_min[c])), 0)
    for c in cards:
        if long[c]:
            anchors[c] = (anchors[c][0], int(rng.integers(anchors[c][0] + delta_min[c], m)))
    delta = [0] * len(kinds)
    for c in cards:
        if not long[c]:
            target = float(rng.uniform(1.0, 4.0 if kinds[c] == "roamer" else 6.0))
            delta[c] = max(1, min(m - 1, int(round(target / spacing[route[c]]))))
    for c in cards:
        if not long[c]:
            if kinds[c] == "roamer":
                i = int(rng.integers(0, m - delta[c]))
            else:
                i = int(rng.integers(0, m))
            if i + delta[c] < m:
                anchors[c] = (i, i + delta[c])
            elif i - delta[c] >= 0:
                anchors[c] = (i - delta[c], i)
            else:
                anchors[c] = (0, m - 1)
    peak = [archetype == "commuter" for archetype in kinds]
    for c in cards:
        if kinds[c] == "roamer":
            peak[c] = bool(rng.random() < ROAMER_PEAK_P)
        elif kinds[c] == "long_hauler":
            peak[c] = bool(rng.random() < LONG_HAULER_PEAK_P)
    times = []
    for c in cards:
        if peak[c]:
            times.append((7 * 3600 + int(rng.integers(0, 4500)), 17 * 3600 + int(rng.integers(0, 4500))))
        else:
            times.append((10 * 3600 + int(rng.integers(0, 3 * 3600)),
                          13 * 3600 + 1800 + int(rng.integers(0, 3 * 3600))))
    roams: Dict[int, List[Tuple[int, List[int]]]] = {}
    for c in cards:
        if kinds[c] == "roamer":
            if rng.random() >= 0.5:
                hx, hy = network.xy_km[route[c], anchors[c][0]].tolist()
                inside = [(ri, [si for si in range(m)
                                if (network.xy_km[ri, si, 0] - hx) ** 2 + (network.xy_km[ri, si, 1] - hy) ** 2
                                <= ROAM_NEAR_RADIUS_KM ** 2])
                          for ri in range(n_routes)]
                roams[c] = [(ri, sis) for ri, sis in inside if len(sis) >= 2]
            else:
                roams[c] = [(ri, list(range(m))) for ri in range(n_routes)]

    active = [[rng.random() < (OFFPEAK_ACTIVITY if kinds[c] == "offpeak_regular" else PEAK_ACTIVITY)
               for day in range(config.days)] for c in cards]
    legs: List[List[int]] = []
    for c in cards:
        a, b = anchors[c]
        out_s, back_s = times[c]
        lpt = 4 if peak[c] else 2
        # off-peak regulars may ride any day, everyone else only on weekdays
        days = [day for day in range(config.days)
                if active[c][day] and (kinds[c] == "offpeak_regular" or day % 7 < 5)]
        active_days, round_trips = len(days), -(-config.min_trips_per_passenger // lpt)
        days += [day for day in range(config.days) if day not in days]
        days += [day % config.days for day in range(round_trips)]
        days = days[:max(active_days, round_trips)]
        for day in days:
            jit_out, jit_back = int(rng.integers(-600, 601)), int(rng.integers(-600, 601))
            if peak[c]:
                day_legs = [(a, b, out_s + jit_out), (b, a, out_s + jit_out + 2700),
                            (a, b, back_s + jit_back), (b, a, back_s + jit_back + 2700)]
            else:
                day_legs = [(a, b, out_s + jit_out), (b, a, back_s + jit_back)]
            legs.extend([c, route[c], day, origin, dest, desired] for origin, dest, desired in day_legs)

    novel = [leg for leg in legs if roams.get(leg[0]) and rng.random() < NOVELTY_P]
    picks = [roams[leg[0]][int(rng.integers(0, len(roams[leg[0]])))] for leg in novel]
    for leg, (ri, sis) in zip(novel, picks):
        i = int(rng.integers(0, len(sis)))
        j = int(rng.integers(0, len(sis) - 1))
        leg[1], leg[3], leg[4] = ri, sis[i], sis[j + (j >= i)]

    table = _ride_legs(network, len(kinds), np.array(legs, np.int64).reshape(-1, 6))
    return table.take(np.lexsort((table.vehicle, table.card, table.board)))


# --- exposure events ----------------------------------------------------------

@dataclass(frozen=True)
class ExposureEvent:
    source: str
    target: str
    vehicle_id: str
    exposure_start: float
    exposure_end: float
    kind: str  # DIRECT | INDIRECT
    source_enter: float
    source_exit: float


def log_events(log: ExposureLog) -> Iterator[ExposureEvent]:
    """All events of a log, one object each, in canonical order: exposure_start,
    source id, target id, exposure_end, vehicle id."""
    src_enter = log.trips.board[log.src_ride]
    for i in np.lexsort((log.veh, log.end, log.tgt, log.src, log.start)):
        yield ExposureEvent(
            source=log.trips.cards[log.src[i]],
            target=log.trips.cards[log.tgt[i]],
            vehicle_id=log.trips.vehicles[log.veh[i]],
            exposure_start=float(log.start[i]),
            exposure_end=float(log.end[i]),
            kind=DIRECT if log.direct[i] else INDIRECT,
            source_enter=float(src_enter[i]),
            source_exit=float(log.src_exit[i]),
        )


# --- radius of gyration -----------------------------------------------------

def _hav(lat1, lon1, lat2, lon2):
    r = 6_371_000.0
    p1 = math.radians(lat1)
    p2 = math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2.0) ** 2
    return 2.0 * r * math.atan2(math.sqrt(a), math.sqrt(1.0 - a))


def gyration_direct(points: Sequence[Tuple[float, float]], weights: Sequence[int], planar: bool) -> float:
    """Direct summation of the weighted RMS distance from the centroid."""
    if len(points) == 1:
        return 0.0  # centroid coincides with the point; avoids trig round-off
    n_total = float(sum(weights))
    if planar:
        cx = sum(w * p[0] for p, w in zip(points, weights)) / n_total
        cy = sum(w * p[1] for p, w in zip(points, weights)) / n_total
        acc = sum(w * ((p[0] - cx) ** 2 + (p[1] - cy) ** 2) for p, w in zip(points, weights))
        return math.sqrt(acc / n_total)
    # spherical centroid via cartesian average
    sx = sy = sz = 0.0
    for (lat, lon), w in zip(points, weights):
        phi = math.radians(lat)
        lam = math.radians(lon)
        sx += w * math.cos(phi) * math.cos(lam)
        sy += w * math.cos(phi) * math.sin(lam)
        sz += w * math.sin(phi)
    norm = math.sqrt(sx * sx + sy * sy + sz * sz)
    clat = math.degrees(math.asin(sz / norm))
    clon = math.degrees(math.atan2(sy, sx))
    acc = sum(w * _hav(lat, lon, clat, clon) ** 2 for (lat, lon), w in zip(points, weights))
    return math.sqrt(acc / n_total)


def k_gyration_direct(
    points: Sequence[Tuple[float, float]],
    weights: Sequence[int],
    ids: Sequence[str],
    k: int,
    planar: bool,
) -> float:
    """Same statistic over the k most-visited points (ties by id)."""
    ranked = sorted(range(len(points)), key=lambda i: (-weights[i], ids[i]))
    keep = set(ranked[:k])
    pts = [points[i] for i in range(len(points)) if i in keep]
    wts = [weights[i] for i in range(len(points)) if i in keep]
    if len(pts) == 1:
        return 0.0
    return gyration_direct(pts, wts, planar)


# --- 1-D two-means -----------------------------------------------------------

def kmeans2_brute(values: Sequence[float]) -> Tuple[List[int], Tuple[float, float]]:
    """Exhaustive contiguous-split scan with per-split direct summation.

    O(n^2); for each of the n-1 splits of the sorted values the within-cluster
    sum of squares is computed from scratch.  Leftmost minimum wins.
    """
    order = sorted(range(len(values)), key=lambda i: values[i])
    s = [values[i] for i in order]
    n = len(s)
    costs = split_costs(values)
    best_split = 1 + costs.index(min(costs))  # leftmost minimum
    labels = [0] * n
    for rank, orig in enumerate(order):
        labels[orig] = 0 if rank < best_split else 1
    left = s[:best_split]
    right = s[best_split:]
    return labels, (sum(left) / len(left), sum(right) / len(right))


def split_costs(values: Sequence[float]) -> List[float]:
    """Within-cluster sum of squares of each contiguous split of the sorted values, by direct summation.

    Entry i is the cost of the split whose left cluster holds the i + 1 smallest values.
    """
    s = sorted(values)
    costs = []
    for split in range(1, len(s)):
        left = s[:split]
        right = s[split:]
        ml = sum(left) / len(left)
        mr = sum(right) / len(right)
        costs.append(sum((x - ml) ** 2 for x in left) + sum((x - mr) ** 2 for x in right))
    return costs


def classify_reference(rows: Sequence[Tuple[str, float, float, int]]) -> Dict[str, str]:
    """Group name of every card from (card, rg, rgk, encounters) rows, one card at a time.

    Exploration: returner when rg is 0 or rgk exceeds rg / 2, explorer
    otherwise.  Distance and connectivity: `kmeans2_brute` on the min-max
    normalised rg and encounter values; the cluster with the larger centroid
    is long, or high.
    """
    def normalised(values):
        lo, hi = min(values), max(values)
        return [(v - lo) / (hi - lo) for v in values]

    far, _ = kmeans2_brute(normalised([rg for _, rg, _, _ in rows]))
    busy, _ = kmeans2_brute(normalised([float(e) for _, _, _, e in rows]))
    names = {}
    for (card, rg, rgk, _), is_far, is_busy in zip(rows, far, busy):
        exploration = "ret" if rg == 0.0 or rgk > rg / 2.0 else "exp"
        connectivity = "high" if is_busy else "low"
        distance = "long" if is_far else "short"
        names[card] = f"{exploration}_{connectivity}_{distance}"
    return names


def kmeans2_welford(values: Sequence[float]) -> Tuple[List[int], Tuple[float, float]]:
    """Exhaustive split scan with running (Welford) sums of squares.

    O(n); algorithmically unlike both the brute-force oracle and the
    library's prefix-sum scan.
    """
    order = sorted(range(len(values)), key=lambda i: values[i])
    s = [values[i] for i in order]
    n = len(s)
    fwd = [0.0] * (n + 1)  # WCSS of s[:i]
    mean = 0.0
    m2 = 0.0
    for i, x in enumerate(s, start=1):
        delta = x - mean
        mean += delta / i
        m2 += delta * (x - mean)
        fwd[i] = m2
    bwd = [0.0] * (n + 1)  # WCSS of s[i:]
    mean = 0.0
    m2 = 0.0
    for count, x in enumerate(reversed(s), start=1):
        delta = x - mean
        mean += delta / count
        m2 += delta * (x - mean)
        bwd[n - count] = m2
    best_split = 1
    best_cost = fwd[1] + bwd[1]
    for split in range(2, n):
        cost = fwd[split] + bwd[split]
        if cost < best_cost:
            best_cost = cost
            best_split = split
    labels = [0] * n
    for rank, orig in enumerate(order):
        labels[orig] = 0 if rank < best_split else 1
    left = s[:best_split]
    right = s[best_split:]
    return labels, (sum(left) / len(left), sum(right) / len(right))


# --- pairwise interval-overlap exposures --------------------------------------

def exposures_quadratic(
    presences: Sequence[Tuple[str, str, float, float]], d_t: float
) -> List[Tuple[str, str, str, float, float, str, float, float]]:
    """All exposure events by checking every ordered presence pair.

    Each presence is (card, vehicle, enter, exit).  Returns one tuple of
    (source, target, vehicle, start, end, kind, source_enter, source_exit)
    per exposing presence pair, duplicates included.
    """
    out = []
    for (c1, v1, a, b) in presences:
        for (c2, v2, c, d) in presences:
            if v1 != v2 or c1 == c2:
                continue
            if c <= b and d >= a:
                out.append((c1, c2, v1, max(a, c), min(b, d), "direct", a, b))
            elif b < c <= b + d_t:
                out.append((c1, c2, v1, c, min(d, b + d_t), "indirect", a, b))
    return out


def exposure_log_reference(trips: TripTable, d_t: float) -> ExposureLog:
    """The exposure log of valid `trips` from float times and a three-key lexsort: the reference for
    `contacts.build_exposure_log`, which must equal it row for row.

    The rides are sorted by (vehicle, enter, exit, card); ride i meets the
    later rides of its vehicle that board by exit_i + d_t, directly when
    exit_i >= enter_j.  The rows are sorted by source card, then float start,
    then a packed (target card, vehicle, kind) tie, each sort stable.
    """
    card, veh, enter, exit_ = trips.card, trips.vehicle, trips.board, trips.alight
    n, n_vehicles = len(trips), len(trips.vehicles)

    ride = np.lexsort((card, exit_, enter, veh)).astype(np.int32)
    card, veh, enter, exit_ = card[ride], veh[ride], enter[ride], exit_[ride]
    hi = np.empty(n, np.int64)
    reach = exit_ + d_t
    vbounds = np.searchsorted(veh, np.arange(n_vehicles + 1))
    for lo, up in zip(vbounds[:-1], vbounds[1:]):
        hi[lo:up] = lo + np.searchsorted(enter[lo:up], reach[lo:up], side="right")
    counts = hi - np.arange(1, n + 1)
    n_pairs = int(counts.sum())
    first = np.cumsum(counts) - counts
    i = np.repeat(np.arange(n, dtype=np.int32), counts)
    j = np.arange(n_pairs, dtype=np.int32) + np.repeat((np.arange(1, n + 1) - first).astype(np.int32), counts)
    keep = card[i] != card[j]
    i, j = i[keep], j[keep]
    is_direct = exit_[i] >= enter[j]
    s = np.concatenate([i, j[is_direct]])
    t = np.concatenate([j, i[is_direct]])
    direct = np.concatenate([is_direct, np.ones(np.count_nonzero(is_direct), bool)])

    start = np.maximum(enter[s], enter[t])
    tie = (card[t].astype(np.int64) * n_vehicles + veh[s]) * 2 + direct
    order = np.lexsort((tie, start, card[s]))
    return ExposureLog(trips, ride[s[order]], ride[t[order]], direct[order], d_t)


def direct_encounter_counts(log: ExposureLog) -> Dict[str, int]:
    """Per-card count of a log's direct rows by source: the reference for `contacts.encounter_counts`."""
    counts = np.bincount(log.src[log.direct], minlength=len(log.trips.cards))
    return {card: int(counts[i]) for i, card in enumerate(log.trips.cards) if counts[i]}


def direct_degree_quadratic(
    presences: Sequence[Tuple[str, str, float, float]]
) -> Dict[str, int]:
    """Direct co-presence episode count per card, O(n^2)."""
    degrees: Dict[str, int] = {}
    items = list(presences)
    for i, (c1, v1, a, b) in enumerate(items):
        for c2, v2, c, d in items[i + 1:]:
            if v1 != v2 or c1 == c2:
                continue
            if c <= b and d >= a:
                degrees[c1] = degrees.get(c1, 0) + 1
                degrees[c2] = degrees.get(c2, 0) + 1
    return degrees


def component_sizes_bfs(cards: Iterable[str], edges: Iterable[Tuple[str, str]]) -> List[int]:
    """Connected component sizes via plain BFS, largest first."""
    adjacency: Dict[str, Set[str]] = {c: set() for c in cards}
    for u, v in edges:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    seen: Set[str] = set()
    sizes: List[int] = []
    for node in adjacency:
        if node in seen:
            continue
        queue = [node]
        seen.add(node)
        size = 0
        while queue:
            cur = queue.pop()
            size += 1
            for nxt in adjacency[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        sizes.append(size)
    return sorted(sizes, reverse=True)


# --- temporal reachability ----------------------------------------------------

def reachable_infections(
    exposures: Sequence[Tuple[str, str, float, float, str, float, float]],
    seeds: Iterable[str],
    start_time: float,
    infectious_period: float,
    end_time: float,
) -> Dict[str, float]:
    """Earliest infection times at transmission probability 1.

    Exposures are (source, target, start, end, kind, source_enter,
    source_exit).  Repeatedly finds the globally earliest feasible
    transmission to a still-uninfected target and commits it; this is exact
    because infection times never decrease along the chain.
    """
    infected: Dict[str, float] = {s: start_time for s in seeds}
    while True:
        best = None
        for (src, tgt, s, e, kind, dep_a, dep_b) in exposures:
            if src not in infected or tgt in infected:
                continue
            t_src = infected[src]
            recovery = t_src + infectious_period
            if kind == "direct":
                feasible = t_src <= e and recovery > s
            else:
                feasible = t_src <= dep_b and recovery > dep_a
            if not feasible:
                continue
            t_star = max(s, t_src)
            if t_star > end_time:
                continue
            if best is None or t_star < best[0]:
                best = (t_star, tgt)
        if best is None:
            return infected
        infected[best[1]] = best[0]


# --- scalar S-I-R ---------------------------------------------------------------

@dataclass(frozen=True)
class InfectionEvent:
    infector: str
    infectee: str
    time: float
    vehicle_id: str
    kind: str  # DIRECT | INDIRECT


def outcome_events(outcome: SimOutcome) -> List[InfectionEvent]:
    """A columnar outcome's infections, one object each, in infection order."""
    return [
        InfectionEvent(
            infector=outcome.cards[u],
            infectee=outcome.cards[v],
            time=t,
            vehicle_id=outcome.vehicles[w],
            kind=DIRECT if d else INDIRECT,
        )
        for u, v, t, w, d in zip(
            outcome.infector.tolist(), outcome.infectee.tolist(), outcome.time.tolist(),
            outcome.vehicle.tolist(), outcome.direct.tolist(),
        )
    ]


def final_state(outcome: SimOutcome) -> Dict[str, str]:
    """Every passenger's state at the outcome's `end_time`: S, I or R."""
    state = dict.fromkeys(outcome.population, SUSCEPTIBLE)
    infected = [(c, outcome.start_time) for c in outcome.seeds]
    infected += zip([outcome.cards[v] for v in outcome.infectee.tolist()], outcome.time.tolist())
    for card, t0 in infected:
        state[card] = RECOVERED if t0 + outcome.period <= outcome.end_time else INFECTIOUS
    return state


@dataclass
class ReferenceOutcome:
    """What `sir_reference` finds for one run, held as plain objects."""

    events: List[InfectionEvent]
    final_state: Dict[str, str]
    per_run_seed: int
    seeds: Tuple[str, ...]


def sir_reference(
    trips: Optional[TripTable],
    config: SimConfig,
    run_index: int,
    exposures: Optional[ExposureLog] = None,
    population: Optional[Sequence[str]] = None,
) -> ReferenceOutcome:
    """One traced S-I-R run, one card at a time: the scalar reference for `run_lanes`.

    It draws through the package's own `_run_token`, `_mix64` and
    `exposure_uniforms`, so that its events can be compared with a lane's
    one for one: the seeds are the cards of least `_mix64(position ^
    ~token)`, by a full sort.  The propagation is its own.
    """
    config.validate()
    if exposures is None:
        exposures = build_exposure_log(trips, config.d_t)
    if population is None:
        population = exposures.trips.cards if trips is None else trips.cards
    population = sorted(population)
    n = len(population)
    if config.n_seeds > n:
        raise ValueError(f"n_seeds={config.n_seeds} exceeds population {n}")
    extra = set(exposures.trips.cards) - set(population)
    if extra:
        raise ValueError(
            f"exposure log covers {len(extra)} card(s) outside the population, e.g. {sorted(extra)[:3]}"
        )

    card_pos = {c: i for i, c in enumerate(exposures.trips.cards)}
    e_dep_a = exposures.trips.board[exposures.src_ride]  # the source ride's boarding
    start_time = config.start_time
    if start_time is None:
        start_time = float(trips.board.min()) if trips else (
            float(e_dep_a.min()) if len(exposures) else 0.0
        )
    end_time = config.end_time
    if end_time is None:
        if trips:
            end_time = float(trips.alight.max()) + config.d_t
        elif len(exposures):
            end_time = float(exposures.end.max())
        else:
            end_time = start_time

    token = _run_token(config.master_seed, run_index)
    draws = _mix64(np.arange(n, dtype=np.uint64) ^ ~token)
    seeds = tuple(sorted(population[i] for i in np.argsort(draws)[:config.n_seeds].tolist()))

    uvals = exposure_uniforms(log=exposures, master_seed=config.master_seed, run_index=run_index)
    e_ok = uvals < config.beta

    # the log is stored grouped by source, so u's exposures are bounds[u]:bounds[u + 1]
    n_log_cards = len(exposures.trips.cards)
    bounds = np.searchsorted(exposures.src, np.arange(n_log_cards + 1))
    e_tgt = exposures.tgt
    e_veh = exposures.veh
    e_start = exposures.start
    e_end = exposures.end
    e_dep_b = exposures.src_exit
    e_direct = exposures.direct

    period = config.infectious_period
    inf_time = np.full(n_log_cards, np.inf)
    best_time = np.full(n_log_cards, np.inf)

    heap: List[Tuple[float, float, int, int, int, bool]] = []
    events: List[InfectionEvent] = []
    n_susceptible = n - len(seeds)

    def push_candidates(u: int, t_u: float) -> None:
        lo, hi = bounds[u], bounds[u + 1]
        if lo == hi:
            return
        direct = e_direct[lo:hi]
        s = e_start[lo:hi]
        r_u = t_u + period
        feasible = e_ok[lo:hi] & (
            (direct & (e_end[lo:hi] >= t_u) & (s < r_u))
            | (~direct & (e_dep_b[lo:hi] >= t_u) & (e_dep_a[lo:hi] < r_u))
        )
        if not feasible.any():
            return
        idx = np.nonzero(feasible)[0]
        t_star = np.maximum(s[idx], t_u)
        targets = e_tgt[lo:hi][idx]
        keep = (
            (t_star <= end_time)
            & ~np.isfinite(inf_time[targets])
            & (t_star <= best_time[targets])
        )
        if not keep.any():
            return
        idx = idx[keep]
        t_star = t_star[keep]
        targets = targets[keep]
        starts = s[idx]
        vehs = e_veh[lo:hi][idx]
        directs = direct[idx]
        for t, s0, tgt, veh, is_direct in zip(t_star, starts, targets, vehs, directs):
            tgt = int(tgt)
            if t < best_time[tgt]:
                best_time[tgt] = t
            heapq.heappush(heap, (float(t), float(s0), u, tgt, int(veh), bool(is_direct)))

    for card in seeds:
        pos = card_pos.get(card)
        if pos is None:
            continue  # seed with no exposures at all
        inf_time[pos] = start_time
    for card in seeds:
        pos = card_pos.get(card)
        if pos is not None:
            push_candidates(pos, start_time)

    while heap and n_susceptible > 0:
        t, _, u, v, veh, direct = heapq.heappop(heap)
        if np.isfinite(inf_time[v]):
            continue
        inf_time[v] = t
        n_susceptible -= 1
        events.append(
            InfectionEvent(
                infector=exposures.trips.cards[u],
                infectee=exposures.trips.cards[v],
                time=t,
                vehicle_id=exposures.trips.vehicles[veh],
                kind=DIRECT if direct else INDIRECT,
            )
        )
        push_candidates(v, t)

    seed_set = set(seeds)
    final_state: Dict[str, str] = {}
    for card in population:
        pos = card_pos.get(card)
        if card in seed_set:
            t0 = start_time
        elif pos is not None and np.isfinite(inf_time[pos]):
            t0 = float(inf_time[pos])
        else:
            final_state[card] = SUSCEPTIBLE
            continue
        final_state[card] = RECOVERED if t0 + period <= end_time else INFECTIOUS
    return ReferenceOutcome(
        events=events,
        final_state=final_state,
        per_run_seed=run_index,
        seeds=seeds,
    )
