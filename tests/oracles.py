"""Independent reference implementations used to check the library.

Everything here is deliberately written from first principles (plain loops,
no shared helpers with the package) so a bug in the library cannot hide in
its own oracle.  The one exception is `sir_reference`, which draws its seeds
and keyed uniforms through the package so that its events can be compared
with the simulator's one for one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from transitepi.contacts import DIRECT, INDIRECT, ExposureLog, build_exposure_log
from transitepi.ingest import TripTable
from transitepi.sim import (
    INFECTIOUS,
    RECOVERED,
    SUSCEPTIBLE,
    SimConfig,
    SimOutcome,
    _run_streams,
    exposure_uniforms,
)


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
            source=log.cards[log.src[i]],
            target=log.cards[log.tgt[i]],
            vehicle_id=log.vehicles[log.veh[i]],
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


def direct_encounter_counts(log: ExposureLog) -> Dict[str, int]:
    """Per-card count of a log's direct rows by source: the reference for `contacts.encounter_counts`."""
    counts = np.bincount(log.src[log.direct], minlength=len(log.cards))
    return {card: int(counts[i]) for i, card in enumerate(log.cards) if counts[i]}


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

    It draws the seeds and the keyed uniforms through the package's own
    `_run_streams` and `exposure_uniforms`, so that its events can be
    compared with a lane's one for one; the propagation is its own.
    """
    config.validate()
    if exposures is None:
        exposures = build_exposure_log(trips, config.d_t)
    if population is None:
        population = exposures.cards if trips is None else trips.cards
    population = sorted(population)
    n = len(population)
    if config.n_seeds > n:
        raise ValueError(f"n_seeds={config.n_seeds} exceeds population {n}")
    extra = set(exposures.cards) - set(population)
    if extra:
        raise ValueError(
            f"exposure log covers {len(extra)} card(s) outside the population, e.g. {sorted(extra)[:3]}"
        )

    card_pos = {c: i for i, c in enumerate(exposures.cards)}
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

    rng, _ = _run_streams(config.master_seed, run_index)
    seed_idx = rng.choice(n, size=config.n_seeds, replace=False)
    seeds = tuple(sorted(population[i] for i in seed_idx))

    uvals = exposure_uniforms(log=exposures, master_seed=config.master_seed, run_index=run_index)
    e_ok = uvals < config.beta

    # the log is stored grouped by source, so u's exposures are bounds[u]:bounds[u + 1]
    n_log_cards = len(exposures.cards)
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
                infector=exposures.cards[u],
                infectee=exposures.cards[v],
                time=t,
                vehicle_id=exposures.vehicles[veh],
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
