"""Synthetic city-scale trip datasets.

A square city is served by straight-line bus routes with evenly spaced
stops.  Each route runs in both directions on a fixed daily schedule with
dense peak service and sparse off-peak service, and is worked by a small
pool of physical vehicles that cycle through the day's runs (so suspended
pathogens can bridge consecutive runs of the same bus).

Passengers follow one of four archetypes:

  * commuter: two anchor stops on one route, round trips at peak hours;
  * roamer: close anchor pair plus novelty trips to random stops, either
    city-wide ("far" roamers) or within a small radius of home ("near");
  * long_hauler: anchor stops at least 15 km apart on a long route;
  * offpeak_regular: anchored round trips during low-occupancy hours.

Together the archetypes populate all eight mobility groups: roamers become
explorers, everyone else returners; peak travel drives encounter counts up,
off-peak travel keeps them low; anchor separation and roaming range set the
radius of gyration.

Generation is a pure function of (config, seed): the same SynthConfig always
yields byte-identical trip files.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .geo import local_km_to_latlon
from .ingest import TripTable

ARCHETYPES = ("commuter", "roamer", "long_hauler", "offpeak_regular")
DEFAULT_MIX: Dict[str, float] = {
    "commuter": 0.45,
    "roamer": 0.30,
    "long_hauler": 0.10,
    "offpeak_regular": 0.15,
}

CITY_ORIGIN_LAT = -33.8688
CITY_ORIGIN_LON = 151.2093
BASE_EPOCH = 1_491_004_800  # 2017-04-01T00:00:00Z, start of day 0

BUS_SPEED_KMH = 20.0
PEAK_WINDOWS = ((7 * 3600, 9 * 3600), (17 * 3600, 19 * 3600))
OFFPEAK_WINDOWS = ((6 * 3600, 7 * 3600), (9 * 3600, 17 * 3600), (19 * 3600, 22 * 3600))
PEAK_HEADWAY_S = 450
OFFPEAK_HEADWAY_S = 1800
SERVICE_START_S = 6 * 3600
SERVICE_END_S = 22 * 3600

LONG_ANCHOR_KM = 16.0
ROAM_NEAR_RADIUS_KM = 3.5
NOVELTY_P = 0.45
ROAMER_PEAK_P = 0.65
LONG_HAULER_PEAK_P = 0.5
COMMUTER_LONG_P = 0.2
PEAK_ACTIVITY = 0.75
OFFPEAK_ACTIVITY = 0.6


@dataclass
class SynthConfig:
    n_passengers: int = 10_000
    n_routes: int = 30
    stops_per_route: int = 20
    days: int = 30
    archetype_mix: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    rng_seed: int = 0
    city_extent_km: float = 30.0
    min_trips_per_passenger: int = 15

    def validate(self) -> None:
        for name, value in (
            ("n_passengers", self.n_passengers),
            ("n_routes", self.n_routes),
            ("stops_per_route", self.stops_per_route),
            ("days", self.days),
            ("min_trips_per_passenger", self.min_trips_per_passenger),
        ):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.stops_per_route < 2:
            raise ValueError("stops_per_route must be >= 2")
        if not (math.isfinite(self.city_extent_km) and self.city_extent_km > 0):
            raise ValueError(f"city_extent_km must be positive and finite, got {self.city_extent_km}")
        unknown = set(self.archetype_mix) - set(ARCHETYPES)
        if unknown:
            raise ValueError(f"unknown archetypes: {sorted(unknown)}")
        bad = {a: f for a, f in self.archetype_mix.items() if not (math.isfinite(f) and f >= 0)}
        if bad:
            raise ValueError(f"archetype fractions must be non-negative and finite, got {bad}")
        total = sum(self.archetype_mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"archetype fractions must sum to 1, got {total}")


@dataclass(frozen=True)
class Route:
    route_id: str
    stops: Tuple[str, ...]  # stop ids
    coords: Tuple[Tuple[float, float], ...]  # (lat, lon), parallel to stops
    xy_km: Tuple[Tuple[float, float], ...]  # local coordinates, parallel to stops
    departures: Tuple[int, ...]  # seconds after local midnight, strictly increasing
    leg_seconds: int
    vehicle_pool: int

    def spacing_km(self) -> float:
        (x0, y0), (x1, y1) = self.xy_km[0], self.xy_km[-1]
        return math.hypot(x1 - x0, y1 - y0) / (len(self.stops) - 1)


@dataclass(frozen=True)
class BusNetwork:
    routes: Tuple[Route, ...]
    base_time: int = BASE_EPOCH

    @property
    def stops(self) -> Dict[str, Tuple[float, float]]:
        """Every stop id with its (lat, lon)."""
        return {s: c for route in self.routes for s, c in zip(route.stops, route.coords)}


def _daily_departures(rng: np.random.Generator) -> Tuple[int, ...]:
    phase = int(rng.integers(0, 300))
    out: List[int] = []
    t = SERVICE_START_S + phase
    while t < SERVICE_END_S:
        out.append(t)
        headway = OFFPEAK_HEADWAY_S
        for lo, hi in PEAK_WINDOWS:
            if lo <= t < hi:
                headway = PEAK_HEADWAY_S
                break
        t += headway
    return tuple(out)


def generate_network(config: SynthConfig, rng: np.random.Generator) -> BusNetwork:
    """Lay out routes and stops; deterministic for a given generator state."""
    config.validate()
    extent = config.city_extent_km
    # the first third of the routes are long enough for >= 15 km anchor pairs
    # when the city extent allows it
    n_long = config.n_routes // 3 if extent * 0.72 >= LONG_ANCHOR_KM else 0
    routes: List[Route] = []
    for ri in range(config.n_routes):
        want_long = ri < n_long
        min_len = 0.72 * extent if want_long else 0.25 * extent
        while True:
            x0, y0, x1, y1 = rng.uniform(0.0, extent, size=4)
            if math.hypot(x1 - x0, y1 - y0) >= min_len:
                break
        m = config.stops_per_route
        xs = np.linspace(x0, x1, m)
        ys = np.linspace(y0, y1, m)
        coords = []
        xy = []
        for si in range(m):
            lat, lon = local_km_to_latlon(float(xs[si]), float(ys[si]), CITY_ORIGIN_LAT, CITY_ORIGIN_LON)
            coords.append((round(lat, 6), round(lon, 6)))
            xy.append((float(xs[si]), float(ys[si])))
        spacing = math.hypot(x1 - x0, y1 - y0) / (m - 1)
        leg = max(30, int(round(spacing / BUS_SPEED_KMH * 3600)))
        departures = _daily_departures(rng)
        duration = (m - 1) * leg
        pool = 2 * (duration // PEAK_HEADWAY_S + 2)
        routes.append(
            Route(
                route_id=f"r{ri:02d}",
                stops=tuple(f"r{ri:02d}s{si:02d}" for si in range(m)),
                coords=tuple(coords),
                xy_km=tuple(xy),
                departures=departures,
                leg_seconds=leg,
                vehicle_pool=int(pool),
            )
        )
    return BusNetwork(routes=tuple(routes))


# card ids, vehicle ids, board times, alight times, board stop ids and alight stop ids, one entry per trip
Columns = Tuple[List[str], List[str], List[float], List[float], List[str], List[str]]


def _vehicle_id(route: Route, dep_idx: int, forward: bool) -> str:
    slot = (2 * dep_idx + (0 if forward else 1)) % route.vehicle_pool
    return f"{route.route_id}v{slot:02d}"


def _add_trip(
    trips: Columns,
    card_id: str,
    network: BusNetwork,
    route: Route,
    day: int,
    i: int,
    j: int,
    desired_s: int,
) -> None:
    """Ride the run whose passage at the origin stop is nearest desired_s."""
    m = len(route.stops)
    forward = i < j
    pos_i = i if forward else (m - 1 - i)
    pos_j = j if forward else (m - 1 - j)
    target_dep = desired_s - pos_i * route.leg_seconds
    deps = route.departures
    k = bisect_left(deps, target_dep)
    if k == 0:
        dep_idx = 0
    elif k >= len(deps):
        dep_idx = len(deps) - 1
    else:
        dep_idx = k if deps[k] - target_dep < target_dep - deps[k - 1] else k - 1
    day_start = network.base_time + day * 86_400
    board = day_start + deps[dep_idx] + pos_i * route.leg_seconds
    alight = day_start + deps[dep_idx] + pos_j * route.leg_seconds
    card, vehicle, boards, alights, board_stop, alight_stop = trips
    card.append(card_id)
    vehicle.append(_vehicle_id(route, dep_idx, forward))
    boards.append(float(board))
    alights.append(float(alight))
    board_stop.append(route.stops[i])
    alight_stop.append(route.stops[j])


def _apportion(n: int, mix: Dict[str, float]) -> Dict[str, int]:
    """Largest-remainder split of n passengers over the archetype mix."""
    exact = {a: n * mix.get(a, 0.0) for a in ARCHETYPES}
    floors = {a: int(exact[a]) for a in ARCHETYPES}
    remainder = n - sum(floors.values())
    order = sorted(ARCHETYPES, key=lambda a: (-(exact[a] - floors[a]), a))
    for a in order[:remainder]:
        floors[a] += 1
    return floors


def _anchor_pair(
    route: Route, rng: np.random.Generator, want_long: bool
) -> Tuple[int, int]:
    """Pick anchor stop indices on a route, targeting a separation in km."""
    m = len(route.stops)
    spacing = route.spacing_km()
    if want_long:
        delta_min = int(math.ceil(LONG_ANCHOR_KM / spacing))
        if delta_min <= m - 1:
            i = int(rng.integers(0, m - delta_min))
            j = int(rng.integers(i + delta_min, m))
            return i, j
        # route too short for a long pair; fall through to a short pair
    target = float(rng.uniform(1.0, 6.0))
    delta = max(1, min(m - 1, int(round(target / spacing))))
    i = int(rng.integers(0, m))
    if i + delta < m:
        return i, i + delta
    if i - delta >= 0:
        return i - delta, i
    return 0, m - 1


@dataclass
class _Passenger:
    card_id: str
    archetype: str
    route_idx: int
    anchor_a: int
    anchor_b: int
    peak: bool
    preferred_out_s: int
    preferred_back_s: int
    roam_far: bool = False
    near_candidates: Tuple[Tuple[int, int], ...] = ()  # (route_idx, stop_idx)


def generate_passengers(
    config: SynthConfig, network: BusNetwork, rng: np.random.Generator
) -> TripTable:
    """Emit every passenger's trips for the whole period, chronologically."""
    config.validate()
    routes = network.routes
    n_routes = len(routes)
    long_routes = [
        ri
        for ri, r in enumerate(routes)
        if r.spacing_km() * (len(r.stops) - 1) >= LONG_ANCHOR_KM
    ]
    counts = _apportion(config.n_passengers, config.archetype_mix)

    # flat stop table in local km for radius queries
    stop_route: List[int] = []
    stop_idx: List[int] = []
    xs: List[float] = []
    ys: List[float] = []
    for ri, r in enumerate(routes):
        for si, (x, y) in enumerate(r.xy_km):
            stop_route.append(ri)
            stop_idx.append(si)
            xs.append(x)
            ys.append(y)
    stop_route_a = np.array(stop_route)
    stop_idx_a = np.array(stop_idx)
    xs_a = np.array(xs)
    ys_a = np.array(ys)

    passengers: List[_Passenger] = []
    pid = 0
    for archetype in ARCHETYPES:
        for _ in range(counts[archetype]):
            card_id = f"c{pid:05d}"
            pid += 1
            if archetype == "long_hauler" and long_routes:
                route_idx = int(long_routes[int(rng.integers(0, len(long_routes)))])
            else:
                route_idx = int(rng.integers(0, n_routes))
            route = routes[route_idx]
            if archetype == "commuter" or archetype == "offpeak_regular":
                want_long = rng.random() < COMMUTER_LONG_P and route_idx in long_routes
                a, b = _anchor_pair(route, rng, want_long)
                peak = archetype == "commuter"
            elif archetype == "long_hauler":
                a, b = _anchor_pair(route, rng, True)
                peak = rng.random() < LONG_HAULER_PEAK_P
            else:  # roamer: commuter-like anchor ride, exploration on top
                m = len(route.stops)
                spacing = route.spacing_km()
                delta = max(1, min(m - 1, int(round(float(rng.uniform(1.0, 4.0)) / spacing))))
                i = int(rng.integers(0, m - delta))
                a, b = i, i + delta
                peak = rng.random() < ROAMER_PEAK_P

            if peak:
                # leave 45 minutes of window for the return leg
                out_s = int(7 * 3600 + rng.integers(0, 4500))
                back_s = int(17 * 3600 + rng.integers(0, 4500))
            else:
                out_s = int(10 * 3600 + rng.integers(0, 3 * 3600))
                back_s = int(13 * 3600 + 1800 + rng.integers(0, 3 * 3600))

            p = _Passenger(
                card_id=card_id,
                archetype=archetype,
                route_idx=route_idx,
                anchor_a=a,
                anchor_b=b,
                peak=peak,
                preferred_out_s=out_s,
                preferred_back_s=back_s,
            )
            if archetype == "roamer":
                p.roam_far = rng.random() < 0.5
                if not p.roam_far:
                    hx, hy = route.xy_km[a]
                    near = (xs_a - hx) ** 2 + (ys_a - hy) ** 2 <= ROAM_NEAR_RADIUS_KM ** 2
                    p.near_candidates = tuple(
                        (int(r_), int(s_))
                        for r_, s_ in zip(stop_route_a[near], stop_idx_a[near])
                    )
            passengers.append(p)

    def novel_pair(p: _Passenger) -> Optional[Tuple[int, int, int]]:
        if p.roam_far:
            ri = int(rng.integers(0, n_routes))
            m = len(routes[ri].stops)
            i = int(rng.integers(0, m))
            j = int(rng.integers(0, m - 1))
            if j >= i:
                j += 1
            return ri, i, j
        # near roamer: two distinct stops of one route inside the radius
        by_route: Dict[int, List[int]] = {}
        for ri, si in p.near_candidates:
            by_route.setdefault(ri, []).append(si)
        options = [(ri, sis) for ri, sis in sorted(by_route.items()) if len(sis) >= 2]
        if not options:
            return None
        ri, sis = options[int(rng.integers(0, len(options)))]
        i = int(rng.integers(0, len(sis)))
        j = int(rng.integers(0, len(sis) - 1))
        if j >= i:
            j += 1
        return ri, sis[i], sis[j]

    trips: Columns = ([], [], [], [], [], [])
    for p in passengers:
        route = routes[p.route_idx]
        activity = PEAK_ACTIVITY if p.archetype != "offpeak_regular" else OFFPEAK_ACTIVITY
        first_trip = len(trips[0])
        active_days = []
        for day in range(config.days):
            weekday = day % 7 < 5
            if p.archetype == "offpeak_regular":
                active = rng.random() < activity
            else:
                active = weekday and rng.random() < activity
            active_days.append(active)

        def anchor_round_trip(day: int) -> None:
            # peak riders run a round trip inside each rush window, which
            # concentrates their co-presence; off-peak riders do one midday
            # round trip
            jit_out = int(rng.integers(-600, 601))
            jit_back = int(rng.integers(-600, 601))
            if p.peak:
                legs = [
                    (p.anchor_a, p.anchor_b, p.preferred_out_s + jit_out),
                    (p.anchor_b, p.anchor_a, p.preferred_out_s + jit_out + 2700),
                    (p.anchor_a, p.anchor_b, p.preferred_back_s + jit_back),
                    (p.anchor_b, p.anchor_a, p.preferred_back_s + jit_back + 2700),
                ]
            else:
                legs = [
                    (p.anchor_a, p.anchor_b, p.preferred_out_s + jit_out),
                    (p.anchor_b, p.anchor_a, p.preferred_back_s + jit_back),
                ]
            for origin, dest, desired in legs:
                if p.archetype == "roamer" and rng.random() < NOVELTY_P:
                    novel = novel_pair(p)
                    if novel is not None:
                        nri, ni, nj = novel
                        _add_trip(trips, p.card_id, network, routes[nri], day, ni, nj, desired)
                        continue
                _add_trip(trips, p.card_id, network, route, day, origin, dest, desired)

        for day in range(config.days):
            if active_days[day]:
                anchor_round_trip(day)
        # backstop: everyone must reach the configured trip minimum; fill
        # inactive days first, then cycle through the period again
        day = 0
        while len(trips[0]) - first_trip < config.min_trips_per_passenger:
            if day >= config.days or not active_days[day]:
                anchor_round_trip(day % config.days)
            day += 1

    table = TripTable.from_columns(*trips, network.stops)
    # code order is id order: by board time, then card id, then vehicle id, ties in emission order
    return table.take(np.lexsort((table.vehicle, table.card, table.board)))


def synthesize(config: SynthConfig) -> Tuple[BusNetwork, TripTable]:
    """Network plus trips from one seeded generator; pure in (config, seed)."""
    rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed))
    network = generate_network(config, rng)
    return network, generate_passengers(config, network, rng)
