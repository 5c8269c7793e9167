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

Each passenger draws its day flags in one `random(k)` call, and a
non-roamer the jitters of all its round trips in one `integers(..., size)`
call.  numpy's Generator fills these from the same bit stream as k scalar
calls, so the files are those of one call per day and per jitter.  A
roamer still draws its jitters and its legs one call at a time: each leg's
novelty draw decides whether the leg draws a novel route and stops, three
more integers, so no batch of fixed size fits.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .geo import latlon_to_local_km, local_km_to_latlon
from .ingest import TripTable, _table

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
# stops lie up to the extent east and north of the origin: the largest extent
# whose far corner still has a valid latitude and longitude
MAX_EXTENT_KM = min(latlon_to_local_km(90.0, 180.0, CITY_ORIGIN_LAT, CITY_ORIGIN_LON))

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
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.stops_per_route < 2:
            raise ValueError("stops_per_route must be >= 2")
        if not 0 < self.city_extent_km <= MAX_EXTENT_KM:
            raise ValueError(f"city_extent_km must be positive and at most {MAX_EXTENT_KM:.1f} so that every stop "
                             f"has a valid latitude and longitude, got {self.city_extent_km}")
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
    archetype: str
    route_idx: int
    anchor_a: int
    anchor_b: int
    peak: bool
    preferred_out_s: int
    preferred_back_s: int
    roam_far: bool = False
    # a near roamer's routes with two or more stops inside the radius: (route_idx, stop indices)
    near_routes: Tuple[Tuple[int, List[int]], ...] = ()


def _draw_passengers(config: SynthConfig, network: BusNetwork, rng: np.random.Generator) -> List[_Passenger]:
    """Each passenger's archetype, route, anchors and preferred times, archetype by archetype."""
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
    for archetype in ARCHETYPES:
        for _ in range(counts[archetype]):
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
                    by_route: Dict[int, List[int]] = {}
                    for r_, s_ in zip(stop_route_a[near].tolist(), stop_idx_a[near].tolist()):
                        by_route.setdefault(r_, []).append(s_)
                    p.near_routes = tuple((ri, sis) for ri, sis in sorted(by_route.items()) if len(sis) >= 2)
            passengers.append(p)
    return passengers


def _novel_pair(p: _Passenger, routes: Tuple[Route, ...], rng: np.random.Generator) -> Optional[Tuple[int, int, int]]:
    """A roamer's novelty ride as (route, origin stop, destination stop), or None for a near roamer with no route."""
    if p.roam_far:
        ri = int(rng.integers(0, len(routes)))
        m = len(routes[ri].stops)
        i = int(rng.integers(0, m))
        j = int(rng.integers(0, m - 1))
        if j >= i:
            j += 1
        return ri, i, j
    # near roamer: two distinct stops of one route inside the radius
    if not p.near_routes:
        return None
    ri, sis = p.near_routes[int(rng.integers(0, len(p.near_routes)))]
    i = int(rng.integers(0, len(sis)))
    j = int(rng.integers(0, len(sis) - 1))
    if j >= i:
        j += 1
    return ri, sis[i], sis[j]


def generate_passengers(
    config: SynthConfig, network: BusNetwork, rng: np.random.Generator
) -> TripTable:
    """Emit every passenger's trips for the whole period, chronologically."""
    config.validate()
    passengers = _draw_passengers(config, network, rng)
    table = _ride_legs(network, len(passengers), _legs(config, network, passengers, rng))
    # code order is id order: by board time, then card id, then vehicle id, ties in emission order
    return table.take(np.lexsort((table.vehicle, table.card, table.board)))


def _legs(config: SynthConfig, network: BusNetwork, passengers: List[_Passenger],
          rng: np.random.Generator) -> np.ndarray:
    """Every passenger's legs, card by card, six ints each as `_ride_legs` takes them.

    A passenger draws its day flags in one call, and a non-roamer the
    jitters of all its round trips in one more: the same draws, in the same
    order, as one call per day and per jitter.
    """
    every_day = np.arange(config.days)
    weekdays = every_day[every_day % 7 < 5]
    trip_days, jitter = [], []
    novel = array("q")  # leg, route, origin stop, destination stop of each roamer leg that rides elsewhere
    n_legs = 0
    for p in passengers:
        # off-peak regulars may ride any day, everyone else only on weekdays
        offpeak = p.archetype == "offpeak_regular"
        eligible, activity = (every_day, OFFPEAK_ACTIVITY) if offpeak else (weekdays, PEAK_ACTIVITY)
        legs_per_trip = 4 if p.peak else 2
        days = _round_trip_days(eligible[rng.random(eligible.size) < activity], config.days,
                                -(-config.min_trips_per_passenger // legs_per_trip))
        trip_days.append(days)
        if p.archetype != "roamer":
            jitter.append(rng.integers(-600, 601, size=(days.size, 2)))
        else:
            # a roamer's novelty draw decides, leg by leg, whether _novel_pair draws: no batch fits
            pairs = []
            for first in range(n_legs, n_legs + days.size * legs_per_trip, legs_per_trip):
                pairs.append((rng.integers(-600, 601), rng.integers(-600, 601)))
                for leg in range(first, first + legs_per_trip):
                    if rng.random() < NOVELTY_P:
                        pair = _novel_pair(p, network.routes, rng)
                        if pair is not None:
                            novel.extend((leg, *pair))
            jitter.append(np.array(pairs, np.int64))
        n_legs += days.size * legs_per_trip

    legs = _anchor_legs(passengers, trip_days, np.concatenate(jitter))
    if novel:
        leg, route, origin, dest = np.frombuffer(novel, np.int64).reshape(-1, 4).T
        legs[leg, 1], legs[leg, 3], legs[leg, 4] = route, origin, dest
    return legs


def _round_trip_days(active: np.ndarray, n_days: int, round_trips: int) -> np.ndarray:
    """The day of each round trip: every active day, in order, then a backstop up to `round_trips`.

    Everyone must reach the configured trip minimum: the backstop fills
    inactive days first, then cycles through the period again from day 0.
    """
    short = round_trips - active.size
    if short <= 0:
        return active
    inactive = np.ones(n_days, bool)
    inactive[active] = False
    return np.concatenate([active, np.flatnonzero(inactive), np.arange(short) % n_days])[:round_trips]


def _anchor_legs(passengers: List[_Passenger], trip_days: List[np.ndarray], jitter: np.ndarray) -> np.ndarray:
    """Every round trip between a passenger's anchors as legs, six ints each as `_ride_legs` takes them.

    `trip_days[c]` holds the days of card c's round trips.  `jitter` has one
    row per round trip, in card and then trip order, that shifts its
    outbound and its return time.  Peak riders run a round trip inside each
    rush window, which concentrates their co-presence; off-peak riders do
    one midday round trip.
    """
    card = np.repeat(np.arange(len(passengers)), [d.size for d in trip_days])
    route, a, b, peak, out, back = np.array([(p.route_idx, p.anchor_a, p.anchor_b, p.peak, p.preferred_out_s,
                                              p.preferred_back_s) for p in passengers], np.int64).T[:, card]
    # four legs a trip: a to b and back 45 minutes later, around the outbound and then the return
    # time; an off-peak trip keeps the first and the last, with no lag
    trip, slot = np.divmod(np.flatnonzero((peak == 1)[:, None] | [True, False, False, True]), 4)
    returning = slot % 2 == 1
    legs = np.empty((trip.size, 6), np.int64)
    legs[:, 0], legs[:, 1], legs[:, 2] = card[trip], route[trip], np.concatenate(trip_days)[trip]
    legs[:, 3], legs[:, 4] = np.where(returning, b[trip], a[trip]), np.where(returning, a[trip], b[trip])
    legs[:, 5] = (jitter + np.column_stack([out, back]))[trip, slot // 2] + 2700 * (peak[trip] & returning)
    return legs


def _ride_legs(network: BusNetwork, n_cards: int, legs: np.ndarray) -> TripTable:
    """Each leg ridden on the run whose passage at its origin stop is nearest its desired time.

    `legs` holds one row per leg: card number, route, day, origin stop,
    destination stop and desired time.  An exact tie between two runs takes
    the earlier one.  Card number `k` is card id `c{k:05d}`.
    """
    card, route_of, day, origin, dest, desired = legs.T
    routes = network.routes
    vehicle, board_stop, alight_stop = (np.empty(len(legs), np.int32) for _ in range(3))
    board, alight = np.empty(len(legs)), np.empty(len(legs))
    first_vehicle = np.cumsum([0] + [r.vehicle_pool for r in routes])
    first_stop = np.cumsum([0] + [len(r.stops) for r in routes])
    for ri, route in enumerate(routes):
        at = np.flatnonzero(route_of == ri)
        i, j = origin[at], dest[at]
        backward = i >= j
        last = len(route.stops) - 1
        pos_i, pos_j = np.where(backward, last - i, i), np.where(backward, last - j, j)
        deps = np.array(route.departures, np.int64)
        target = desired[at] - pos_i * route.leg_seconds
        after = np.minimum(np.searchsorted(deps, target), len(deps) - 1)
        before = np.maximum(after - 1, 0)
        dep = np.where(deps[after] - target < target - deps[before], after, before)
        start = BASE_EPOCH + day[at] * 86_400 + deps[dep]
        board[at] = start + pos_i * route.leg_seconds
        alight[at] = start + pos_j * route.leg_seconds
        vehicle[at] = first_vehicle[ri] + (2 * dep + backward) % route.vehicle_pool
        board_stop[at], alight_stop[at] = first_stop[ri] + i, first_stop[ri] + j
    cards = [f"c{k:05d}" for k in range(n_cards)]
    vehicles = [f"{r.route_id}v{slot:02d}" for r in routes for slot in range(r.vehicle_pool)]
    stops = [s for r in routes for s in r.stops]
    coords = [c for r in routes for c in r.coords]
    return _table(cards, vehicles, stops, coords, card.astype(np.int32), vehicle, board_stop, alight_stop,
                  board, alight)


def synthesize(config: SynthConfig) -> Tuple[BusNetwork, TripTable]:
    """Network plus trips from one seeded generator; pure in (config, seed)."""
    rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed))
    network = generate_network(config, rng)
    return network, generate_passengers(config, network, rng)
