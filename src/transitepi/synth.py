"""Synthetic city-scale trip datasets.

A square city is served by straight-line bus routes with evenly spaced
stops.  Each route runs in both directions on a fixed daily schedule with
dense peak service and sparse off-peak service, and is worked by a small
pool of physical vehicles that cycle through the day's runs (so suspended
pathogens can bridge consecutive runs of the same bus).

Every route has the same number of stops, so `BusNetwork` is columns: stop
positions and coordinates indexed by [route, stop], one stop spacing, leg
time and vehicle pool per route, and one departure array per route.  Stop
ids, vehicle ids and the flat stop codes of the trip table are derived from
those indices where the table is built.

Passengers follow one of four archetypes:

  * commuter: two anchor stops on one route, round trips at peak hours;
  * roamer: close anchor pair plus novelty trips to random stops, either
    city-wide ("far" roamers) or within a small radius of home ("near");
  * long_hauler: anchor stops at least 15 km apart on a long route;
  * offpeak_regular: anchored round trips during low-occupancy hours.

Passengers are columns too: one int64 row per card (archetype index, route,
anchor stops, peak flag, outbound and return time) and one roam list per
roamer, the routes its novelty rides may take with their stops.  Every
roamer uses one novelty rule, a route of its list and then two distinct
stops of it; a far roamer's list is every stop of every route.

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
from typing import Dict, List, Optional, Sequence, Tuple

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

# the routes a roamer's novelty rides may take, each with the stops they may use
Roam = List[Tuple[int, Sequence[int]]]


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


@dataclass(frozen=True, eq=False)
class BusNetwork:
    """The routes as columns; stop `si` of route `ri` is stop code `ri * stops + si`, id `r{ri:02d}s{si:02d}`."""
    xy_km: np.ndarray  # (routes, stops, 2) local (east, north) km
    coords: np.ndarray  # (routes, stops, 2) (lat, lon), each rounded to 6 places
    spacing_km: np.ndarray  # per route: the distance between consecutive stops
    leg_seconds: np.ndarray  # per route: the run time between consecutive stops
    vehicle_pool: np.ndarray  # per route: the vehicles working it, ids r{ri:02d}v{slot:02d}
    departures: Tuple[np.ndarray, ...]  # per route: seconds after local midnight, strictly increasing


def _daily_departures(rng: np.random.Generator) -> np.ndarray:
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
    return np.array(out, np.int64)


def generate_network(config: SynthConfig, rng: np.random.Generator) -> BusNetwork:
    """Lay out routes and stops; deterministic for a given generator state."""
    config.validate()
    extent, m = config.city_extent_km, config.stops_per_route
    # the first third of the routes are long enough for >= 15 km anchor pairs
    # when the city extent allows it
    n_long = config.n_routes // 3 if extent * 0.72 >= LONG_ANCHOR_KM else 0
    xy = np.empty((config.n_routes, m, 2))
    spacing, departures = np.empty(config.n_routes), []
    for ri in range(config.n_routes):
        min_len = 0.72 * extent if ri < n_long else 0.25 * extent
        while True:
            x0, y0, x1, y1 = rng.uniform(0.0, extent, size=4)
            length = math.hypot(x1 - x0, y1 - y0)
            if length >= min_len:
                break
        xy[ri, :, 0], xy[ri, :, 1] = np.linspace(x0, x1, m), np.linspace(y0, y1, m)
        spacing[ri] = length / (m - 1)
        departures.append(_daily_departures(rng))
    lat, lon = local_km_to_latlon(xy[..., 0], xy[..., 1], CITY_ORIGIN_LAT, CITY_ORIGIN_LON)
    coords = np.array([round(c, 6) for c in np.stack([lat, lon], -1).ravel().tolist()]).reshape(xy.shape)
    leg = np.maximum(30, np.rint(spacing / BUS_SPEED_KMH * 3600)).astype(np.int64)  # rint: round half to even
    pool = 2 * ((m - 1) * leg // PEAK_HEADWAY_S + 2)
    return BusNetwork(xy, coords, spacing, leg, pool, tuple(departures))


def _apportion(n: int, mix: Dict[str, float]) -> Dict[str, int]:
    """Largest-remainder split of n passengers over the archetype mix."""
    exact = {a: n * mix.get(a, 0.0) for a in ARCHETYPES}
    floors = {a: int(exact[a]) for a in ARCHETYPES}
    remainder = n - sum(floors.values())
    order = sorted(ARCHETYPES, key=lambda a: (-(exact[a] - floors[a]), a))
    for a in order[:remainder]:
        floors[a] += 1
    return floors


def _anchor_pair(m: int, spacing: float, rng: np.random.Generator, want_long: bool) -> Tuple[int, int]:
    """Pick anchor stop indices on a route of `m` stops `spacing` km apart, targeting a separation in km."""
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


def _draw_passengers(config: SynthConfig, network: BusNetwork,
                     rng: np.random.Generator) -> Tuple[np.ndarray, List[Optional[Roam]]]:
    """Each passenger's anchor ride and roaming range, archetype by archetype.

    Returns one row per card: archetype index, route, anchor stops a and b,
    peak flag, outbound and return time; and each card's roam list, None for
    a non-roamer.  A far roamer roams every stop of every route; a near
    roamer, its routes with two or more stops inside the radius of home.
    """
    n_routes, m = network.xy_km.shape[:2]
    long_routes = np.flatnonzero(network.spacing_km * (m - 1) >= LONG_ANCHOR_KM).tolist()
    counts = _apportion(config.n_passengers, config.archetype_mix)
    spacings = network.spacing_km.tolist()
    xs, ys = network.xy_km.reshape(-1, 2).T  # by stop code, for radius queries
    city: Roam = [(ri, range(m)) for ri in range(n_routes)]

    rows: List[Tuple[int, ...]] = []
    roams: List[Optional[Roam]] = []
    for kind, archetype in enumerate(ARCHETYPES):
        for _ in range(counts[archetype]):
            if archetype == "long_hauler" and long_routes:
                route_idx = long_routes[int(rng.integers(0, len(long_routes)))]
            else:
                route_idx = int(rng.integers(0, n_routes))
            spacing = spacings[route_idx]
            if archetype == "commuter" or archetype == "offpeak_regular":
                want_long = rng.random() < COMMUTER_LONG_P and route_idx in long_routes
                a, b = _anchor_pair(m, spacing, rng, want_long)
                peak = archetype == "commuter"
            elif archetype == "long_hauler":
                a, b = _anchor_pair(m, spacing, rng, True)
                peak = rng.random() < LONG_HAULER_PEAK_P
            else:  # roamer: commuter-like anchor ride, exploration on top
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
            rows.append((kind, route_idx, a, b, peak, out_s, back_s))

            roam: Optional[Roam] = None
            if archetype == "roamer":
                roam = city
                if rng.random() >= 0.5:  # half the roamers roam near home
                    hx, hy = network.xy_km[route_idx, a]
                    by_route: Dict[int, List[int]] = {}
                    for code in np.flatnonzero((xs - hx) ** 2 + (ys - hy) ** 2 <= ROAM_NEAR_RADIUS_KM ** 2).tolist():
                        by_route.setdefault(code // m, []).append(code % m)
                    roam = [(ri, sis) for ri, sis in by_route.items() if len(sis) >= 2]
            roams.append(roam)
    return np.array(rows, np.int64).reshape(-1, 7), roams


def _novel_pair(roam: Roam, rng: np.random.Generator) -> Optional[Tuple[int, int, int]]:
    """A roamer's novelty ride as (route, origin stop, destination stop), or None when it roams no route.

    The ride takes two distinct stops of one route of the roam list.
    """
    if not roam:
        return None
    ri, sis = roam[int(rng.integers(0, len(roam)))]
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
    people, roams = _draw_passengers(config, network, rng)
    table = _ride_legs(network, len(people), _legs(config, people, roams, rng))
    # code order is id order: by board time, then card id, then vehicle id, ties in emission order
    return table.take(np.lexsort((table.vehicle, table.card, table.board)))


def _legs(config: SynthConfig, people: np.ndarray, roams: List[Optional[Roam]],
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
    offpeak_kind = ARCHETYPES.index("offpeak_regular")
    for kind, peak, roam in zip(people[:, 0].tolist(), people[:, 4].tolist(), roams):
        # off-peak regulars may ride any day, everyone else only on weekdays
        offpeak = kind == offpeak_kind
        eligible, activity = (every_day, OFFPEAK_ACTIVITY) if offpeak else (weekdays, PEAK_ACTIVITY)
        legs_per_trip = 4 if peak else 2
        days = _round_trip_days(eligible[rng.random(eligible.size) < activity], config.days,
                                -(-config.min_trips_per_passenger // legs_per_trip))
        trip_days.append(days)
        if roam is None:
            jitter.append(rng.integers(-600, 601, size=(days.size, 2)))
        else:
            # a roamer's novelty draw decides, leg by leg, whether _novel_pair draws: no batch fits
            pairs = []
            for first in range(n_legs, n_legs + days.size * legs_per_trip, legs_per_trip):
                pairs.append((rng.integers(-600, 601), rng.integers(-600, 601)))
                for leg in range(first, first + legs_per_trip):
                    if rng.random() < NOVELTY_P:
                        pair = _novel_pair(roam, rng)
                        if pair is not None:
                            novel.extend((leg, *pair))
            jitter.append(np.array(pairs, np.int64))
        n_legs += days.size * legs_per_trip

    legs = _anchor_legs(people, trip_days, np.concatenate(jitter))
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


def _anchor_legs(people: np.ndarray, trip_days: List[np.ndarray], jitter: np.ndarray) -> np.ndarray:
    """Every round trip between a passenger's anchors as legs, six ints each as `_ride_legs` takes them.

    `trip_days[c]` holds the days of card c's round trips.  `jitter` has one
    row per round trip, in card and then trip order, that shifts its
    outbound and its return time.  Peak riders run a round trip inside each
    rush window, which concentrates their co-presence; off-peak riders do
    one midday round trip.
    """
    card = np.repeat(np.arange(len(people)), [d.size for d in trip_days])
    route, a, b, peak, out, back = people[card, 1:].T
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
    card, route, day, origin, dest, desired = legs.T
    n_routes, m = network.xy_km.shape[:2]
    backward = origin >= dest
    pos_i, pos_j = np.where(backward, m - 1 - origin, origin), np.where(backward, m - 1 - dest, dest)
    leg_s = network.leg_seconds[route]
    target = desired - pos_i * leg_s
    run, depart = np.empty(len(legs), np.int64), np.empty(len(legs), np.int64)
    for ri, deps in enumerate(network.departures):
        at = np.flatnonzero(route == ri)
        after = np.minimum(np.searchsorted(deps, target[at]), len(deps) - 1)
        before = np.maximum(after - 1, 0)
        run[at] = np.where(deps[after] - target[at] < target[at] - deps[before], after, before)
        depart[at] = deps[run[at]]
    start = BASE_EPOCH + day * 86_400 + depart
    board, alight = ((start + pos * leg_s).astype(np.float64) for pos in (pos_i, pos_j))
    pool = network.vehicle_pool
    vehicle = (np.cumsum(pool) - pool)[route] + (2 * run + backward) % pool[route]
    cards = [f"c{k:05d}" for k in range(n_cards)]
    vehicles = [f"r{ri:02d}v{slot:02d}" for ri, size in enumerate(pool.tolist()) for slot in range(size)]
    stops = [f"r{ri:02d}s{si:02d}" for ri in range(n_routes) for si in range(m)]
    return _table(cards, vehicles, stops, network.coords.reshape(-1, 2), card, vehicle, route * m + origin,
                  route * m + dest, board, alight)


def synthesize(config: SynthConfig) -> Tuple[BusNetwork, TripTable]:
    """Network plus trips from one seeded generator; pure in (config, seed)."""
    rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed))
    network = generate_network(config, rng)
    return network, generate_passengers(config, network, rng)
