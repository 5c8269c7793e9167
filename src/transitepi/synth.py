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
anchor stops, peak flag, outbound and return time) and, for the roamers, one
(roamers, routes, stops) mask of the stops their novelty rides may use.
Every roamer uses one novelty rule, a route of its roam list and then two
distinct stops of it; a far roamer's list is every stop of every route.

Together the archetypes populate all eight mobility groups: roamers become
explorers, everyone else returners; peak travel drives encounter counts up,
off-peak travel keeps them low; anchor separation and roaming range set the
radius of gyration.

Generation is a pure function of (config, seed): the same SynthConfig always
yields byte-identical trip files.

Each kind of draw is one call over every card (or leg) it concerns, with
array-valued bounds where the bound differs from card to card, so no loop
draws per card or per leg.  The kinds follow each other in a fixed order,
given in `_draw_passengers` and `_legs`: the passengers' routes, anchors,
peak flags, times and near flags, then every card's day flags, every round
trip's jitters and every roamer leg's novelty flag, and last the novel
legs' routes and stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

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
NEAR_CELLS = 1 << 16  # (roamer, stop) cells per step of the near roamers' radius query
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


def _draw_passengers(config: SynthConfig, network: BusNetwork,
                     rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """Each passenger's anchor ride and roaming range, each kind of draw in one call over every card it concerns.

    Returns one row per card, the cards grouped by archetype: archetype
    index, route, anchor stops a and b, peak flag, outbound and return time.
    And the roamers' roam lists, in card order, as a (roamers, routes, stops)
    mask of the stops each may ride between, a route with fewer than two
    of them cleared: a far roamer roams every stop of every route; a near
    roamer, the stops inside the radius of home.

    The draws, in order: every card's route; the long-pair flag of each
    commuter and off-peak regular; the first stop of every long anchor pair,
    then the second; the separation and then the first stop of every other
    anchor pair, a roamer's included; the peak flag of each roamer and long
    hauler; the outbound and return offsets, card by card; and each
    roamer's near flag.
    """
    n_routes, m = network.xy_km.shape[:2]
    long_routes = np.flatnonzero(network.spacing_km * (m - 1) >= LONG_ANCHOR_KM)
    counts = _apportion(config.n_passengers, config.archetype_mix)
    kind = np.repeat(np.arange(len(ARCHETYPES)), [counts[a] for a in ARCHETYPES])
    commuter, roamer, hauler, offpeak = (kind == k for k in range(len(ARCHETYPES)))

    # long haulers ride a route long enough for a long pair, when the city has one
    hauls = hauler & (long_routes.size > 0)
    route = rng.integers(0, np.where(hauls, long_routes.size, n_routes))
    route[hauls] = long_routes[route[hauls]]
    spacing = network.spacing_km[route]
    want_long = hauler.copy()
    regular = commuter | offpeak
    want_long[regular] = (rng.random(np.count_nonzero(regular)) < COMMUTER_LONG_P) & np.isin(route[regular],
                                                                                          long_routes)
    # a long pair's stops lie at least LONG_ANCHOR_KM apart; a route too short for one takes a short pair
    delta_min = np.ceil(LONG_ANCHOR_KM / spacing).astype(np.int64)
    long = want_long & (delta_min <= m - 1)
    a, b = np.empty(kind.size, np.int64), np.empty(kind.size, np.int64)
    a[long] = rng.integers(0, m - delta_min[long])
    b[long] = rng.integers(a[long] + delta_min[long], m)
    # a short pair targets a separation of 1-6 km, a roamer's 1-4 km that always fits forward from its first stop
    short = ~long
    target = rng.uniform(1.0, np.where(roamer[short], 4.0, 6.0))
    delta = np.clip(np.rint(target / spacing[short]), 1, m - 1).astype(np.int64)  # rint: round half to even
    i = rng.integers(0, np.where(roamer[short], m - delta, m))
    first = np.where(i + delta < m, i, i - delta)
    a[short], b[short] = np.where(first >= 0, first, 0), np.where(first >= 0, first + delta, m - 1)

    peak = commuter.copy()
    drawn = roamer | hauler
    peak[drawn] = rng.random(np.count_nonzero(drawn)) < np.where(roamer, ROAMER_PEAK_P, LONG_HAULER_PEAK_P)[drawn]
    # peak riders leave in the morning rush and return in the evening one, each leaving 45 minutes of window
    # for the way back; the rest go out late morning and return in the afternoon
    offset = rng.integers(0, np.where(peak, 4500, 3 * 3600)[:, None], size=(kind.size, 2))
    out = np.where(peak, 7 * 3600, 10 * 3600) + offset[:, 0]
    back = np.where(peak, 17 * 3600, 13 * 3600 + 1800) + offset[:, 1]
    people = np.column_stack([kind, route, a, b, peak, out, back])

    # half the roamers roam near home: the stops within the radius of their first anchor stop
    home = network.xy_km[route[roamer], a[roamer]]
    near = np.flatnonzero(rng.random(len(home)) >= 0.5)
    xs, ys = network.xy_km.reshape(-1, 2).T  # by stop code
    roams = np.ones((len(home), n_routes * m), bool)
    # the radius query takes NEAR_CELLS cells at a time, which bounds its float temporaries
    chunk = max(1, NEAR_CELLS // xs.size)
    for at in np.split(near, range(chunk, near.size, chunk)):
        roams[at] = (xs - home[at, :1]) ** 2 + (ys - home[at, 1:]) ** 2 <= ROAM_NEAR_RADIUS_KM ** 2
    roams = roams.reshape(-1, n_routes, m)
    roams &= roams.sum(2, keepdims=True, dtype=np.min_scalar_type(m)) >= 2
    return people, roams


def generate_passengers(
    config: SynthConfig, network: BusNetwork, rng: np.random.Generator
) -> TripTable:
    """Emit every passenger's trips for the whole period, chronologically."""
    config.validate()
    people, legs = _people_and_legs(config, network, rng)
    table = _ride_legs(network, len(people), legs)
    # code order is id order: by board time, then card id, then vehicle id, ties in emission order
    return table.take(np.lexsort((table.vehicle, table.card, table.board)))


def _people_and_legs(config: SynthConfig, network: BusNetwork,
                     rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """Every card's row as `_draw_passengers` gives it, and every card's legs as `_legs` gives them."""
    people, roams = _draw_passengers(config, network, rng)
    return people, _legs(config, people, roams, rng)


def _legs(config: SynthConfig, people: np.ndarray, roams: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Every passenger's legs, card by card, six ints each as `_ride_legs` takes them.

    The draws, in order: one (cards x days) array of day flags; two jitters
    for each round trip, in card and then trip order; a novelty flag for
    each leg of a roamer whose roam list is not empty; and for each novel
    leg a route of the roam list, then two distinct stops of that route.
    """
    kind, peak = people[:, 0], people[:, 4] == 1
    # off-peak regulars may ride any day, everyone else only on weekdays
    offpeak = kind == ARCHETYPES.index("offpeak_regular")
    activity = np.where(offpeak, OFFPEAK_ACTIVITY, PEAK_ACTIVITY)[:, None]
    active = (rng.random((len(people), config.days)) < activity) & (offpeak[:, None] | (np.arange(config.days) % 7 < 5))
    card, day = _round_trip_days(active, -(-config.min_trips_per_passenger // np.where(peak, 4, 2)))
    legs = _anchor_legs(people, card, day, rng.integers(-600, 601, size=(card.size, 2)))

    # a roamer's leg is novel with probability NOVELTY_P: it rides between two distinct stops of a route of the
    # roam list instead
    stops_on = roams.reshape(-1, roams.shape[2]).sum(1)  # per (roamer, route): 0 or at least 2
    routes_on = np.count_nonzero(roams.any(2), 1)
    roamer = np.zeros(len(people), np.int64)
    roamer[kind == ARCHETYPES.index("roamer")] = np.arange(len(roams))
    routes_of = np.zeros(len(people), np.int64)
    routes_of[kind == ARCHETYPES.index("roamer")] = routes_on
    eligible = np.flatnonzero(routes_of[legs[:, 0]])
    novel = eligible[rng.random(eligible.size) < NOVELTY_P]
    r = roamer[legs[novel, 0]]
    cell = np.flatnonzero(stops_on)[(np.cumsum(routes_on) - routes_on)[r] + rng.integers(0, routes_on[r])]
    count = stops_on[cell]
    ij = rng.integers(0, np.column_stack([count, count - 1]))
    ij[:, 1] += ij[:, 1] >= ij[:, 0]
    # the (ij + 1)-th stop of a cell, in stop order, is the number of its stops whose rank in the cell is at most ij
    rank = roams.reshape(-1, roams.shape[2])[cell].cumsum(1, dtype=np.min_scalar_type(roams.shape[2]))
    stop = np.column_stack([np.count_nonzero(rank <= k[:, None], 1) for k in ij.T])
    legs[novel, 1], legs[novel, 3], legs[novel, 4] = cell % roams.shape[1], stop[:, 0], stop[:, 1]
    return legs


def _round_trip_days(active: np.ndarray, round_trips: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each round trip's card and day, card by card: every active day, in order, then a backstop up to `round_trips`.

    `active` is a (cards x days) mask and `round_trips` each card's minimum.
    Everyone must reach the configured trip minimum: the backstop fills
    inactive days first, then cycles through the period again from day 0.
    """
    n_days = active.shape[1]
    trips = np.maximum(np.count_nonzero(active, 1), round_trips)
    card = np.repeat(np.arange(active.shape[0]), trips)
    nth = np.arange(card.size) - np.repeat(np.cumsum(trips) - trips, trips)
    order = np.argsort(~active, 1, kind="stable")  # active days first, then the inactive ones, each in day order
    return card, np.where(nth < n_days, order[card, np.minimum(nth, n_days - 1)], nth % n_days)


def _anchor_legs(people: np.ndarray, card: np.ndarray, day: np.ndarray, jitter: np.ndarray) -> np.ndarray:
    """Every round trip between a passenger's anchors as legs, six ints each as `_ride_legs` takes them.

    Round trip k is card `card[k]`'s on day `day[k]`, and `jitter[k]` shifts
    its outbound and its return time.  Peak riders run a round trip inside
    each rush window, which concentrates their co-presence; off-peak riders
    do one midday round trip.
    """
    route, a, b, peak, out, back = people[card, 1:].T
    # four legs a trip: a to b and back 45 minutes later, around the outbound and then the return
    # time; an off-peak trip keeps the first and the last, with no lag
    trip, slot = np.divmod(np.flatnonzero((peak == 1)[:, None] | [True, False, False, True]), 4)
    returning = slot % 2 == 1
    legs = np.empty((trip.size, 6), np.int64)
    legs[:, 0], legs[:, 1], legs[:, 2] = card[trip], route[trip], day[trip]
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
