from __future__ import annotations

import hashlib
import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import same_table
from oracles import passengers_reference
from transitepi.classify import GROUP_NAMES, classify_population
from transitepi.cli import _load_fields
from transitepi.geo import latlon_to_local_km
from transitepi.ingest import parse_trip_records, write_trip_csv
from transitepi.mobility import mobility_table
from transitepi.synth import (
    ARCHETYPES,
    CITY_ORIGIN_LAT,
    CITY_ORIGIN_LON,
    DEFAULT_MIX,
    MAX_EXTENT_KM,
    NOVELTY_P,
    ROAM_NEAR_RADIUS_KM,
    SynthConfig,
    _apportion,
    _draw_passengers,
    _legs,
    generate_network,
    generate_passengers,
    synthesize,
)

SMALL = SynthConfig(
    n_passengers=400, n_routes=9, stops_per_route=14, days=21, rng_seed=11, city_extent_km=30.0
)


def csv_bytes(records) -> bytes:
    import os
    import tempfile

    fd, name = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        write_trip_csv(records, name)
        with open(name, "rb") as fh:
            return fh.read()
    finally:
        os.unlink(name)


class TestNetwork:
    def test_seed_determinism(self):
        a = generate_network(SMALL, np.random.default_rng(7))
        b = generate_network(SMALL, np.random.default_rng(7))
        for name in ("xy_km", "coords", "spacing_km", "leg_seconds", "vehicle_pool"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert len(a.departures) == len(b.departures) == SMALL.n_routes
        assert all(np.array_equal(x, y) for x, y in zip(a.departures, b.departures))

    def test_minimal_network(self):
        cfg = SynthConfig(n_passengers=1, n_routes=1, stops_per_route=2, days=1, rng_seed=0)
        net = generate_network(cfg, np.random.default_rng(0))
        assert net.xy_km.shape == net.coords.shape == (1, 2, 2)
        assert net.spacing_km.shape == net.leg_seconds.shape == net.vehicle_pool.shape == (1,)
        assert len(net.departures) == 1

    def test_stops_inside_city_extent(self):
        for seed in range(100):
            cfg = SynthConfig(n_passengers=1, n_routes=4, stops_per_route=6, rng_seed=seed,
                              city_extent_km=18.0)
            net = generate_network(cfg, np.random.default_rng(seed))
            for lat, lon in net.coords.reshape(-1, 2).tolist():
                x, y = latlon_to_local_km(lat, lon, CITY_ORIGIN_LAT, CITY_ORIGIN_LON)
                assert -0.01 <= x <= cfg.city_extent_km + 0.01
                assert -0.01 <= y <= cfg.city_extent_km + 0.01

    def test_schedules_strictly_increasing(self):
        net = generate_network(SMALL, np.random.default_rng(3))
        assert len(net.departures) == SMALL.n_routes
        for deps in net.departures:
            assert deps.size >= 1 and np.all(deps[1:] > deps[:-1])
        assert net.xy_km.shape[1] >= 2

    @given(routes=st.integers(1, 8), stops=st.integers(2, 30), extent=st.floats(0.5, 200.0),
           seed=st.integers(0, 2 ** 32))
    def test_consecutive_stops_lie_one_spacing_apart(self, routes, stops, extent, seed):
        cfg = SynthConfig(n_passengers=1, n_routes=routes, stops_per_route=stops, city_extent_km=extent)
        net = generate_network(cfg, np.random.default_rng(seed))
        gaps = np.hypot(*np.diff(net.xy_km, axis=1).transpose(2, 0, 1))
        assert gaps.shape == (routes, stops - 1)
        np.testing.assert_allclose(gaps, np.repeat(net.spacing_km[:, None], stops - 1, 1), rtol=1e-9)


class TestPassengers:
    def test_byte_identical_for_same_seed(self):
        _, a = synthesize(SMALL)
        _, b = synthesize(SMALL)
        assert csv_bytes(a) == csv_bytes(b)

    # a change to the generator or the writer that moves one byte of a trip file fails here
    @pytest.mark.parametrize("config, trips, digest", [
        (SMALL, 15_400, "9d7b69c9fcd3f6e223fcf022266ea27203ec9a3f4137ffaa1b077d0d72f6a8ec"),
        (SynthConfig(n_passengers=300, n_routes=6, stops_per_route=10, days=14, rng_seed=5, city_extent_km=60.0,
                     archetype_mix={"roamer": 1.0}),
         7_624, "ab852c3622f303e81c1dc34503e9b64e84f29978df862746bdd1199207b16f05"),
        (SynthConfig(n_passengers=200, n_routes=6, stops_per_route=10, days=14, rng_seed=6, city_extent_km=30.0,
                     archetype_mix={"long_hauler": 1.0}),
         4_714, "69897bdde5181276f9d05ea00337d8df13addec52db68b5064e5f651074151d6"),
        # the benchmark's months: a bound per card or per leg must draw alike on every numpy
        (SynthConfig(n_passengers=2_000, rng_seed=1),
         112_406, "58e2c386750e8495daeb85f9d12c888f5ed83e8c447bd2b6f13d631142a9c789"),
        (SynthConfig(n_passengers=3_000, rng_seed=1),
         168_680, "87feafb438a4e9e4f5c3d6d3ebcdedee24c5553cd61ba748fdf2d4effb817d39"),
        # near roamers take the radius query over the stops; with no route long enough
        # for a long haul, the long haulers fall back to any route
        (SynthConfig(n_passengers=500, n_routes=12, stops_per_route=15, days=14, rng_seed=2, city_extent_km=12.0,
                     archetype_mix={"roamer": 0.7, "long_hauler": 0.3}),
         11_948, "96a73d670a7fbd4a195ceb44b2abbe95a29b0a5beb8cfe279b6a6ec080257edd"),
        # the month behind every 10,000-passenger measurement
        (SynthConfig(rng_seed=1),
         564_086, "50db7b0e7ceec60099eecd5fedd1070cb104b5cee1b079aa698aa29b84043431"),
    ], ids=["default-mix", "roamers", "long-haulers", "sweep-grid", "classify-city", "small-city", "10k"])
    def test_pinned_file_digest(self, config, trips, digest):
        _, records = synthesize(config)
        assert len(records) == trips
        assert hashlib.sha256(csv_bytes(records)).hexdigest() == digest

    @given(passengers=st.integers(1, 40), days=st.integers(1, 30), min_trips=st.integers(1, 150),
           routes=st.integers(1, 6), extent=st.sampled_from([10.0, 30.0, 60.0]), seed=st.integers(0, 2 ** 32),
           mix=st.sampled_from([DEFAULT_MIX, {"offpeak_regular": 1.0}, {"commuter": 1.0}, {"long_hauler": 1.0},
                                {"roamer": 1.0}]))
    # the backstop runs out of inactive days and wraps past the period's end
    @example(passengers=12, days=7, min_trips=100, routes=3, extent=30.0, seed=3, mix=DEFAULT_MIX)
    def test_batched_draws_match_the_scalar_reference(self, passengers, days, min_trips, routes, extent, seed, mix):
        config = SynthConfig(n_passengers=passengers, n_routes=routes, stops_per_route=8, days=days,
                             archetype_mix=mix, city_extent_km=extent, min_trips_per_passenger=min_trips)
        rng = np.random.default_rng(seed)
        network = generate_network(config, rng)
        reference_rng = np.random.default_rng()
        reference_rng.bit_generator.state = rng.bit_generator.state
        trips = generate_passengers(config, network, rng)
        assert same_table(trips, passengers_reference(config, network, reference_rng))
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_different_seed_differs(self):
        _, a = synthesize(SMALL)
        cfg2 = SynthConfig(**{**SMALL.__dict__, "rng_seed": 12})
        _, b = synthesize(cfg2)
        assert csv_bytes(a) != csv_bytes(b)

    def test_reingests_with_zero_rejections(self):
        _, records = synthesize(SMALL)
        data = csv_bytes(records).decode()
        back, report = parse_trip_records(io.StringIO(data))
        assert report.rejected == 0
        assert report.accepted == len(records)
        assert same_table(back, records)

    def test_min_trips_guaranteed(self):
        cfg = SynthConfig(n_passengers=120, n_routes=4, stops_per_route=8, days=9,
                          rng_seed=5, min_trips_per_passenger=15)
        _, records = synthesize(cfg)
        counts = Counter(records.card.tolist())
        assert len(counts) == 120
        assert min(counts.values()) >= 15

    def test_pure_commuter_mix_has_no_explorers(self):
        cfg = SynthConfig(
            n_passengers=150, n_routes=6, stops_per_route=12, days=21, rng_seed=13,
            archetype_mix={"commuter": 1.0},
        )
        _, records = synthesize(cfg)
        result = classify_population(mobility_table(records))
        explorer_share = sum(
            1 for g in result.assignments.group.tolist() if GROUP_NAMES[g].startswith("exp_")
        ) / len(result.assignments.cards)
        assert explorer_share == 0.0

    def test_default_mix_fills_all_groups(self):
        cfg = SynthConfig(n_passengers=1200, n_routes=12, stops_per_route=15, days=30, rng_seed=1)
        _, records = synthesize(cfg)
        result = classify_population(mobility_table(records))
        sizes = Counter(GROUP_NAMES[g] for g in result.assignments.group.tolist())
        assert all(sizes[name] > 0 for name in GROUP_NAMES), sizes


def roamer_legs(seed: int, config: SynthConfig, empty_every: int = 0):
    """A network, its passengers, their roam lists and their legs; every `empty_every`-th roam list emptied first.

    With a roamer-only mix, card k's roam list is `roams[k]`.
    """
    rng = np.random.default_rng(seed)
    network = generate_network(config, rng)
    people, roams = _draw_passengers(config, network, rng)
    drawn = roams.copy()
    if empty_every:
        roams[::empty_every] = False
    return network, people, drawn, roams, _legs(config, people, roams, rng)


def anchored(people: np.ndarray, legs: np.ndarray) -> np.ndarray:
    """Which legs ride their card's anchor ride, a to b or b to a."""
    route, a, b = people[legs[:, 0], 1:4].T
    return (legs[:, 1] == route) & (((legs[:, 3] == a) & (legs[:, 4] == b)) | ((legs[:, 3] == b) & (legs[:, 4] == a)))


class TestLaws:
    """The law of each batched draw, read off the generator's own output."""

    @given(passengers=st.integers(1, 40), days=st.integers(1, 30), min_trips=st.integers(1, 150),
           seed=st.integers(0, 2 ** 32),
           mix=st.sampled_from([DEFAULT_MIX, {"offpeak_regular": 1.0}, {"commuter": 1.0}, {"roamer": 1.0}]))
    # the backstop runs out of inactive days and wraps past the period's end
    @example(passengers=12, days=7, min_trips=100, seed=3, mix=DEFAULT_MIX)
    def test_every_card_reaches_the_trip_minimum(self, passengers, days, min_trips, seed, mix):
        config = SynthConfig(n_passengers=passengers, n_routes=3, stops_per_route=8, days=days, archetype_mix=mix,
                             rng_seed=seed, min_trips_per_passenger=min_trips)
        _, trips = synthesize(config)
        assert len(trips.cards) == passengers
        assert np.bincount(trips.card).min() >= min_trips

    @given(passengers=st.integers(1, 300), weights=st.lists(st.integers(0, 9), min_size=4, max_size=4).filter(any),
           seed=st.integers(0, 2 ** 32))
    def test_cards_per_archetype_follow_the_apportionment(self, passengers, weights, seed):
        mix = {archetype: w / sum(weights) for archetype, w in zip(ARCHETYPES, weights)}
        config = SynthConfig(n_passengers=passengers, n_routes=4, stops_per_route=6, days=7, archetype_mix=mix)
        rng = np.random.default_rng(seed)
        people, roams = _draw_passengers(config, generate_network(config, rng), rng)
        counts = _apportion(passengers, mix)
        assert np.bincount(people[:, 0], minlength=len(ARCHETYPES)).tolist() == [counts[a] for a in ARCHETYPES]
        assert np.all(np.diff(people[:, 0]) >= 0) and len(roams) == counts["roamer"]

    @given(routes=st.integers(1, 8), stops=st.integers(2, 12), extent=st.sampled_from([8.0, 30.0, 200.0]),
           seed=st.integers(0, 2 ** 32))
    def test_novel_rides_lie_on_the_roam_list(self, routes, stops, extent, seed):
        config = SynthConfig(n_passengers=24, n_routes=routes, stops_per_route=stops, days=7, city_extent_km=extent,
                             archetype_mix={"roamer": 1.0}, min_trips_per_passenger=20)
        network, people, drawn, roams, legs = roamer_legs(seed, config, empty_every=3)
        xy = network.xy_km
        for r, (_, route, a, *_) in enumerate(people.tolist()):
            # a far roamer roams every stop; a near one the stops within the radius of home, on routes holding two
            inside = ((xy - xy[route, a]) ** 2).sum(-1) <= ROAM_NEAR_RADIUS_KM ** 2
            inside &= inside.sum(1, keepdims=True) >= 2
            assert drawn[r].all() or np.array_equal(drawn[r], inside)
        novel = legs[~anchored(people, legs)]
        assert np.all(novel[:, 3] != novel[:, 4])
        assert np.all(roams[novel[:, 0], novel[:, 1], novel[:, 3]] & roams[novel[:, 0], novel[:, 1], novel[:, 4]])
        # a roamer with an empty roam list rides only its anchors
        assert not np.isin(novel[:, 0], np.flatnonzero(~roams.any((1, 2)))).any()

    def test_novel_share_is_the_novelty_probability(self):
        config = SynthConfig(n_passengers=1000, days=30, archetype_mix={"roamer": 1.0})
        _, people, _, roams, legs = roamer_legs(8, config)
        card = legs[:, 0]
        eligible = roams.any((1, 2))[card]
        # a novel ride that repeats the leg's own anchor ride looks anchored: the leg's chance of that is one
        # over the roamed routes and the ordered stop pairs of its route, when the ride is on the roam list
        route, a, b = people[card, 1:4].T
        back = (np.arange(len(legs)) - np.searchsorted(card, card)) % 2 == 1
        origin, dest = np.where(back, b, a), np.where(back, a, b)
        on_route = roams[card, route].sum(1)
        own = roams[card, route, origin] & roams[card, route, dest]
        routes = roams.any(2).sum(1)[card]
        repeat = np.where(own, 1 / (np.maximum(on_route * (on_route - 1), 1) * np.maximum(routes, 1)), 0.0)
        p = NOVELTY_P * (1 - repeat[eligible])
        novel = np.count_nonzero(~anchored(people, legs)[eligible])
        assert eligible.sum() > 30_000
        assert abs(novel - p.sum()) <= 4 * np.sqrt((p * (1 - p)).sum())


class TestConfig:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SynthConfig(archetype_mix={"commuter": 0.5}).validate()

    def test_unknown_archetype_rejected(self):
        with pytest.raises(ValueError, match="unknown archetypes"):
            SynthConfig(archetype_mix={"wanderer": 1.0}).validate()

    @pytest.mark.parametrize(
        "mix",
        [{"commuter": 1.5, "roamer": -0.5}, {"commuter": float("nan")}, {"commuter": float("inf"), "roamer": 1.0}],
        ids=["negative", "nan", "inf"],
    )
    def test_fractions_must_be_non_negative_and_finite(self, mix):
        with pytest.raises(ValueError, match="non-negative and finite"):
            SynthConfig(archetype_mix=mix).validate()

    # 1e200 and 1e308 would put stops off the globe, the latter overflowing on the way
    @pytest.mark.parametrize("extent", [float("nan"), float("inf"), 0.0, -3.0, 1e200, 1e308, MAX_EXTENT_KM * 1.001])
    def test_extent_must_be_positive_and_finite(self, extent):
        with pytest.raises(ValueError, match="city_extent_km"):
            SynthConfig(city_extent_km=extent).validate()

    def test_largest_extent_reingests_with_zero_rejections(self):
        cfg = SynthConfig(n_passengers=20, n_routes=4, stops_per_route=6, days=3, rng_seed=2,
                          min_trips_per_passenger=1, city_extent_km=MAX_EXTENT_KM)
        _, records = synthesize(cfg)
        back, report = parse_trip_records(io.StringIO(csv_bytes(records).decode()))
        assert report.rejected == 0
        assert same_table(back, records)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ValueError, match="rng_seed must be >= 0, got -1"):
            SynthConfig(rng_seed=-1).validate()

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            SynthConfig(n_passengers=0).validate()

    def test_json_round_trip(self, tmp_path):
        import json

        path = tmp_path / "synth.json"
        path.write_text(json.dumps({"n_passengers": 42, "rng_seed": 9}))
        cfg = _load_fields(path, "synth config", SynthConfig)
        assert cfg.n_passengers == 42
        assert cfg.rng_seed == 9
        assert cfg.days == 30
