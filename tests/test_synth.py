from __future__ import annotations

import io
from collections import Counter

import numpy as np
import pytest

from conftest import same_table
from transitepi.classify import GROUP_NAMES, classify_population
from transitepi.cli import _load_synth_config
from transitepi.geo import latlon_to_local_km
from transitepi.ingest import parse_trip_records, write_trip_csv
from transitepi.mobility import mobility_table
from transitepi.synth import (
    CITY_ORIGIN_LAT,
    CITY_ORIGIN_LON,
    SynthConfig,
    generate_network,
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
        assert a == b

    def test_minimal_network(self):
        cfg = SynthConfig(n_passengers=1, n_routes=1, stops_per_route=2, days=1, rng_seed=0)
        net = generate_network(cfg, np.random.default_rng(0))
        assert len(net.routes) == 1
        assert len(net.routes[0].stops) == 2

    def test_stops_inside_city_extent(self):
        for seed in range(100):
            cfg = SynthConfig(n_passengers=1, n_routes=4, stops_per_route=6, rng_seed=seed,
                              city_extent_km=18.0)
            net = generate_network(cfg, np.random.default_rng(seed))
            for lat, lon in net.stops.values():
                x, y = latlon_to_local_km(lat, lon, CITY_ORIGIN_LAT, CITY_ORIGIN_LON)
                assert -0.01 <= x <= cfg.city_extent_km + 0.01
                assert -0.01 <= y <= cfg.city_extent_km + 0.01

    def test_schedules_strictly_increasing(self):
        net = generate_network(SMALL, np.random.default_rng(3))
        for route in net.routes:
            deps = route.departures
            assert all(a < b for a, b in zip(deps, deps[1:]))
            assert len(route.stops) >= 2


class TestPassengers:
    def test_byte_identical_for_same_seed(self):
        _, a = synthesize(SMALL)
        _, b = synthesize(SMALL)
        assert csv_bytes(a) == csv_bytes(b)

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

    @pytest.mark.parametrize("extent", [float("nan"), float("inf"), 0.0, -3.0])
    def test_extent_must_be_positive_and_finite(self, extent):
        with pytest.raises(ValueError, match="city_extent_km"):
            SynthConfig(city_extent_km=extent).validate()

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            SynthConfig(n_passengers=0).validate()

    def test_json_round_trip(self, tmp_path):
        import json

        path = tmp_path / "synth.json"
        path.write_text(json.dumps({"n_passengers": 42, "rng_seed": 9}))
        cfg = _load_synth_config(path)
        assert cfg.n_passengers == 42
        assert cfg.rng_seed == 9
        assert cfg.days == 30
