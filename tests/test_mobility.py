from __future__ import annotations

import random

import pytest

import numpy as np

from conftest import planar_stop, table, trip
from oracles import gyration_direct, k_gyration_direct
from transitepi.contacts import encounter_counts
from transitepi.geo import HAVERSINE, PLANAR, haversine_m
from transitepi.mobility import mobility_table, radii_of_gyration, visit_counts


def gyration(visits, k, model):
    """rg and k-rg of one card; visits: list of (stop_id, lat, lon, count)."""
    visits = sorted(visits)  # radii_of_gyration takes a card's stops in stop-id order
    _, lat, lon, n = (np.array(c) for c in zip(*visits))
    rg, rgk = radii_of_gyration(np.zeros(len(visits), np.int64), lat, lon, n, k, model)
    return float(rg[0]), float(rgk[0])


def radius_of_gyration(visits, model):
    return gyration(visits, 1, model)[0]


def k_radius_of_gyration(visits, k, model):
    return gyration(visits, k, model)[1]


def tally(trips):
    """{card: {stop id: visits}} from visit_counts."""
    out = {}
    for c, s, n in zip(*(a.tolist() for a in visit_counts(trips))):
        out.setdefault(trips.cards[c], {})[trips.stops[s]] = n
    return out


class TestVisitProfile:
    def test_single_trip_counts_both_ends(self):
        a = planar_stop("A", 0, 0)
        b = planar_stop("B", 0, 1000)
        visits = tally(table([trip("p", "v", 0, 10, a, b)]))
        assert visits == {"p": {"A": 1, "B": 1}}
        assert sum(visits["p"].values()) == 2

    def test_fifteen_identical_trips(self):
        a = planar_stop("A", 0, 0)
        b = planar_stop("B", 0, 1000)
        records = [trip("p", "v", i * 100, i * 100 + 10, a, b) for i in range(15)]
        visits = tally(table(records))
        assert visits == {"p": {"A": 15, "B": 15}}
        assert sum(visits["p"].values()) == 30

    def test_mixed_trips_match_tally_oracle(self):
        rnd = random.Random(3)
        stops = [planar_stop(f"s{i}", rnd.uniform(0, 500), rnd.uniform(0, 500)) for i in range(6)]
        records = []
        want = {}
        for i in range(40):
            a, b = rnd.sample(stops, 2)
            records.append(trip("p", "v", i * 50, i * 50 + 10, a, b))
            want[a[0]] = want.get(a[0], 0) + 1
            want[b[0]] = want.get(b[0], 0) + 1
        assert tally(table(records)) == {"p": want}

    def test_empty_table_has_no_visits(self):
        assert all(a.size == 0 for a in visit_counts(table([])))
        assert len(mobility_table(table([])).cards) == 0

    def test_cards_counted_apart(self):
        a, b, c = planar_stop("A", 0, 0), planar_stop("B", 0, 1), planar_stop("C", 1, 0)
        records = [trip("q", "v", 0, 1, a, b), trip("p", "v", 0, 1, b, c), trip("p", "w", 5, 6, c, a)]
        assert tally(table(records)) == {"p": {"A": 1, "B": 1, "C": 2}, "q": {"A": 1, "B": 1}}


class TestRadiusOfGyration:
    def test_single_location_is_zero(self):
        profile = [("A", 12.0, 40.0, 30)]
        assert radius_of_gyration(profile, PLANAR) == 0.0

    def test_two_equal_stops_half_distance(self):
        profile = [("A", 0.0, 0.0, 5), ("B", 0.0, 1000.0, 5)]
        assert radius_of_gyration(profile, PLANAR) == pytest.approx(500.0, abs=1e-9)

    def test_random_profiles_match_direct_oracle_planar(self):
        rnd = random.Random(11)
        for _ in range(50):
            m = rnd.randint(2, 10)
            visits = [(f"s{i}", rnd.uniform(-5e4, 5e4), rnd.uniform(-5e4, 5e4), rnd.randint(1, 9))
                      for i in range(m)]
            profile = visits
            got = radius_of_gyration(profile, PLANAR)
            want = gyration_direct([(x, y) for _, x, y, _ in visits], [n for *_, n in visits], planar=True)
            assert got == pytest.approx(want, rel=1e-9)

    def test_random_profiles_match_direct_oracle_haversine(self):
        rnd = random.Random(12)
        for _ in range(50):
            m = rnd.randint(2, 10)
            visits = [
                (f"s{i}", rnd.uniform(-34.2, -33.5), rnd.uniform(150.8, 151.5), rnd.randint(1, 9))
                for i in range(m)
            ]
            got = radius_of_gyration(visits, HAVERSINE)
            want = gyration_direct([(lat, lon) for _, lat, lon, _ in visits],
                                   [n for *_, n in visits], planar=False)
            assert got == pytest.approx(want, rel=1e-9)

    def test_translation_invariance(self):
        rnd = random.Random(21)
        visits = [(f"s{i}", rnd.uniform(0, 1000), rnd.uniform(0, 1000), rnd.randint(1, 5)) for i in range(8)]
        base = radius_of_gyration(visits, PLANAR)
        shifted = [(sid, x + 12345.0, y - 999.0, n) for sid, x, y, n in visits]
        moved = radius_of_gyration(shifted, PLANAR)
        assert moved == pytest.approx(base, rel=1e-9)

    def test_scaling_linearity(self):
        rnd = random.Random(22)
        visits = [(f"s{i}", rnd.uniform(0, 1000), rnd.uniform(0, 1000), rnd.randint(1, 5)) for i in range(8)]
        base = radius_of_gyration(visits, PLANAR)
        for c in (0.5, 3.0, 17.25):
            scaled = [(sid, c * x, c * y, n) for sid, x, y, n in visits]
            assert radius_of_gyration(scaled, PLANAR) == pytest.approx(c * base, rel=1e-9)


class TestKRadius:
    def test_k_at_least_location_count_equals_total(self):
        rnd = random.Random(31)
        visits = [(f"s{i}", rnd.uniform(0, 1000), rnd.uniform(0, 1000), rnd.randint(1, 5)) for i in range(5)]
        profile = visits
        rg = radius_of_gyration(profile, PLANAR)
        for k in (5, 6, 100):
            assert k_radius_of_gyration(profile, k, PLANAR) == rg  # bit-exact

    def test_dominant_pair_excludes_rare_stop(self):
        visits = [("A", 0.0, 0.0, 10), ("B", 0.0, 1000.0, 10), ("C", 50_000.0, 0.0, 1)]
        got = k_radius_of_gyration(visits, 2, PLANAR)
        want = k_gyration_direct(
            [(0.0, 0.0), (0.0, 1000.0), (50_000.0, 0.0)], [10, 10, 1], ["A", "B", "C"], 2, planar=True
        )
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(500.0, abs=1e-9)

    def test_single_location_any_k(self):
        profile = [("A", 3.0, 4.0, 7)]
        for k in (1, 2, 9):
            assert k_radius_of_gyration(profile, k, PLANAR) == 0.0

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            k_radius_of_gyration([("A", 0, 0, 1)], 0, PLANAR)

    def test_random_profiles_match_oracle(self):
        rnd = random.Random(41)
        for _ in range(50):
            m = rnd.randint(2, 12)
            visits = [(f"s{i:02d}", rnd.uniform(-1e4, 1e4), rnd.uniform(-1e4, 1e4), rnd.randint(1, 6))
                      for i in range(m)]
            profile = visits
            k = rnd.randint(1, m + 2)
            got = k_radius_of_gyration(profile, k, PLANAR)
            want = k_gyration_direct([(x, y) for _, x, y, _ in visits],
                                     [n for *_, n in visits],
                                     [sid for sid, *_ in visits], k, planar=True)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestGeo:
    def test_haversine_known_distance(self):
        # Sydney Town Hall to Central Station, roughly 1.4 km
        d = haversine_m((-33.8732, 151.2070), (-33.8832, 151.2060))
        assert 1000 < d < 1300

    def test_haversine_zero(self):
        assert haversine_m((-33.87, 151.21), (-33.87, 151.21)) == 0.0

    def test_haversine_com_of_identical_points(self):
        lat, lon = HAVERSINE.center_of_mass(np.full(3, -33.87), np.full(3, 151.21),
                                            np.array([1.0, 2.0, 3.0]), np.zeros(3, np.int64), 1)
        assert lat[0] == pytest.approx(-33.87, abs=1e-9)
        assert lon[0] == pytest.approx(151.21, abs=1e-9)


def encounters(records):
    """{card: encounters} from encounter_counts."""
    trips = table(records)
    return dict(zip(trips.cards, encounter_counts(trips).tolist()))


class TestEncounterCount:
    def test_single_overlap(self):
        records = [trip("A", "v", 0, 100), trip("B", "v", 50, 150)]
        assert encounters(records) == {"A": 1, "B": 1}

    def test_three_separate_overlaps_count_thrice(self):
        records = []
        for i in range(3):
            base = i * 1000
            records.append(trip("A", "v", base, base + 100))
            records.append(trip("B", "v", base + 50, base + 150))
        assert encounters(records)["A"] == 3

    def test_matches_quadratic_oracle(self):
        from oracles import direct_degree_quadratic

        rnd = random.Random(51)
        records = []
        for i in range(60):
            card = f"c{rnd.randint(0, 9)}"
            veh = f"v{rnd.randint(0, 2)}"
            start = rnd.uniform(0, 1000)
            records.append(trip(card, veh, start, start + rnd.uniform(1, 300)))
        got = encounters(records)
        oracle = direct_degree_quadratic(
            [(r.card_id, r.vehicle_id, r.board_time, r.alight_time) for r in records]
        )
        for card in {r.card_id for r in records}:
            assert got[card] == oracle.get(card, 0)


def test_mobility_table_is_sorted_and_complete():
    records = [
        trip("z", "v", 0, 10),
        trip("a", "v", 5, 20),
        trip("a", "v", 30, 40),
    ]
    mobility = mobility_table(table(records), k=2, model=PLANAR)
    assert list(mobility.cards) == ["a", "z"]
    assert mobility.k == 2
    assert [c.dtype for c in (mobility.rg, mobility.rgk, mobility.encounters)] == [np.float64, np.float64, np.int64]
    assert mobility.rg.shape == mobility.rgk.shape == mobility.encounters.shape == (2,)
