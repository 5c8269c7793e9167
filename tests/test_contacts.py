from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import table, trip
from oracles import (
    component_sizes_bfs,
    direct_degree_quadratic,
    direct_encounter_counts,
    exposures_quadratic,
    log_events,
)
from transitepi.contacts import (
    DIRECT,
    INDIRECT,
    ExposureLog,
    build_exposure_log,
    connected_components,
    degree_distribution,
    encounter_counts,
)

T0 = 36_000.0  # 10:00


def minutes(m: float) -> float:
    return 60.0 * m


def events_of(records, d_t: float, source: str):
    """The log's events whose source is `source`, in canonical order."""
    return [e for e in log_events(build_exposure_log(table(records), d_t)) if e.source == source]


class TestExtractExposures:
    def test_overlap_is_direct_with_clipped_window(self):
        records = [trip("A", "v", T0, T0 + minutes(20)), trip("B", "v", T0 + minutes(10), T0 + minutes(30))]
        events = events_of(records, 0.0, "A")
        assert len(events) == 1
        e = events[0]
        assert (e.source, e.target, e.kind) == ("A", "B", DIRECT)
        assert e.exposure_start == T0 + minutes(10)
        assert e.exposure_end == T0 + minutes(20)

    def test_later_boarder_within_suspension_is_indirect(self):
        records = [trip("A", "v", T0, T0 + minutes(10)), trip("B", "v", T0 + minutes(15), T0 + minutes(25))]
        events = events_of(records, minutes(15), "A")
        assert len(events) == 1
        e = events[0]
        assert (e.source, e.target, e.kind) == ("A", "B", INDIRECT)
        assert e.exposure_start == T0 + minutes(15)
        assert e.exposure_end == T0 + minutes(25)

    def test_disjoint_without_suspension_no_event(self):
        records = [trip("A", "v", T0, T0 + minutes(10)), trip("B", "v", T0 + minutes(15), T0 + minutes(25))]
        assert events_of(records, 0.0, "A") == []

    def test_no_self_exposure(self):
        records = [trip("A", "v", 0, 100), trip("A", "v", 50, 150)]
        assert events_of(records, 0.0, "A") == []

    def test_negative_suspension_rejected(self):
        with pytest.raises(ValueError):
            build_exposure_log(table([trip("A", "v", 0, 1)]), -1.0)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            build_exposure_log(table([trip("A", "v", 10.0, 10.0)]), 0.0)


def random_records(seed: int, n: int = 80, cards: int = 12, vehicles: int = 4):
    rnd = random.Random(seed)
    records = []
    for _ in range(n):
        start = rnd.uniform(0, 2000)
        records.append(
            trip(
                f"c{rnd.randint(0, cards - 1)}",
                f"v{rnd.randint(0, vehicles - 1)}",
                start,
                start + rnd.uniform(1, 400),
            )
        )
    return records


def tied_records(seed: int, n: int = 40, cards: int = 6, vehicles: int = 2):
    """Integer times in a narrow range: equal boardings, touching exits and
    exit + d_t == enter all occur."""
    rnd = random.Random(seed)
    records = []
    for _ in range(n):
        start = rnd.randint(0, 30)
        records.append(
            trip(
                f"c{rnd.randint(0, cards - 1)}",
                f"v{rnd.randint(0, vehicles - 1)}",
                float(start),
                float(start + rnd.randint(1, 6)),
            )
        )
    return records


LOG_COLUMNS = ("src", "tgt", "veh", "start", "end", "src_enter", "src_exit", "direct")


def log_column(log: ExposureLog, name: str) -> np.ndarray:
    """A derived column of the log; `src_enter`, which only tests read, through the trip table."""
    return log.trips.board[log.src_ride] if name == "src_enter" else getattr(log, name)


def log_event_multiset(log: ExposureLog):
    return Counter(
        (e.source, e.target, e.vehicle_id, e.exposure_start, e.exposure_end, e.kind,
         e.source_enter, e.source_exit)
        for e in log_events(log)
    )


class TestExposureLog:
    @pytest.mark.parametrize("d_t", [0.0, 30.0, 250.0])
    def test_matches_quadratic_oracle(self, d_t):
        for seed in range(5):
            records = random_records(seed)
            log = build_exposure_log(table(records), d_t)
            got = log_event_multiset(log)
            want = Counter(
                exposures_quadratic(
                    [(r.card_id, r.vehicle_id, r.board_time, r.alight_time) for r in records], d_t
                )
            )
            assert got == want

    def test_monotone_in_suspension_time(self):
        for seed in range(5):
            records = random_records(seed)
            previous = None
            for d_t in (0.0, 60.0, 180.0, 500.0):
                log = build_exposure_log(table(records), d_t)
                # identity of an exposure: pair, vehicle and the source trip
                ids = {
                    (e.source, e.target, e.vehicle_id, e.source_enter, e.source_exit)
                    for e in log_events(log)
                }
                if previous is not None:
                    assert previous <= ids
                previous = ids

    def test_zero_suspension_all_direct_and_symmetric(self):
        for seed in range(5):
            records = random_records(seed)
            log = build_exposure_log(table(records), 0.0)
            events = list(log_events(log))
            assert all(e.kind == DIRECT for e in events)
            windows = {(e.source, e.target, e.exposure_start, e.exposure_end) for e in events}
            assert windows == {(t, s, a, b) for s, t, a, b in windows}

    def test_no_event_spans_vehicles(self):
        records = random_records(3)
        log = build_exposure_log(table(records), 120.0)
        by_vehicle = {r.vehicle_id for r in records}
        for e in log_events(log):
            assert e.vehicle_id in by_vehicle

    def test_canonical_order(self):
        records = random_records(4)
        log = build_exposure_log(table(records), 60.0)
        keys = [
            (e.exposure_start, e.source, e.target, e.exposure_end, e.vehicle_id)
            for e in log_events(log)
        ]
        assert keys == sorted(keys)

    def test_touching_boundary_is_direct(self):
        records = [trip("A", "v", 0, 100), trip("B", "v", 100, 200)]
        log = build_exposure_log(table(records), 0.0)
        events = list(log_events(log))
        assert {e.kind for e in events} == {DIRECT}
        assert all(e.exposure_start == e.exposure_end == 100.0 for e in events)

    def test_empty_log(self):
        log = build_exposure_log(table([]), 0.0)
        assert len(log) == 0
        assert list(log_events(log)) == []

    @pytest.mark.parametrize("d_t", [0.0, 3.0, 5.0])
    def test_tied_times_match_oracle_whatever_the_row_order(self, d_t):
        for seed in range(100):
            records = tied_records(seed)
            log = build_exposure_log(table(records), d_t)
            want = Counter(
                exposures_quadratic(
                    [(r.card_id, r.vehicle_id, r.board_time, r.alight_time) for r in records], d_t
                )
            )
            assert log_event_multiset(log) == want
            random.Random(seed).shuffle(records)
            shuffled = build_exposure_log(table(records), d_t)
            for column in LOG_COLUMNS:
                assert np.array_equal(log_column(shuffled, column), log_column(log, column)), column

    def test_stored_grouped_by_source(self):
        # run_sir slices each source's exposures by searchsorted on log.src and
        # ranks them by a stable sort on start: (start, source, target, vehicle, kind)
        for records in (random_records(4), tied_records(4)):
            log = build_exposure_log(table(records), 60.0)
            keys = list(zip(log.src.tolist(), log.start.tolist(), log.tgt.tolist(), log.veh.tolist(),
                            log.direct.tolist()))
            assert keys == sorted(keys)


class TestWithin:
    """A log narrowed to a shorter suspension time is the log built at it."""

    @given(
        rides=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 1), st.integers(0, 15), st.integers(1, 6)),
            max_size=40,
        ),
        widths=st.lists(st.sampled_from([0.0, 1.0, 3.0, 5.0, 8.0]), min_size=2, max_size=4, unique=True),
    )
    def test_narrowed_log_equals_the_build(self, rides, widths):
        trips = table([trip(f"c{c}", f"v{v}", float(a), float(a + d)) for c, v, a, d in rides])
        widths = sorted(widths, reverse=True)
        wide = build_exposure_log(trips, widths[0])
        assert wide.within(widths[0]) is wide
        for d_t in (widths[0] + 1, -1.0):
            with pytest.raises(ValueError):
                wide.within(d_t)
        chained = wide
        for d_t in widths[1:]:
            chained = chained.within(d_t)
            want = build_exposure_log(trips, d_t)
            for got in (wide.within(d_t), chained):
                assert (got.d_t, got.cards, got.vehicles) == (d_t, want.cards, want.vehicles)
                assert direct_encounter_counts(got) == direct_encounter_counts(want)
                for column in LOG_COLUMNS + ("src_ride", "tgt_ride"):
                    a, b = log_column(got, column), log_column(want, column)
                    assert a.dtype == b.dtype and np.array_equal(a, b), column


def presences(records):
    return [(r.card_id, r.vehicle_id, r.board_time, r.alight_time) for r in records]


def direct_edges(records):
    """The card pairs with overlapping rides, found by the quadratic oracle."""
    return {(e[0], e[1]) for e in exposures_quadratic(presences(records), 0.0) if e[5] == "direct"}


# integer times in a narrow range: touching rides, equal boardings and one
# card's overlapping rides on one vehicle all occur; each also has an example
RIDES = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 15), st.integers(1, 6)), max_size=40)
CASES = {
    "touching": [(0, 0, 0, 5), (1, 0, 5, 3), (2, 0, 8, 2)],
    "equal-boardings": [(0, 0, 2, 3), (1, 0, 2, 5), (2, 0, 2, 1), (0, 1, 2, 2)],
    "one-card-overlapping-itself": [(0, 0, 0, 6), (0, 0, 2, 3), (1, 0, 4, 4), (0, 0, 6, 1)],
    "one-ride-vehicles": [(0, 0, 0, 3), (1, 1, 0, 3), (2, 2, 5, 1)],
    "empty": [],
}


def with_cases(test):
    for rides in CASES.values():
        test = example(rides=rides)(test)
    return given(rides=RIDES)(test)


def ride_records(rides):
    return [trip(f"c{c}", f"v{v}", float(a), float(a + d)) for c, v, a, d in rides]


class TestContactStatistics:
    """The counts and the components from the rides equal the oracles' from all ride pairs."""

    @with_cases
    def test_encounter_counts_match_quadratic_oracle(self, rides):
        records = ride_records(rides)
        trips = table(records)
        got = encounter_counts(trips)
        assert got.dtype == np.int64 and got.shape == (len(trips.cards),)
        oracle = direct_degree_quadratic(presences(records))
        assert got.tolist() == [oracle.get(card, 0) for card in trips.cards]

    @with_cases
    def test_encounter_counts_are_a_logs_direct_sources(self, rides):
        trips = table(ride_records(rides))
        log = build_exposure_log(trips, minutes(60))
        assert np.array_equal(encounter_counts(trips), np.bincount(log.src[log.direct], minlength=len(trips.cards)))

    @with_cases
    def test_components_match_bfs_oracle(self, rides):
        records = ride_records(rides)
        trips = table(records)
        assert connected_components(trips) == component_sizes_bfs(trips.cards, direct_edges(records))

    def test_invalid_interval_rejected(self):
        for statistic in (encounter_counts, connected_components):
            with pytest.raises(ValueError):
                statistic(table([trip("A", "v", 10.0, 10.0)]))


class TestDegreeDistribution:
    def test_three_mutual_overlaps(self):
        records = [trip("A", "v", 0, 100), trip("B", "v", 10, 90), trip("C", "v", 20, 80)]
        assert degree_distribution(encounter_counts(table(records))) == {2: 3}

    def test_isolated_passenger_counts_zero(self):
        records = [trip("A", "v", 0, 100), trip("B", "v", 10, 90), trip("C", "w", 0, 50)]
        assert degree_distribution(encounter_counts(table(records))) == {1: 2, 0: 1}

    def test_matches_quadratic_oracle(self):
        records = random_records(7)
        cards = {r.card_id for r in records}
        got = degree_distribution(encounter_counts(table(records)))
        oracle = direct_degree_quadratic(presences(records))
        want: dict[int, int] = {}
        for card in cards:
            want[oracle.get(card, 0)] = want.get(oracle.get(card, 0), 0) + 1
        assert got == want


class TestConnectedComponents:
    def test_two_disjoint_pairs(self):
        records = [
            trip("A", "v1", 0, 10), trip("B", "v1", 5, 15),
            trip("C", "v2", 0, 10), trip("D", "v2", 5, 15),
        ]
        assert connected_components(table(records)) == [2, 2]

    def test_chain_is_transitive(self):
        records = [
            trip("A", "v1", 0, 10), trip("B", "v1", 5, 15),
            trip("B", "v2", 100, 110), trip("C", "v2", 105, 115),
        ]
        assert connected_components(table(records)) == [3]

    def test_matches_bfs_oracle(self):
        for seed in range(6):
            records = random_records(seed, n=50, cards=20)
            cards = {r.card_id for r in records}
            assert connected_components(table(records)) == component_sizes_bfs(cards, direct_edges(records))
