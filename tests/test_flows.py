from __future__ import annotations

import json
import random

import numpy as np
import pytest

from transitepi.classify import GROUP_NAMES, MobilityGroup
from transitepi.flows import (
    DataIntegrityError,
    GroupMatrix,
    chord_export,
    chord_import,
    difference_matrix,
    group_flow_matrix,
    per_group_summary,
)
from oracles import InfectionEvent
from transitepi.sim import SimOutcome


def outcome(events, run=0):
    """One run's events as a columnar outcome over its own card vocabulary."""
    cards = sorted({c for e in events for c in (e.infector, e.infectee)})
    code = {c: i for i, c in enumerate(cards)}
    return SimOutcome(
        cards,
        ["v"],
        np.array([code[e.infector] for e in events], np.int32),
        np.array([code[e.infectee] for e in events], np.int32),
        np.zeros(len(events), np.int32),
        np.array([e.time for e in events], np.float64),
        np.array([e.kind == "direct" for e in events], bool),
        (), run, cards, 0.0, 0.0, 1.0,
    )


def event(infector, infectee, t=100.0):
    return InfectionEvent(infector=infector, infectee=infectee, time=t, vehicle_id="v", kind="direct")


def assign(card_groups):
    return {card: MobilityGroup.from_name(name) for card, name in card_groups.items()}


class TestPerGroupSummary:
    def test_average_is_total_over_population(self):
        assignments = assign({f"c{i}": "exp_high_long" for i in range(4)} | {"x": "ret_low_short"})
        events = [event("c0", "x"), event("c1", "x")]
        summary = per_group_summary([outcome(events)], assignments, {})
        stats = summary.per_group["exp_high_long"]
        assert stats.total_transmitted == 2
        assert stats.avg_transmissions_per_individual == 0.5
        assert summary.per_group["ret_low_short"].avg_receptions_per_individual == 2.0

    def test_totals_match_independent_scan(self):
        rnd = random.Random(0)
        cards = [f"c{i}" for i in range(40)]
        assignments = assign({c: GROUP_NAMES[rnd.randrange(8)] for c in cards})
        events = [event(rnd.choice(cards), rnd.choice(cards)) for _ in range(200)]
        encounters = {c: rnd.randint(0, 50) for c in cards}
        summary = per_group_summary([outcome(events)], assignments, encounters)
        for name in GROUP_NAMES:
            sent = sum(1 for e in events if assignments[e.infector].name == name)
            got = sum(1 for e in events if assignments[e.infectee].name == name)
            enc = sum(encounters[c] for c in cards if assignments[c].name == name)
            assert summary.per_group[name].total_transmitted == sent
            assert summary.per_group[name].total_received == got
            assert summary.per_group[name].total_encounters == enc

    def test_ensemble_averages_totals(self):
        assignments = assign({"a": "exp_high_long", "b": "ret_low_short"})
        runs = [outcome([event("a", "b")]), outcome([event("a", "b"), event("a", "b")])]
        summary = per_group_summary(runs, assignments, {})
        assert summary.per_group["exp_high_long"].total_transmitted == pytest.approx(1.5)

    def test_unclassified_passenger_is_an_error(self):
        assignments = assign({"a": "exp_high_long"})
        with pytest.raises(DataIntegrityError):
            per_group_summary([outcome([event("a", "mystery")])], assignments, {})


class TestFlowMatrix:
    def test_basic_entry(self):
        assignments = assign(
            {f"g1_{i}": "exp_high_long" for i in range(4)} | {"t": "ret_low_short"}
        )
        events = [event("g1_0", "t"), event("g1_1", "t")]
        matrix = group_flow_matrix([outcome(events)], assignments)
        assert matrix.entry("exp_high_long", "ret_low_short") == 0.5

    def test_no_events_zero_matrix(self):
        assignments = assign({"a": "exp_high_long", "b": "ret_low_short"})
        matrix = group_flow_matrix([outcome([])], assignments)
        assert not matrix.values.any()

    def test_matches_independent_tally(self):
        rnd = random.Random(1)
        cards = [f"c{i}" for i in range(60)]
        assignments = assign({c: GROUP_NAMES[rnd.randrange(8)] for c in cards})
        events = [event(rnd.choice(cards), rnd.choice(cards)) for _ in range(500)]
        matrix = group_flow_matrix([outcome(events)], assignments)
        sizes = {name: sum(1 for g in assignments.values() if g.name == name) for name in GROUP_NAMES}
        for i, gi in enumerate(GROUP_NAMES):
            for j, gj in enumerate(GROUP_NAMES):
                count = sum(
                    1
                    for e in events
                    if assignments[e.infector].name == gi and assignments[e.infectee].name == gj
                )
                want = count / sizes[gi] if sizes[gi] else 0.0
                assert matrix.values[i, j] == pytest.approx(want, abs=1e-12)

    def test_row_and_column_identities(self):
        rnd = random.Random(2)
        cards = [f"c{i}" for i in range(50)]
        assignments = assign({c: GROUP_NAMES[rnd.randrange(8)] for c in cards})
        runs = [
            outcome([event(rnd.choice(cards), rnd.choice(cards)) for _ in range(rnd.randint(50, 120))], run=r)
            for r in range(4)
        ]
        sizes = {name: sum(1 for g in assignments.values() if g.name == name) for name in GROUP_NAMES}
        matrix = group_flow_matrix(runs, assignments)
        summary = per_group_summary(runs, assignments, {})
        for i, name in enumerate(GROUP_NAMES):
            assert matrix.values[i].sum() == pytest.approx(
                summary.per_group[name].avg_transmissions_per_individual, abs=1e-9
            )
        for j, name in enumerate(GROUP_NAMES):
            if sizes[name] == 0:
                continue
            weighted = sum(
                matrix.values[i, j] * sizes[gi] for i, gi in enumerate(GROUP_NAMES)
            )
            assert weighted / sizes[name] == pytest.approx(
                summary.per_group[name].avg_receptions_per_individual, abs=1e-9
            )

    def test_total_mass_identity(self):
        rnd = random.Random(3)
        cards = [f"c{i}" for i in range(30)]
        assignments = assign({c: GROUP_NAMES[rnd.randrange(8)] for c in cards})
        events = [event(rnd.choice(cards), rnd.choice(cards)) for _ in range(321)]
        sizes = {name: sum(1 for g in assignments.values() if g.name == name) for name in GROUP_NAMES}
        matrix = group_flow_matrix([outcome(events)], assignments)
        total = sum(
            matrix.values[i, j] * sizes[gi]
            for i, gi in enumerate(GROUP_NAMES)
            for j in range(8)
        )
        assert total == pytest.approx(len(events), abs=1e-9)

    def test_empty_group_row_is_zero_with_warning(self, caplog):
        assignments = assign({"a": "exp_high_long", "b": "ret_low_short"})
        with caplog.at_level("WARNING"):
            matrix = group_flow_matrix([outcome([event("a", "b")])], assignments)
        assert "empty" in caplog.text
        assert matrix.entry("exp_low_long", "ret_low_short") == 0.0


class TestDifferenceMatrix:
    def test_equal_matrices_give_zero(self):
        m = GroupMatrix(values=np.full((8, 8), 0.25))
        assert not difference_matrix(m, m).values.any()

    def test_gain_is_positive(self):
        a = GroupMatrix(values=np.full((8, 8), 0.5))
        b = GroupMatrix(values=np.full((8, 8), 0.57))
        diff = difference_matrix(a, b)
        assert diff.values[0, 0] == pytest.approx(0.07)

    def test_antisymmetry(self):
        rng = np.random.default_rng(4)
        a = GroupMatrix(values=rng.random((8, 8)))
        b = GroupMatrix(values=rng.random((8, 8)))
        assert np.array_equal(difference_matrix(a, b).values, -difference_matrix(b, a).values)

    def test_group_order_mismatch_rejected(self):
        a = GroupMatrix(values=np.zeros((8, 8)))
        b = GroupMatrix(values=np.zeros((8, 8)), groups=tuple(reversed(GROUP_NAMES)))
        with pytest.raises(ValueError):
            difference_matrix(a, b)


class TestChordExport:
    def test_scaling_rule(self):
        values = np.zeros((8, 8))
        values[0, 1] = 0.5
        payload = chord_export(GroupMatrix(values=values))
        flows = {(f["source"], f["target"]): f["value"] for f in payload["flows"]}
        assert flows[("exp_high_long", "exp_high_short")] == 500

    def test_zero_matrix(self):
        payload = chord_export(GroupMatrix(values=np.zeros((8, 8))))
        assert all(f["value"] == 0 for f in payload["flows"])
        assert len(payload["flows"]) == 64

    def test_round_trip_within_rounding(self, tmp_path):
        rng = np.random.default_rng(5)
        matrix = GroupMatrix(values=rng.random((8, 8)) * 2)
        path = tmp_path / "chord.json"
        chord_export(matrix, path=path)
        payload = json.loads(path.read_text())
        back = chord_import(payload)
        assert np.max(np.abs(back.values - matrix.values)) <= 0.0005

    def test_negative_matrix_rejected(self):
        with pytest.raises(ValueError):
            chord_export(GroupMatrix(values=np.full((8, 8), -0.1)))

    def test_groups_carry_colors(self):
        payload = chord_export(GroupMatrix(values=np.zeros((8, 8))))
        assert [g["name"] for g in payload["groups"]] == list(GROUP_NAMES)
        assert all(g["color"].startswith("#") for g in payload["groups"])

    def test_custom_scale_round_trips(self):
        rng = np.random.default_rng(7)
        matrix = GroupMatrix(values=rng.random((8, 8)))
        payload = chord_export(matrix, scale=10_000.0)
        back = chord_import(payload)
        assert np.max(np.abs(back.values - matrix.values)) <= 0.00005


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    matrix = GroupMatrix(values=rng.random((8, 8)))
    path = tmp_path / "m.csv"
    matrix.to_csv(path)
    back = GroupMatrix.from_csv(path)
    assert back.groups == matrix.groups
    assert np.max(np.abs(back.values - matrix.values)) < 1e-9
