from __future__ import annotations

import json
import random

import numpy as np
import pytest

from transitepi.classify import GROUP_NAMES, Assignments
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
    """{card: group name} as an assignment column."""
    return Assignments(list(card_groups), np.array([GROUP_NAMES.index(g) for g in card_groups.values()], np.int8))


def summarize(outcomes, assignments, encounters):
    """per_group_summary with the encounters given as {card: count}."""
    return per_group_summary(outcomes, assignments, list(encounters), np.array(list(encounters.values()), np.int64))


def at(name):
    return GROUP_NAMES.index(name)


class TestPerGroupSummary:
    def test_average_is_total_over_population(self):
        assignments = assign({f"c{i}": "exp_high_long" for i in range(4)} | {"x": "ret_low_short"})
        events = [event("c0", "x"), event("c1", "x")]
        summary = summarize([outcome(events)], assignments, {})
        assert summary.transmitted[at("exp_high_long")] == 2
        assert summary.per_individual(summary.transmitted)[at("exp_high_long")] == 0.5
        assert summary.per_individual(summary.received)[at("ret_low_short")] == 2.0

    def test_totals_match_independent_scan(self):
        rnd = random.Random(0)
        cards = [f"c{i}" for i in range(40)]
        groups = {c: GROUP_NAMES[rnd.randrange(8)] for c in cards}
        events = [event(rnd.choice(cards), rnd.choice(cards)) for _ in range(200)]
        encounters = {c: rnd.randint(0, 50) for c in cards}
        summary = summarize([outcome(events)], assign(groups), encounters)
        for i, name in enumerate(GROUP_NAMES):
            sent = sum(1 for e in events if groups[e.infector] == name)
            got = sum(1 for e in events if groups[e.infectee] == name)
            enc = sum(encounters[c] for c in cards if groups[c] == name)
            assert summary.transmitted[i] == sent
            assert summary.received[i] == got
            assert summary.encounters[i] == enc

    def test_encounters_join_by_card_id(self):
        # the encounter vocabulary is in another order than the assignments,
        # holds an unclassified card and misses a classified one
        assignments = assign({"a": "exp_high_long", "b": "ret_low_short", "c": "ret_low_short"})
        summary = summarize([outcome([])], assignments, {"zz": 100, "c": 7, "a": 3})
        assert summary.encounters.tolist() == [3, 0, 0, 0, 0, 0, 0, 7]
        assert summary.population.tolist() == [1, 0, 0, 0, 0, 0, 0, 2]

    def test_ensemble_averages_totals(self):
        assignments = assign({"a": "exp_high_long", "b": "ret_low_short"})
        runs = [outcome([event("a", "b")]), outcome([event("a", "b"), event("a", "b")])]
        summary = summarize(runs, assignments, {})
        assert summary.transmitted[at("exp_high_long")] == pytest.approx(1.5)

    def test_unclassified_passenger_is_an_error(self):
        assignments = assign({"a": "exp_high_long"})
        with pytest.raises(DataIntegrityError):
            summarize([outcome([event("a", "mystery")])], assignments, {})

    def test_csv_columns(self, tmp_path):
        assignments = assign({"a": "exp_high_long", "b": "exp_high_long", "c": "ret_low_short"})
        runs = [outcome([event("a", "c")]), outcome([event("a", "c"), event("b", "c")])]
        summarize(runs, assignments, {"a": 4, "b": 1, "c": 2}).to_csv(tmp_path / "s.csv")
        rows = {r[0]: r[1:] for r in (line.split(",") for line in (tmp_path / "s.csv").read_text().splitlines())}
        assert rows["group"] == ["population", "total_encounters", "total_transmitted", "total_received",
                                 "avg_encounters_per_individual", "avg_transmissions_per_individual",
                                 "avg_receptions_per_individual"]
        assert rows["exp_high_long"] == ["2", "5.000000000", "1.500000000", "0.000000000",
                                         "2.500000000", "0.750000000", "0.000000000"]
        assert rows["ret_low_short"] == ["1", "2.000000000", "0.000000000", "1.500000000",
                                         "2.000000000", "0.000000000", "1.500000000"]
        assert rows["exp_low_long"] == ["0"] + ["0.000000000"] * 6
        assert list(rows)[1:] == list(GROUP_NAMES)


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
        groups = {c: GROUP_NAMES[rnd.randrange(8)] for c in cards}
        events = [event(rnd.choice(cards), rnd.choice(cards)) for _ in range(500)]
        matrix = group_flow_matrix([outcome(events)], assign(groups))
        sizes = {name: sum(1 for g in groups.values() if g == name) for name in GROUP_NAMES}
        for i, gi in enumerate(GROUP_NAMES):
            for j, gj in enumerate(GROUP_NAMES):
                count = sum(
                    1
                    for e in events
                    if groups[e.infector] == gi and groups[e.infectee] == gj
                )
                want = count / sizes[gi] if sizes[gi] else 0.0
                assert matrix.values[i, j] == pytest.approx(want, abs=1e-12)

    def test_row_and_column_identities(self):
        rnd = random.Random(2)
        cards = [f"c{i}" for i in range(50)]
        groups = {c: GROUP_NAMES[rnd.randrange(8)] for c in cards}
        runs = [
            outcome([event(rnd.choice(cards), rnd.choice(cards)) for _ in range(rnd.randint(50, 120))], run=r)
            for r in range(4)
        ]
        sizes = {name: sum(1 for g in groups.values() if g == name) for name in GROUP_NAMES}
        matrix = group_flow_matrix(runs, assign(groups))
        summary = summarize(runs, assign(groups), {})
        for i, name in enumerate(GROUP_NAMES):
            assert matrix.values[i].sum() == pytest.approx(
                summary.per_individual(summary.transmitted)[i], abs=1e-9
            )
        for j, name in enumerate(GROUP_NAMES):
            if sizes[name] == 0:
                continue
            weighted = sum(
                matrix.values[i, j] * sizes[gi] for i, gi in enumerate(GROUP_NAMES)
            )
            assert weighted / sizes[name] == pytest.approx(
                summary.per_individual(summary.received)[j], abs=1e-9
            )

    def test_total_mass_identity(self):
        rnd = random.Random(3)
        cards = [f"c{i}" for i in range(30)]
        groups = {c: GROUP_NAMES[rnd.randrange(8)] for c in cards}
        events = [event(rnd.choice(cards), rnd.choice(cards)) for _ in range(321)]
        sizes = {name: sum(1 for g in groups.values() if g == name) for name in GROUP_NAMES}
        matrix = group_flow_matrix([outcome(events)], assign(groups))
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

    def test_export_records_its_scale(self):
        assert chord_export(GroupMatrix(values=np.zeros((8, 8))))["scale"] == 1000.0

    def test_import_honours_a_recorded_scale(self):
        rng = np.random.default_rng(7)
        matrix = GroupMatrix(values=rng.random((8, 8)))
        payload = chord_export(matrix)
        payload["scale"] = 10_000.0
        for f in payload["flows"]:
            f["value"] = int(round(matrix.entry(f["source"], f["target"]) * 10_000.0))
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
