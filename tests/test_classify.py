from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from oracles import classify_reference, kmeans2_brute, kmeans2_welford, split_costs
from transitepi.classify import (
    GROUP_NAMES,
    Assignments,
    ClassificationResult,
    DegenerateClusteringError,
    classify_population,
    group_shares,
    group_sizes,
    is_returner,
    kmeans_1d,
    read_assignments_csv,
    write_assignments_csv,
)
from transitepi.mobility import MobilityTable


class TestExplorationRule:
    def test_recurrent_dominates(self):
        assert is_returner(1.0, 0.9)

    def test_recurrent_small(self):
        assert not is_returner(1.0, 0.2)

    def test_boundary_is_explorer(self):
        assert not is_returner(1.0, 0.5)

    def test_degenerate_zero_is_returner(self):
        assert is_returner(0.0, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            is_returner(-1.0, 0.5)
        with pytest.raises(ValueError):
            is_returner(1.0, -0.5)
        with pytest.raises(ValueError, match="rg=1.0, rgk=-0.5"):
            is_returner([2.0, 1.0], [1.5, -0.5])

    def test_scale_invariance(self):
        rnd = random.Random(7)
        rg, rgk = np.array([(rnd.uniform(0, 100), rnd.uniform(0, 100)) for _ in range(50)]).T
        base = is_returner(rg, rgk)
        for _ in range(100):
            c = rnd.uniform(1e-6, 1e6)
            assert np.array_equal(is_returner(c * rg, c * rgk), base)


class TestKmeans1d:
    def test_separated_blobs(self):
        labels, centroids = kmeans_1d([0, 0, 0, 1, 1, 1])
        assert labels.tolist() == [0, 0, 0, 1, 1, 1]
        assert centroids == (0.0, 1.0)

    def test_spec_four_point_split(self):
        labels, centroids = kmeans_1d([0.0, 0.1, 0.9, 1.0])
        assert labels.tolist() == [0, 0, 1, 1]
        assert centroids == pytest.approx((0.05, 0.95))

    def test_two_values(self):
        labels, centroids = kmeans_1d([5.0, -1.0])
        assert labels.tolist() == [1, 0]
        assert centroids == (-1.0, 5.0)

    def test_identical_values_degenerate(self):
        with pytest.raises(DegenerateClusteringError):
            kmeans_1d([2.0, 2.0, 2.0])

    def test_labels_ignore_input_order(self):
        values = [0.9, 0.0, 1.0, 0.1]
        labels, _ = kmeans_1d(values)
        assert labels.tolist() == [1, 0, 1, 0]

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (5, 2), (17, 3), (100, 4), (500, 5)])
    def test_matches_brute_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        values = rng.random(n).tolist()
        labels, centroids = kmeans_1d(values)
        want_labels, want_centroids = kmeans2_brute(values)
        assert labels.tolist() == want_labels
        assert centroids == pytest.approx(want_centroids, rel=1e-12)

    @pytest.mark.parametrize("n,seed", [(1000, 6), (10_000, 7)])
    def test_matches_welford_oracle_large(self, n, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=n).tolist()
        labels, _ = kmeans_1d(values)
        want_labels, _ = kmeans2_welford(values)
        assert labels.tolist() == want_labels

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=2, max_size=60))
    def test_cost_optimal_on_arbitrary_ints(self, values):
        values = [float(v) for v in values]
        if len(set(values)) < 2:
            return
        labels, _ = kmeans_1d(values)
        got_cost = _wcss(values, labels.tolist())
        want_labels, _ = kmeans2_brute(values)
        want_cost = _wcss(values, want_labels)
        assert got_cost <= want_cost + 1e-9 * max(1.0, abs(want_cost))

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        values = rng.random(200)
        base, _ = kmeans_1d(values.tolist())
        for a, b in [(2.0, 0.0), (0.25, 10.0), (1000.0, -3.5)]:
            moved, _ = kmeans_1d((a * values + b).tolist())
            assert moved.tolist() == base.tolist()


def _wcss(values, labels):
    total = 0.0
    for lab in (0, 1):
        members = [v for v, l in zip(values, labels) if l == lab]
        if not members:
            continue
        mean = sum(members) / len(members)
        total += sum((v - mean) ** 2 for v in members)
    return total


def make_table(rows, k=2):
    """A mobility table from (card, rg, rgk, encounters) rows."""
    cards, rg, rgk, encounters = zip(*rows)
    return MobilityTable(list(cards), k, np.array(rg, np.float64), np.array(rgk, np.float64),
                         np.array(encounters, np.int64))


def names_by_card(result):
    cards, group = result.assignments
    return {card: GROUP_NAMES[g] for card, g in zip(cards, group.tolist())}


class TestClassifyPopulation:
    def test_pure_returner_population(self):
        table = make_table([(f"c{i}", 1000.0 + i, 900.0 + i, 10 + i) for i in range(20)])
        result = classify_population(table)
        assert all(name.startswith("ret_") for name in names_by_card(result).values())

    def test_two_passenger_minimal_split(self):
        result = classify_population(make_table([("a", 100.0, 90.0, 5), ("b", 9000.0, 100.0, 50)]))
        groups = names_by_card(result)
        assert groups["a"].endswith("_short")
        assert groups["b"].endswith("_long")
        assert groups["a"].split("_")[1] == "low"
        assert groups["b"].split("_")[1] == "high"

    def test_partition_covers_population(self):
        rnd = random.Random(9)
        table = make_table([
            (f"c{i}", rnd.uniform(0, 2e4), rnd.uniform(0, 1e4), rnd.randint(0, 900))
            for i in range(300)
        ])
        result = classify_population(table)
        assert list(result.assignments.cards) == list(table.cards)
        assert result.assignments.group.dtype == np.int8
        assert ((0 <= result.assignments.group) & (result.assignments.group < len(GROUP_NAMES))).all()
        assert sum(result.shares.values()) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_axis_propagates(self):
        table = make_table([(f"c{i}", 1000.0, 100.0, i) for i in range(5)])
        with pytest.raises(DegenerateClusteringError):
            classify_population(table)

    def test_exploration_unaffected_by_axis_scaling(self):
        rnd = random.Random(10)
        table = make_table([
            (f"c{i}", rnd.uniform(10, 2e4), rnd.uniform(5, 1.5e4), rnd.randint(1, 500))
            for i in range(100)
        ])
        base = names_by_card(classify_population(table))
        scaled = MobilityTable(table.cards, table.k, table.rg * 3.7, table.rgk * 3.7, table.encounters)
        moved = names_by_card(classify_population(scaled))
        for card in base:
            # exploration is the first part of the name, distance the last; the
            # distance axis is scale-invariant too (min-max normalization)
            assert base[card].split("_")[0] == moved[card].split("_")[0]
            assert base[card].split("_")[2] == moved[card].split("_")[2]

    def test_code_is_returner_low_short_bits(self):
        for code, name in enumerate(GROUP_NAMES):
            exploration, connectivity, distance = name.split("_")
            assert code == 4 * (exploration == "ret") + 2 * (connectivity == "low") + (distance == "short")


def clear_split(values):
    """Whether the best two-means split of the min-max normalised values beats every other beyond rounding."""
    lo, hi = min(values), max(values)
    costs = sorted(split_costs([(v - lo) / (hi - lo) for v in values]))
    return len(costs) == 1 or costs[1] - costs[0] > 1e-9 * max(1.0, costs[0])


radius = st.floats(min_value=0.0, max_value=5e4, allow_nan=False)
profile = st.tuples(radius, st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0),
                    st.integers(min_value=0, max_value=2000))


class TestColumnarClassification:
    @given(st.lists(profile, min_size=2, max_size=40))
    def test_matches_per_card_reference(self, profiles):
        rows = [(f"c{i:02d}", rg, rg * f, e) for i, (rg, f, e) in enumerate(profiles)]
        table = make_table(rows)
        if len({r[1] for r in rows}) < 2 or len({r[3] for r in rows}) < 2:
            with pytest.raises(DegenerateClusteringError):
                classify_population(table)
            return
        assume(clear_split([r[1] for r in rows]) and clear_split([float(r[3]) for r in rows]))
        assert names_by_card(classify_population(table)) == classify_reference(rows)

    @given(st.lists(profile, min_size=2, max_size=40), st.randoms(use_true_random=False))
    def test_relabelling_cards_changes_no_group(self, profiles, rnd):
        rows = [(f"c{i:02d}", rg, rg * f, e) for i, (rg, f, e) in enumerate(profiles)]
        assume(len({r[1] for r in rows}) > 1 and len({r[3] for r in rows}) > 1)
        # new ids in a shuffled order, so that each card's dense code changes
        new_id = dict(zip((r[0] for r in rows), rnd.sample([f"x{i:03d}" for i in range(100)], len(rows))))
        moved_rows = sorted((new_id[card], *rest) for card, *rest in rows)
        base = classify_population(make_table(rows))
        moved = classify_population(make_table(moved_rows))
        assert moved.centroids == base.centroids
        moved_names = names_by_card(moved)
        assert {card: moved_names[new_id[card]] for card, *_ in rows} == names_by_card(base)


class TestGroupShares:
    def test_four_even_groups(self):
        codes = [GROUP_NAMES.index(n) for n in ("exp_high_long", "exp_low_short", "ret_high_long", "ret_low_short")]
        result = ClassificationResult(Assignments(["a", "b", "c", "d"], np.array(codes, np.int8)), centroids={})
        shares = group_shares(result)
        assert shares["exp_high_long"] == 25.0
        assert sum(shares.values()) == pytest.approx(100.0, abs=0.1)

    def test_shares_match_tally_oracle(self):
        rnd = random.Random(13)
        group = np.array([rnd.randrange(8) for _ in range(997)], np.int8)
        result = ClassificationResult(Assignments([f"c{i}" for i in range(997)], group), centroids={})
        shares = group_shares(result)
        tally = {name: 0 for name in GROUP_NAMES}
        for g in group.tolist():
            tally[GROUP_NAMES[g]] += 1
        assert sum(shares.values()) == pytest.approx(100.0, abs=0.1)
        for name in GROUP_NAMES:
            assert shares[name] == pytest.approx(100.0 * tally[name] / 997, abs=0.1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            group_shares(ClassificationResult(Assignments([], np.zeros(0, np.int8)), centroids={}))

    def test_sizes_count_every_group(self):
        sizes = group_sizes(Assignments(["a", "b", "c"], np.array([7, 0, 7], np.int8)))
        assert sizes.tolist() == [1, 0, 0, 0, 0, 0, 0, 2]


def test_assignments_csv_round_trip_sorted_by_card(tmp_path):
    result = ClassificationResult(Assignments(["b", "c", "a"], np.array([7, 0, 3], np.int8)), centroids={})
    write_assignments_csv(result, tmp_path / "a.csv")
    assert (tmp_path / "a.csv").read_text().splitlines() == [
        "card_id,group", "a,exp_low_short", "b,ret_low_short", "c,exp_high_long",
    ]
    cards, group = read_assignments_csv(tmp_path / "a.csv")
    assert cards == ["a", "b", "c"]
    assert group.dtype == np.int8 and group.tolist() == [3, 7, 0]


def test_group_names_fixed_and_sorted():
    assert GROUP_NAMES == tuple(sorted(GROUP_NAMES))
    assert len(GROUP_NAMES) == 8
    assert "exp_high_long" in GROUP_NAMES
    assert "exp_high_medium" not in GROUP_NAMES
