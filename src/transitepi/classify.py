"""Eight-way mobility classification.

Three binary axes are combined per passenger:

  * exploration: returner when the k-radius of gyration exceeds half the
    total radius of gyration, explorer otherwise (applied on raw values;
    the criterion is scale-invariant so no normalization is involved);
  * distance travelled: exact two-means split of the min-max normalized
    total radius of gyration;
  * connectivity: exact two-means split of the min-max normalized
    direct-encounter count.

The two-means split is solved exactly by scanning all contiguous splits of
the sorted values, so the result is deterministic and globally optimal.

A classification is a column: one int8 code per card into `GROUP_NAMES`.
The names are sorted, so a card's code is 4*returner + 2*low + short.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, NamedTuple, Sequence, Tuple

import numpy as np

from .mobility import MobilityTable

# exploration_connectivity_distance, sorted
GROUP_NAMES: Tuple[str, ...] = tuple(
    f"{e}_{c}_{d}" for e in ("exp", "ret") for c in ("high", "low") for d in ("long", "short")
)


class DegenerateClusteringError(ValueError):
    """All values on a clustering axis are identical; no split exists."""


class Assignments(NamedTuple):
    """Each card's group: `group[i]` is the int8 code of `cards[i]` into GROUP_NAMES."""

    cards: Sequence[str]
    group: np.ndarray


@dataclass
class ClassificationResult:
    assignments: Assignments
    centroids: Dict[str, Tuple[float, float]]  # axis -> (low, high) on the normalized scale

    @property
    def shares(self) -> Dict[str, float]:
        """Group name -> fraction of the population."""
        sizes = group_sizes(self.assignments)
        return dict(zip(GROUP_NAMES, (sizes / sizes.sum()).tolist()))

    def to_summary_json(self) -> str:
        return json.dumps(
            {
                "population": len(self.assignments.cards),
                "centroids": {axis: list(c) for axis, c in sorted(self.centroids.items())},
                "shares": self.shares,
                "sizes": dict(zip(GROUP_NAMES, group_sizes(self.assignments).tolist())),
            },
            sort_keys=True,
            indent=2,
        )


def is_returner(rg, rgk) -> np.ndarray:
    """Returner mask: recurrent mobility dominates total mobility.

    A passenger with zero total radius (single location) is a returner by
    convention: their recurrent mobility trivially equals their total
    mobility.
    """
    rg = np.asarray(rg, np.float64)
    rgk = np.asarray(rgk, np.float64)
    negative = (rg < 0) | (rgk < 0)
    if negative.any():
        i = np.flatnonzero(negative)[0]
        raise ValueError(f"radii must be non-negative, got rg={rg.flat[i]}, rgk={rgk.flat[i]}")
    return (rg == 0.0) | (rgk > rg / 2.0)


def kmeans_1d(values: Sequence[float]) -> Tuple[np.ndarray, Tuple[float, float]]:
    """Globally optimal 1-D two-means clustering.

    Scans every contiguous split of the sorted values and picks the one with
    the smallest within-cluster sum of squares (leftmost split on a tie).
    Returns labels aligned with the input order (0 = cluster with the smaller
    centroid, 1 = larger) and the pair of centroids.
    """
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n < 2 or np.unique(arr).size < 2:
        raise DegenerateClusteringError(
            "two-means needs at least two distinct values"
        )
    order = np.argsort(arr, kind="stable")
    s = arr[order]
    prefix = np.concatenate(([0.0], np.cumsum(s)))
    prefix_sq = np.concatenate(([0.0], np.cumsum(s * s)))
    sizes_left = np.arange(1, n, dtype=float)
    sizes_right = n - sizes_left
    sum_left = prefix[1:n]
    sum_right = prefix[n] - sum_left
    sq_left = prefix_sq[1:n]
    sq_right = prefix_sq[n] - sq_left
    cost = (sq_left - sum_left * sum_left / sizes_left) + (
        sq_right - sum_right * sum_right / sizes_right
    )
    split = int(np.argmin(cost)) + 1  # size of the left cluster; argmin is leftmost
    c_low = sum_left[split - 1] / split
    c_high = sum_right[split - 1] / (n - split)
    labels = np.empty(n, dtype=np.int8)
    labels[order[:split]] = 0
    labels[order[split:]] = 1
    return labels, (float(c_low), float(c_high))


def _min_max_normalize(values: np.ndarray) -> np.ndarray:
    lo = values.min()
    hi = values.max()
    if hi == lo:
        raise DegenerateClusteringError("axis has a single distinct value")
    return (values - lo) / (hi - lo)


def classify_population(table: MobilityTable) -> ClassificationResult:
    """The group of every card in `table`, as a column over its cards.

    The distance and connectivity axes are min-max normalized to [0, 1]
    before the two-means split; exploration uses the raw rule.
    """
    if len(table.cards) < 2:
        raise DegenerateClusteringError("need at least two passengers to classify")
    returner = is_returner(table.rg, table.rgk)
    long_, dist_centroids = kmeans_1d(_min_max_normalize(table.rg))
    high, conn_centroids = kmeans_1d(_min_max_normalize(table.encounters.astype(np.float64)))
    group = (4 * returner + 2 * (1 - high) + (1 - long_)).astype(np.int8)
    return ClassificationResult(
        assignments=Assignments(table.cards, group),
        centroids={"distance": dist_centroids, "connectivity": conn_centroids},
    )


def group_shares(result: ClassificationResult) -> Dict[str, float]:
    """Group percentages rounded to one decimal, summing to 100.0.

    Uses largest-remainder apportionment at 0.1-point granularity so the
    rounded values always reconcile.
    """
    if not len(result.assignments.cards):
        raise ValueError("no assignments to summarize")
    sizes = group_sizes(result.assignments).tolist()
    population = len(result.assignments.cards)
    exact_tenths = [1000.0 * size / population for size in sizes]
    floors = [int(t) for t in exact_tenths]
    remainder = 1000 - sum(floors)
    by_fraction = sorted(range(len(GROUP_NAMES)), key=lambda g: (-(exact_tenths[g] - floors[g]), g))
    for g in by_fraction[:remainder]:
        floors[g] += 1
    return {name: floor / 10.0 for name, floor in zip(GROUP_NAMES, floors)}


def group_sizes(assignments: Assignments) -> np.ndarray:
    """Members per group in GROUP_NAMES order, empty groups as 0."""
    return np.bincount(assignments.group, minlength=len(GROUP_NAMES))


ASSIGNMENTS_CSV_HEADER = ["card_id", "group"]


def write_assignments_csv(result: ClassificationResult, path) -> None:
    """One row per card, sorted by card id."""
    import csv

    cards, group = result.assignments
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ASSIGNMENTS_CSV_HEADER)
        for i in sorted(range(len(cards)), key=cards.__getitem__):
            writer.writerow([cards[i], GROUP_NAMES[group[i]]])


def read_assignments_csv(path) -> Assignments:
    """The cards of an assignments file, in file order, and their group codes.

    Any malformed line raises ValueError naming `file:line`.
    """
    import csv

    code = {name: g for g, name in enumerate(GROUP_NAMES)}
    out: Dict[str, int] = {}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ASSIGNMENTS_CSV_HEADER:
            raise ValueError(f"{path}:1: expected header {','.join(ASSIGNMENTS_CSV_HEADER)}, got {header!r}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != len(ASSIGNMENTS_CSV_HEADER):
                raise ValueError(f"{where}: expected {len(ASSIGNMENTS_CSV_HEADER)} fields, got {len(row)}")
            card_id, name = row
            if card_id in out:
                raise ValueError(f"{where}: card {card_id!r} is listed twice")
            if name not in code:
                raise ValueError(f"{where}: not a mobility group name: {name!r}")
            out[card_id] = code[name]
    return Assignments(list(out), np.array(list(out.values()), np.int8))
