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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from .mobility import MobilityVector

EXPLORER = "exp"
RETURNER = "ret"
HIGH = "high"
LOW = "low"
LONG = "long"
SHORT = "short"


class DegenerateClusteringError(ValueError):
    """All values on a clustering axis are identical; no split exists."""


@dataclass(frozen=True, order=True)
class MobilityGroup:
    """One of the eight movement-behaviour groups."""

    exploration: str  # "exp" | "ret"
    connectivity: str  # "high" | "low"
    distance: str  # "long" | "short"

    @property
    def name(self) -> str:
        return f"{self.exploration}_{self.connectivity}_{self.distance}"

    @classmethod
    def from_name(cls, name: str) -> "MobilityGroup":
        exploration, connectivity, distance = name.split("_")
        if (exploration not in (EXPLORER, RETURNER)
                or connectivity not in (HIGH, LOW)
                or distance not in (LONG, SHORT)):
            raise ValueError(f"not a mobility group name: {name!r}")
        return cls(exploration, connectivity, distance)


ALL_GROUPS: Tuple[MobilityGroup, ...] = tuple(
    sorted(
        MobilityGroup(e, c, d)
        for e in (EXPLORER, RETURNER)
        for c in (HIGH, LOW)
        for d in (LONG, SHORT)
    )
)
GROUP_NAMES: Tuple[str, ...] = tuple(g.name for g in ALL_GROUPS)


@dataclass
class ClassificationResult:
    assignments: Dict[str, MobilityGroup]
    centroids: Dict[str, Tuple[float, float]]  # axis -> (low, high) on the normalized scale
    shares: Dict[str, float]  # group name -> fraction of population

    def to_summary_json(self) -> str:
        return json.dumps(
            {
                "population": len(self.assignments),
                "centroids": {axis: list(c) for axis, c in sorted(self.centroids.items())},
                "shares": {name: self.shares[name] for name in GROUP_NAMES},
                "sizes": group_sizes(self.assignments),
            },
            sort_keys=True,
            indent=2,
        )


def classify_exploration(rg: float, rgk: float) -> str:
    """Returner when recurrent mobility dominates total mobility.

    A passenger with zero total radius (single location) is a returner by
    convention: their recurrent mobility trivially equals their total
    mobility.
    """
    if rg < 0 or rgk < 0:
        raise ValueError(f"radii must be non-negative, got rg={rg}, rgk={rgk}")
    if rg == 0.0:
        return RETURNER
    return RETURNER if rgk > rg / 2.0 else EXPLORER


def kmeans_1d(values: Sequence[float], k: int = 2) -> Tuple[np.ndarray, Tuple[float, float]]:
    """Globally optimal 1-D two-means clustering.

    Scans every contiguous split of the sorted values and picks the one with
    the smallest within-cluster sum of squares (leftmost split on a tie).
    Returns labels aligned with the input order (0 = cluster with the smaller
    centroid, 1 = larger) and the pair of centroids.
    """
    if k != 2:
        raise ValueError(f"only k=2 is supported, got k={k}")
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


def classify_population(vectors: Sequence[MobilityVector]) -> ClassificationResult:
    """Assign a MobilityGroup to every passenger.

    The distance and connectivity axes are min-max normalized to [0, 1]
    before the two-means split; exploration uses the raw rule.
    """
    if len(vectors) < 2:
        raise DegenerateClusteringError("need at least two passengers to classify")
    rg = np.array([v.rg for v in vectors], dtype=float)
    enc = np.array([v.encounters for v in vectors], dtype=float)
    dist_labels, dist_centroids = kmeans_1d(_min_max_normalize(rg))
    conn_labels, conn_centroids = kmeans_1d(_min_max_normalize(enc))

    assignments: Dict[str, MobilityGroup] = {}
    for i, v in enumerate(vectors):
        exploration = classify_exploration(v.rg, v.rgk)
        connectivity = HIGH if conn_labels[i] == 1 else LOW
        distance = LONG if dist_labels[i] == 1 else SHORT
        assignments[v.card_id] = MobilityGroup(exploration, connectivity, distance)

    population = len(assignments)
    shares = {name: count / population for name, count in group_sizes(assignments).items()}
    return ClassificationResult(
        assignments=assignments,
        centroids={"distance": dist_centroids, "connectivity": conn_centroids},
        shares=shares,
    )


def group_shares(result: ClassificationResult) -> Dict[str, float]:
    """Group percentages rounded to one decimal, summing to 100.0.

    Uses largest-remainder apportionment at 0.1-point granularity so the
    rounded values always reconcile.
    """
    if not result.assignments:
        raise ValueError("no assignments to summarize")
    sizes = group_sizes(result.assignments)
    population = len(result.assignments)
    exact_tenths = {name: 1000.0 * sizes[name] / population for name in GROUP_NAMES}
    floors = {name: int(exact_tenths[name]) for name in GROUP_NAMES}
    remainder = 1000 - sum(floors.values())
    by_fraction = sorted(
        GROUP_NAMES, key=lambda name: (-(exact_tenths[name] - floors[name]), name)
    )
    for name in by_fraction[:remainder]:
        floors[name] += 1
    return {name: floors[name] / 10.0 for name in GROUP_NAMES}


def group_sizes(assignments: Mapping[str, MobilityGroup]) -> Dict[str, int]:
    """Members per group, every group in GROUP_NAMES order, empty ones as 0."""
    sizes = {name: 0 for name in GROUP_NAMES}
    for group in assignments.values():
        sizes[group.name] += 1
    return sizes


ASSIGNMENTS_CSV_HEADER = ["card_id", "group"]


def write_assignments_csv(result: ClassificationResult, path) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ASSIGNMENTS_CSV_HEADER)
        for card_id in sorted(result.assignments):
            writer.writerow([card_id, result.assignments[card_id].name])


def read_assignments_csv(path) -> Dict[str, MobilityGroup]:
    """Card -> group; any malformed line raises ValueError naming `file:line`."""
    import csv

    out: Dict[str, MobilityGroup] = {}
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
            try:
                out[card_id] = MobilityGroup.from_name(name)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return out
