"""Per-group infection statistics, 8x8 flow matrices and difference matrices.

Matrix rows are the transmitting group, columns the receiving group.  Group
order is fixed alphabetically over the canonical group names so files diff
cleanly.  For ensembles, event counts are averaged over runs before being
divided by group sizes (equivalent to averaging the per-run matrices).

Both tallies read the runs' columnar `SimOutcome`s and the classification's
group column: each card vocabulary is joined to group codes once, and the
events' group pairs are counted with `np.bincount`.  The per-group summary
joins the encounter column through the same card -> code mapping.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .classify import GROUP_NAMES, Assignments, group_sizes
from .sim import SimOutcome

logger = logging.getLogger(__name__)

PRECISION = 9  # decimals of every value in a matrix or summary CSV
CHORD_SCALE = 1000.0  # chord flows are matrix entries times this, rounded

# fixed render colours, one per group in GROUP_NAMES order
GROUP_COLORS: Dict[str, str] = {
    "exp_high_long": "#e41a1c",
    "exp_high_short": "#ff7f00",
    "exp_low_long": "#4daf4a",
    "exp_low_short": "#984ea3",
    "ret_high_long": "#00ced1",
    "ret_high_short": "#377eb8",
    "ret_low_long": "#a65628",
    "ret_low_short": "#f781bf",
}


class DataIntegrityError(Exception):
    """A log references a passenger with no classification."""


@dataclass
class GroupMatrix:
    """8x8 matrix over the canonical group ordering."""

    values: np.ndarray
    groups: Tuple[str, ...] = GROUP_NAMES

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.groups), len(self.groups)):
            raise ValueError(f"matrix shape {self.values.shape} does not match groups")

    def entry(self, source: str, target: str) -> float:
        i = self.groups.index(source)
        j = self.groups.index(target)
        return float(self.values[i, j])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["group"] + list(self.groups))
            for i, g in enumerate(self.groups):
                writer.writerow([g] + [f"{v:.{PRECISION}f}" for v in self.values[i]])

    @classmethod
    def from_csv(cls, path) -> "GroupMatrix":
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            groups = tuple(header[1:])
            rows = []
            for row in reader:
                rows.append([float(v) for v in row[1:]])
        return cls(values=np.array(rows), groups=groups)


@dataclass
class GroupSummary:
    """Per-group totals, each a column in GROUP_NAMES order.

    Transmissions and receptions are averaged over runs; encounters are a
    property of the contact network, not the run.
    """

    population: np.ndarray
    encounters: np.ndarray
    transmitted: np.ndarray
    received: np.ndarray

    def per_individual(self, totals: np.ndarray) -> np.ndarray:
        """`totals` over each group's population, 0 for an empty group."""
        return np.divide(totals, self.population, out=np.zeros(len(GROUP_NAMES)), where=self.population > 0)

    def to_csv(self, path) -> None:
        totals = [self.encounters, self.transmitted, self.received]
        columns = [c.tolist() for c in totals + [self.per_individual(t) for t in totals]]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [
                    "group",
                    "population",
                    "total_encounters",
                    "total_transmitted",
                    "total_received",
                    "avg_encounters_per_individual",
                    "avg_transmissions_per_individual",
                    "avg_receptions_per_individual",
                ]
            )
            for name, population, *values in zip(GROUP_NAMES, self.population.tolist(), *columns):
                writer.writerow([name, population] + [f"{v:.{PRECISION}f}" for v in values])


def _group_codes(cards: Sequence[str], assignments: Assignments) -> np.ndarray:
    """The group code of each of `cards`, -1 where a card is not classified."""
    code = dict(zip(assignments.cards, assignments.group.tolist()))
    return np.array([code.get(c, -1) for c in cards], np.int64)


def _pair_counts(outcomes: Sequence[SimOutcome], assignments: Assignments) -> np.ndarray:
    """Events per (infector group, infectee group) over all runs, in GROUP_NAMES order.

    Each card vocabulary is mapped to group codes once.  The first event
    naming an unclassified card is a `DataIntegrityError`.
    """
    n = len(GROUP_NAMES)
    codes_of: Dict[int, np.ndarray] = {}
    counts = np.zeros(n * n, np.int64)
    for outcome in outcomes:
        cards = outcome.cards
        codes = codes_of.get(id(cards))
        if codes is None:
            codes = codes_of[id(cards)] = _group_codes(cards, assignments)
        src, tgt = codes[outcome.infector], codes[outcome.infectee]
        bad = np.flatnonzero((src < 0) | (tgt < 0))
        if bad.size:
            i = bad[0]
            card = cards[outcome.infector[i] if src[i] < 0 else outcome.infectee[i]]
            raise DataIntegrityError(f"passenger {card!r} appears in a log but is not classified")
        counts += np.bincount(src * n + tgt, minlength=n * n)
    return counts.reshape(n, n)


def per_group_summary(
    outcomes: Sequence[SimOutcome],
    assignments: Assignments,
    cards: Sequence[str],
    encounters: np.ndarray,
) -> GroupSummary:
    """Tally encounters and traced infections per group.

    `encounters[i]` is the encounter count of `cards[i]`; unclassified cards
    are left out.  Every card in the infection logs must be classified.
    """
    if not outcomes:
        raise ValueError("no outcomes to summarize")
    codes = _group_codes(cards, assignments)
    classified = codes >= 0
    counts = _pair_counts(outcomes, assignments)
    return GroupSummary(
        population=group_sizes(assignments),
        encounters=np.bincount(codes[classified], encounters[classified], len(GROUP_NAMES)),
        transmitted=counts.sum(axis=1) / len(outcomes),
        received=counts.sum(axis=0) / len(outcomes),
    )


def group_flow_matrix(outcomes: Sequence[SimOutcome], assignments: Assignments) -> GroupMatrix:
    """Average infections one member of the row group causes in the column group.

    Entry (i, j) is the run-averaged count of events with infector in group i
    and infectee in group j, divided by the number of group-i cards in
    `assignments`.  Rows for empty groups are zero (with a warning) rather
    than undefined.
    """
    if not outcomes:
        raise ValueError("no outcomes to aggregate")
    sizes = group_sizes(assignments).tolist()
    counts = _pair_counts(outcomes, assignments) / len(outcomes)
    values = np.zeros_like(counts)
    for i, (name, size) in enumerate(zip(GROUP_NAMES, sizes)):
        if size == 0:
            if counts[i].any():
                raise DataIntegrityError(f"events from empty group {name!r}")
            logger.warning("group %s is empty; its flow row is defined as zero", name)
            continue
        values[i] = counts[i] / size
    return GroupMatrix(values=values)


def difference_matrix(baseline: GroupMatrix, variant: GroupMatrix) -> GroupMatrix:
    """Elementwise variant minus baseline; positive entries are gains."""
    if baseline.groups != variant.groups:
        raise ValueError("matrices use different group orderings")
    return GroupMatrix(values=variant.values - baseline.values, groups=baseline.groups)


def chord_export(matrix: GroupMatrix, path=None) -> Dict:
    """Plot-ready chord data: flows scaled by CHORD_SCALE and rounded to integers.

    The schema is {"groups": [{"name", "color"}], "flows": [{"source",
    "target", "value"}]} with one flow per ordered group pair, zeros
    included so the export rescales back to the full matrix.
    """
    if (matrix.values < 0).any():
        raise ValueError("chord export requires a non-negative matrix")
    groups = [{"name": g, "color": GROUP_COLORS.get(g, "#999999")} for g in matrix.groups]
    flows = []
    for i, source in enumerate(matrix.groups):
        for j, target in enumerate(matrix.groups):
            flows.append(
                {
                    "source": source,
                    "target": target,
                    "value": int(round(matrix.values[i, j] * CHORD_SCALE)),
                }
            )
    payload = {"scale": CHORD_SCALE, "groups": groups, "flows": flows}
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
    return payload


def chord_import(payload: Dict) -> GroupMatrix:
    """Rebuild the (rounded) matrix from a chord export."""
    scale = float(payload.get("scale", CHORD_SCALE))
    groups = tuple(g["name"] for g in payload["groups"])
    pos = {name: i for i, name in enumerate(groups)}
    values = np.zeros((len(groups), len(groups)))
    for flow in payload["flows"]:
        values[pos[flow["source"]], pos[flow["target"]]] = flow["value"] / scale
    return GroupMatrix(values=values, groups=groups)
