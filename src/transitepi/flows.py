"""Per-group infection statistics, 8x8 flow matrices and difference matrices.

Matrix rows are the transmitting group, columns the receiving group.  Group
order is fixed alphabetically over the canonical group names so files diff
cleanly.  For ensembles, event counts are averaged over runs before being
divided by group sizes (equivalent to averaging the per-run matrices).

Both tallies read the runs' columnar `SimOutcome`s: each card vocabulary is
mapped to group codes once, and the events' group pairs are counted with
`np.bincount`.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from .classify import GROUP_NAMES, MobilityGroup, group_sizes
from .sim import SimOutcome

logger = logging.getLogger(__name__)

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

    def to_csv(self, path, precision: int = 9) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["group"] + list(self.groups))
            for i, g in enumerate(self.groups):
                writer.writerow([g] + [f"{v:.{precision}f}" for v in self.values[i]])

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
class GroupStats:
    population: int
    total_encounters: float
    total_transmitted: float
    total_received: float

    @property
    def avg_encounters_per_individual(self) -> float:
        return self.total_encounters / self.population if self.population else 0.0

    @property
    def avg_transmissions_per_individual(self) -> float:
        return self.total_transmitted / self.population if self.population else 0.0

    @property
    def avg_receptions_per_individual(self) -> float:
        return self.total_received / self.population if self.population else 0.0


@dataclass
class GroupSummary:
    per_group: Dict[str, GroupStats]

    def to_csv(self, path, precision: int = 9) -> None:
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
            for name in GROUP_NAMES:
                st = self.per_group[name]
                writer.writerow(
                    [
                        name,
                        st.population,
                        f"{st.total_encounters:.{precision}f}",
                        f"{st.total_transmitted:.{precision}f}",
                        f"{st.total_received:.{precision}f}",
                        f"{st.avg_encounters_per_individual:.{precision}f}",
                        f"{st.avg_transmissions_per_individual:.{precision}f}",
                        f"{st.avg_receptions_per_individual:.{precision}f}",
                    ]
                )


def _pair_counts(outcomes: Sequence[SimOutcome], assignments: Mapping[str, MobilityGroup]) -> np.ndarray:
    """Events per (infector group, infectee group) over all runs, in GROUP_NAMES order.

    Each card vocabulary is mapped to group codes once.  The first event
    naming an unclassified card is a `DataIntegrityError`.
    """
    n = len(GROUP_NAMES)
    pos = {name: i for i, name in enumerate(GROUP_NAMES)}
    codes_of: Dict[int, np.ndarray] = {}
    counts = np.zeros(n * n, np.int64)
    for outcome in outcomes:
        cards = outcome.cards
        codes = codes_of.get(id(cards))
        if codes is None:
            codes = codes_of[id(cards)] = np.array(
                [pos[assignments[c].name] if c in assignments else -1 for c in cards], np.int64
            )
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
    assignments: Mapping[str, MobilityGroup],
    encounters_by_card: Mapping[str, int],
) -> GroupSummary:
    """Tally encounters and traced infections per group.

    Every card in the infection logs must be classified.  The
    transmitted/received totals are averaged over runs; encounter totals are
    a property of the contact network, not the run.
    """
    if not outcomes:
        raise ValueError("no outcomes to summarize")
    populations = group_sizes(assignments)
    enc_totals = {name: 0.0 for name in GROUP_NAMES}
    for card, group in assignments.items():
        enc_totals[group.name] += encounters_by_card.get(card, 0)

    counts = _pair_counts(outcomes, assignments)
    sent, received = counts.sum(axis=1).tolist(), counts.sum(axis=0).tolist()
    n_runs = len(outcomes)
    per_group = {
        name: GroupStats(
            population=populations[name],
            total_encounters=enc_totals[name],
            total_transmitted=sent[i] / n_runs,
            total_received=received[i] / n_runs,
        )
        for i, name in enumerate(GROUP_NAMES)
    }
    return GroupSummary(per_group=per_group)


def group_flow_matrix(
    outcomes: Sequence[SimOutcome],
    assignments: Mapping[str, MobilityGroup],
) -> GroupMatrix:
    """Average infections one member of the row group causes in the column group.

    Entry (i, j) is the run-averaged count of events with infector in group i
    and infectee in group j, divided by the number of group-i cards in
    `assignments`.  Rows for empty groups are zero (with a warning) rather
    than undefined.
    """
    if not outcomes:
        raise ValueError("no outcomes to aggregate")
    sizes = group_sizes(assignments)
    counts = _pair_counts(outcomes, assignments) / len(outcomes)
    values = np.zeros_like(counts)
    for i, name in enumerate(GROUP_NAMES):
        size = sizes[name]
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


def chord_export(matrix: GroupMatrix, scale: float = 1000.0, path=None) -> Dict:
    """Plot-ready chord data: flows scaled and rounded to integers.

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
                    "value": int(round(matrix.values[i, j] * scale)),
                }
            )
    payload = {"scale": scale, "groups": groups, "flows": flows}
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
    return payload


def chord_import(payload: Dict) -> GroupMatrix:
    """Rebuild the (rounded) matrix from a chord export."""
    scale = float(payload.get("scale", 1000.0))
    groups = tuple(g["name"] for g in payload["groups"])
    pos = {name: i for i, name in enumerate(groups)}
    values = np.zeros((len(groups), len(groups)))
    for flow in payload["flows"]:
        values[pos[flow["source"]], pos[flow["target"]]] = flow["value"] / scale
    return GroupMatrix(values=values, groups=groups)
