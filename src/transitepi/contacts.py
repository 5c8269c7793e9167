"""Exposure extraction from the rides on each vehicle.

Each trip is one ride [a, b] on a vehicle.  Two exposure kinds are produced
for a source ride [a, b]:

  * direct: another passenger is on the vehicle at the same time; their
    ride overlaps [a, b].  Direct exposure is symmetric, so each
    co-presence episode yields two directed events.
  * indirect: pathogens deposited during [a, b] persist on the vehicle for a
    suspension time d_t after the source alights; a passenger who boards
    in (b, b + d_t] is exposed.  Indirect exposure is directed forward in
    time only.

`build_exposure_log` reads the card, vehicle and time columns of a
`TripTable` and sorts the rides once by (vehicle, enter, exit, card).
Ride i then meets exactly the later rides j of its vehicle that board by
exit_i + d_t, a contiguous run found by one `searchsorted`; the pair is
direct when exit_i >= enter_j and indirect otherwise, and pairs of one card
are dropped.

A log narrows to any shorter suspension time d <= d_t without a rebuild:
`ExposureLog.within(d)` keeps the rows with start <= src_exit + d (every
direct row, which starts by its source's exit, and the indirect rows whose
target boards in time) in stored order, and clips `end` to src_exit + d.
Direct rows do not depend on the suspension time.

Events are stored column-wise (numpy arrays) because realistic months yield
millions of them, in the order the simulator scans them: (source, start,
target, vehicle, kind).  Each event also carries the source ride that
deposited the pathogens, which downstream code needs to decide whether the
source was infectious at deposition time.
"""

from __future__ import annotations

import csv
from typing import Dict, List, Sequence

import numpy as np

from .ingest import TripTable

DIRECT = "direct"
INDIRECT = "indirect"


class ExposureLog:
    """Column-wise store of all exposure events for one suspension time.

    Rows are stored grouped by source: sorted by source index, then
    exposure_start, then target index, vehicle index and kind (direct
    last), the order in which the simulator scans one source's exposures.
    Card and vehicle ids are mapped to dense indices over the id-sorted
    vocabularies, so index order equals id order.  `within(d)` gives the log
    at a suspension time d no longer than its own, equal column for column
    to the one `build_exposure_log` would make at d.
    """

    def __init__(
        self,
        cards: Sequence[str],
        vehicles: Sequence[str],
        src: np.ndarray,
        tgt: np.ndarray,
        veh: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        src_enter: np.ndarray,
        src_exit: np.ndarray,
        direct: np.ndarray,
        d_t: float,
    ) -> None:
        self.cards = list(cards)
        self.vehicles = list(vehicles)
        self.src = src
        self.tgt = tgt
        self.veh = veh
        self.start = start
        self.end = end
        self.src_enter = src_enter
        self.src_exit = src_exit
        self.direct = direct
        self.d_t = d_t

    def __len__(self) -> int:
        return int(self.src.size)

    def within(self, d_t: float) -> "ExposureLog":
        """This log at suspension time `d_t` in [0, self.d_t]: a row mask and a clipped `end`.

        An indirect row exists at `d_t` iff its target boards by
        src_exit + d_t, and its window then ends by that time; a direct row
        starts and ends by src_exit, so both rules leave it as it is.
        """
        if d_t == self.d_t:
            return self
        if not 0 <= d_t <= self.d_t:
            raise ValueError(f"d_t must be in [0, {self.d_t}], got {d_t}")
        reach = self.src_exit + d_t
        keep = np.flatnonzero(self.start <= reach)
        return ExposureLog(
            self.cards, self.vehicles, self.src[keep], self.tgt[keep], self.veh[keep], self.start[keep],
            np.minimum(self.end[keep], reach[keep]), self.src_enter[keep], self.src_exit[keep],
            self.direct[keep], d_t,
        )

    def direct_encounter_counts(self) -> Dict[str, int]:
        """Per-card count of direct co-presence episodes (with multiplicity)."""
        counts = np.bincount(self.src[self.direct], minlength=len(self.cards))
        return {card: int(counts[i]) for i, card in enumerate(self.cards) if counts[i]}


def build_exposure_log(trips: TripTable, d_t: float) -> ExposureLog:
    """All exposure events among `trips` for suspension time `d_t`.

    The log's card and vehicle vocabularies are the table's, so a passenger
    who never shares a vehicle is still one of its cards.
    """
    if d_t < 0:
        raise ValueError(f"d_t must be >= 0, got {d_t}")
    cards, vehicles = trips.cards, trips.vehicles
    card, veh, enter, exit_ = trips.card, trips.vehicle, trips.board, trips.alight
    n = len(trips)
    bad = np.flatnonzero(~(enter < exit_))
    if bad.size:
        raise ValueError(f"a ride must have enter < exit, got [{enter[bad[0]]}, {exit_[bad[0]]}]")

    order = np.lexsort((card, exit_, enter, veh))
    card, veh, enter, exit_ = card[order], veh[order], enter[order], exit_[order]
    # ride i meets rides i+1 .. hi[i]-1: the later rides of its vehicle that
    # board no later than exit_i + d_t
    hi = np.empty(n, np.int64)
    reach = exit_ + d_t
    vbounds = np.searchsorted(veh, np.arange(len(vehicles) + 1))
    for lo, up in zip(vbounds[:-1], vbounds[1:]):
        hi[lo:up] = lo + np.searchsorted(enter[lo:up], reach[lo:up], side="right")
    counts = hi - np.arange(1, n + 1)
    # pair indices are int32, half the memory of the build's largest arrays
    n_pairs = int(counts.sum())
    if n_pairs > np.iinfo(np.int32).max:
        raise ValueError(f"{n_pairs} ride pairs exceed the int32 pair index")
    # pair k is (i, i + 1 + k - first[i]), first[i] being ride i's first pair
    first = np.cumsum(counts) - counts
    i = np.repeat(np.arange(n, dtype=np.int32), counts)
    j = np.arange(n_pairs, dtype=np.int32) + np.repeat((np.arange(1, n + 1) - first).astype(np.int32), counts)
    keep = card[i] != card[j]
    i, j = i[keep], j[keep]
    is_direct = exit_[i] >= enter[j]
    # direct pairs yield both directions; indirect ones only i -> j
    s = np.concatenate([i, j[is_direct]])
    t = np.concatenate([j, i[is_direct]])
    direct = np.concatenate([is_direct, np.ones(np.count_nonzero(is_direct), bool)])
    del i, j, is_direct

    # the window opens when the later ride boards; rows are stored by (source,
    # start, target, vehicle, kind), one slice per source for run_lanes to read,
    # the last three packed into one key
    start = np.maximum(enter[s], enter[t])
    tie = (card[t].astype(np.int64) * len(vehicles) + veh[s]) * 2 + direct
    order = np.lexsort((tie, start, card[s]))
    del tie
    # one column at a time, so that the old and new copies of only one are held
    s = s[order]
    t = t[order]
    direct = direct[order]
    start = start[order]
    del order
    src_exit = exit_[s]
    end = np.minimum(exit_[t], np.where(direct, src_exit, src_exit + d_t))
    return ExposureLog(
        cards, vehicles, card[s], card[t], veh[s], start, end, enter[s], src_exit, direct, d_t
    )


def degree_distribution(exposures: ExposureLog) -> Dict[int, int]:
    """Histogram of direct-encounter degree over the log's cards; a card with none has degree zero."""
    counts = exposures.direct_encounter_counts()
    hist: Dict[int, int] = {}
    for card in exposures.cards:
        degree = counts.get(card, 0)
        hist[degree] = hist.get(degree, 0) + 1
    return hist


def connected_components(exposures: ExposureLog) -> List[int]:
    """Sizes of the components of the direct-contact graph, largest first.

    Vertices are the log's cards; an edge joins any pair with at least one
    direct exposure.  Isolated passengers form size-1 components.
    """
    parent = list(range(len(exposures.cards)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    mask = exposures.direct
    src = exposures.src[mask]
    tgt = exposures.tgt[mask]
    pairs = np.unique(np.stack([src, tgt], axis=1), axis=0) if src.size else np.empty((0, 2), int)
    for a, b in pairs.tolist():
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    sizes: Dict[int, int] = {}
    for i in range(len(parent)):
        r = find(i)
        sizes[r] = sizes.get(r, 0) + 1
    return sorted(sizes.values(), reverse=True)


def write_histogram_csv(hist: Dict[int, int], path, value_name: str = "value") -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([value_name, "count"])
        for key in sorted(hist):
            writer.writerow([key, hist[key]])
