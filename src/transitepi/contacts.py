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

An exposure is therefore an ordered pair of rides, the contact sequence over
rides: `ExposureLog` stores each as the two rides' row numbers in the
`TripTable` plus its kind, 9 bytes a row, and derives the source and target
cards, the vehicle and the exposure window from the two rides and d_t when
they are read.

`build_exposure_log` reads the card, vehicle and time columns of a
`TripTable` and sorts the rides once by (vehicle, enter, exit, card).
Ride i then meets exactly the later rides j of its vehicle that board by
exit_i + d_t, a contiguous run found by one `searchsorted`; the pair is
direct when exit_i >= enter_j and indirect otherwise, and pairs of one card
are dropped.

A log narrows to any shorter suspension time d <= d_t without a rebuild:
`ExposureLog.within(d)` keeps the rows with start <= src_exit + d (every
direct row, which starts by its source's exit, and the indirect rows whose
target boards in time) in stored order.  Direct rows do not depend on the
suspension time.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, List

import numpy as np

from .ingest import TripTable

DIRECT = "direct"
INDIRECT = "indirect"


@dataclass(eq=False)
class ExposureLog:
    """The exposures of one suspension time `d_t` as ordered pairs of rides.

    In row i ride `src_ride[i]` exposes ride `tgt_ride[i]`, both int32 rows
    of `trips`, directly iff `direct[i]`.  The other columns are derived from
    the two rides and `d_t` when read, each defined once below.  Rows are
    stored by source card, then start, target card, vehicle and kind (direct
    last), the order in which the simulator scans one source's exposures;
    card and vehicle codes are the table's, so code order is id order.
    `within(d)` gives the log at any d <= d_t, equal row for row to a build at d.
    """

    trips: TripTable
    src_ride: np.ndarray
    tgt_ride: np.ndarray
    direct: np.ndarray
    d_t: float

    def __len__(self) -> int:
        return int(self.src_ride.size)

    @property
    def cards(self) -> List[str]:
        return self.trips.cards

    @property
    def vehicles(self) -> List[str]:
        return self.trips.vehicles

    @property
    def src(self) -> np.ndarray:
        return self.trips.card.take(self.src_ride)

    @property
    def tgt(self) -> np.ndarray:
        return self.trips.card.take(self.tgt_ride)

    @property
    def veh(self) -> np.ndarray:
        return self.trips.vehicle.take(self.src_ride)

    @property
    def src_exit(self) -> np.ndarray:
        return self.trips.alight.take(self.src_ride)

    @property
    def start(self) -> np.ndarray:
        """The window opens when the later of the two rides boards."""
        start = self.trips.board.take(self.src_ride)
        return np.maximum(start, self.trips.board.take(self.tgt_ride), out=start)

    @property
    def end(self) -> np.ndarray:
        """The window closes when the target alights, or earlier: at the source's exit, or d_t after it."""
        end = self.src_exit
        np.add(end, self.d_t, out=end, where=~self.direct)
        return np.minimum(self.trips.alight.take(self.tgt_ride), end, out=end)

    def take(self, rows: np.ndarray) -> "ExposureLog":
        """The rows selected by an index array or boolean mask, in that order."""
        return replace(self, src_ride=self.src_ride[rows], tgt_ride=self.tgt_ride[rows], direct=self.direct[rows])

    def within(self, d_t: float) -> "ExposureLog":
        """This log at suspension time `d_t` in [0, self.d_t]: its rows that start by src_exit + d_t."""
        if d_t == self.d_t:
            return self
        if not 0 <= d_t <= self.d_t:
            raise ValueError(f"d_t must be in [0, {self.d_t}], got {d_t}")
        return replace(self.take(self.start <= self.src_exit + d_t), d_t=d_t)

    def direct_encounter_counts(self) -> Dict[str, int]:
        """Per-card count of direct co-presence episodes (with multiplicity)."""
        counts = np.bincount(self.take(self.direct).src, minlength=len(self.cards))
        return {card: int(counts[i]) for i, card in enumerate(self.cards) if counts[i]}


def build_exposure_log(trips: TripTable, d_t: float) -> ExposureLog:
    """All exposure events among `trips` for suspension time `d_t`.

    The log's card and vehicle vocabularies are the table's, so a passenger
    who never shares a vehicle is still one of its cards.
    """
    if d_t < 0:
        raise ValueError(f"d_t must be >= 0, got {d_t}")
    card, veh, enter, exit_ = trips.card, trips.vehicle, trips.board, trips.alight
    n, n_vehicles = len(trips), len(trips.vehicles)
    bad = np.flatnonzero(~(enter < exit_))
    if bad.size:
        raise ValueError(f"a ride must have enter < exit, got [{enter[bad[0]]}, {exit_[bad[0]]}]")

    ride = np.lexsort((card, exit_, enter, veh)).astype(np.int32)  # the table row of each sorted ride
    card, veh, enter, exit_ = card[ride], veh[ride], enter[ride], exit_[ride]
    # ride i meets rides i+1 .. hi[i]-1: the later rides of its vehicle that
    # board no later than exit_i + d_t
    hi = np.empty(n, np.int64)
    reach = exit_ + d_t
    vbounds = np.searchsorted(veh, np.arange(n_vehicles + 1))
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

    # rows are stored by (source, start, target, vehicle, kind), one slice per
    # source for run_lanes to read, the last three packed into one key
    start = np.maximum(enter[s], enter[t])
    tie = (card[t].astype(np.int64) * n_vehicles + veh[s]) * 2 + direct
    order = np.lexsort((tie, start, card[s]))
    del tie, start
    return ExposureLog(trips, ride[s[order]], ride[t[order]], direct[order], d_t)


def degree_distribution(exposures: ExposureLog) -> Dict[int, int]:
    """Histogram of direct-encounter degree over the log's cards; a card with none has degree zero."""
    counts = exposures.direct_encounter_counts()
    return dict(Counter(counts.get(card, 0) for card in exposures.cards))


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

    direct = exposures.take(exposures.direct)
    pairs = np.unique(np.stack([direct.src, direct.tgt], axis=1), axis=0) if len(direct) else np.empty((0, 2), int)
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
