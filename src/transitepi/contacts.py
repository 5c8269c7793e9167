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

The statistics of the direct contacts need no log.  A direct contact is an
overlap of two rides on one vehicle (Holme & Saramaki 2012), so
`encounter_counts` and `connected_components` work on the rides sorted by
time, in O(rides log rides), with no pair list; `degree_distribution` is the
histogram of the counts.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

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


def build_exposure_log(trips: TripTable, d_t: float) -> ExposureLog:
    """All exposure events among `trips` for suspension time `d_t`.

    The log's card and vehicle vocabularies are the table's, so a passenger
    who never shares a vehicle is still one of its cards.
    """
    if d_t < 0:
        raise ValueError(f"d_t must be >= 0, got {d_t}")
    _check_rides(trips)
    card, veh, enter, exit_ = trips.card, trips.vehicle, trips.board, trips.alight
    n, n_vehicles = len(trips), len(trips.vehicles)

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


def _check_rides(trips: TripTable) -> None:
    bad = np.flatnonzero(~(trips.board < trips.alight))
    if bad.size:
        raise ValueError(f"a ride must have enter < exit, got [{trips.board[bad[0]]}, {trips.alight[bad[0]]}]")


def encounter_counts(trips: TripTable) -> np.ndarray:
    """Each card's direct encounters: the pairs of one of its rides and another card's ride that overlap.

    Two rides overlap when they share a vehicle and each boards no later than
    the other alights, touching included; these are the direct exposures,
    counted once per source card, at any suspension time.  Indexed by card code.
    """
    board, exit_ = _time_ranks(trips)
    counts = _overlaps(trips, trips.vehicle, board, exit_)
    # the overlaps among one card's own rides on one vehicle, each ride with itself included, are no encounters
    _, vehicle_card = np.unique(trips.vehicle.astype(np.int64) * len(trips.cards) + trips.card, return_inverse=True)
    vehicle_card = vehicle_card.astype(np.int32)
    counts -= _overlaps(trips, vehicle_card, board, exit_)
    return counts.astype(np.int64)


def _time_ranks(trips: TripTable) -> Tuple[np.ndarray, np.ndarray]:
    """Integer stand-ins for the boarding and exit times that keep every comparison of a boarding with an exit.

    A time's rank is the number of boardings no later than it, so that
    board_j <= exit_i iff rank(board_j) <= rank(exit_i), and
    exit_j < board_i iff rank(exit_j) < rank(board_i).
    """
    _check_rides(trips)
    boards = np.sort(trips.board)
    return tuple(np.searchsorted(boards, t, "right").astype(np.int32) for t in (trips.board, trips.alight))


def _overlaps(trips: TripTable, group: np.ndarray, board: np.ndarray, exit_: np.ndarray) -> np.ndarray:
    """Per card, the pairs of one of its rides and a ride of the same group that overlap, each ride with itself too.

    A ride's overlaps are its group's boardings no later than its exit minus
    its group's exits before its boarding.  Times are ranks, keyed by group
    so that one sorted array serves every group: the rides of earlier groups
    fall under both counts and cancel.
    """
    boards = _keyed(group, board)
    order = np.argsort(boards)
    boards.sort()
    exits = _keyed(group, exit_)[order]
    # needles in (near) key order: numpy bounds each search below by the last result
    count = np.searchsorted(boards, exits, "right")
    exits.sort()
    count -= np.searchsorted(exits, boards, "left")
    return np.bincount(trips.card[order], count, len(trips.cards))


def _keyed(group: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Time ranks made comparable across groups: group-major int64 keys."""
    key = np.multiply(group, rank.size + 1, dtype=np.int64)
    key += rank
    return key


def degree_distribution(encounters: np.ndarray) -> Dict[int, int]:
    """Histogram of the per-card counts of `encounter_counts`; a card with none has degree zero."""
    return dict(Counter(encounters.tolist()))


def connected_components(trips: TripTable) -> List[int]:
    """Sizes of the components of the direct-contact graph, largest first.

    Vertices are the table's cards; an edge joins any pair whose rides
    overlap.  Each vehicle's rides, in boarding order, split into overlap
    clusters, a new one starting where a boarding comes after every earlier
    exit; the cards of one cluster are connected.  Isolated passengers form
    size-1 components.
    """
    board, exit_ = _time_ranks(trips)
    # keyed by vehicle, so that no cluster reaches back into an earlier vehicle
    board, exit_ = _keyed(trips.vehicle, board), _keyed(trips.vehicle, exit_)
    order = np.argsort(board)
    joins = board[order[1:]] <= np.maximum.accumulate(exit_[order[:-1]])
    card = trips.card[order]
    a, b = card[:-1][joins], card[1:][joins]
    # each round hooks every root to the least root it shares an edge with and
    # points every card at its root; edges within one component drop out
    label = np.arange(len(trips.cards))
    while True:
        la, lb = label[a], label[b]
        differ = la != lb
        if not differ.any():
            break
        a, b, la, lb = a[differ], b[differ], la[differ], lb[differ]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            root = label[label]
            if np.array_equal(root, label):
                break
            label = root
    sizes = np.bincount(label)
    return sorted(sizes[sizes > 0].tolist(), reverse=True)


def write_histogram_csv(hist: Dict[int, int], path, value_name: str = "value") -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([value_name, "count"])
        for key in sorted(hist):
            writer.writerow([key, hist[key]])
