"""Per-passenger mobility statistics: visited stops, total and k-restricted
radius of gyration, and direct-encounter counts, computed for every card at
once from the columns of a `TripTable` and kept as columns indexed by the
table's card codes (`MobilityTable`).  The counts come from the rides
themselves (`contacts.encounter_counts`), so no exposure log is built.

The radius of gyration is the frequency-weighted RMS distance of a
passenger's visited stops from their centre of mass:

    rg = sqrt( (1/N) * sum_i  n_i * dist(r_i, r_cm)^2 )

with N the total visit weight (sum of the n_i).  The k-restricted variant
applies the same formula to the k most-visited stops only, recomputing both
N and the centre of mass over that subset.  Each card's sums run over its
stops in stop-id order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .artifacts import write_csv
from .contacts import encounter_counts
from .geo import HAVERSINE
from .ingest import TripTable

DEFAULT_K = 2


@dataclass(frozen=True)
class MobilityTable:
    """Every passenger's position along the three mobility dimensions.

    Row i of each column belongs to `cards[i]`; radii are in metres.
    """

    cards: Sequence[str]
    k: int
    rg: np.ndarray  # float64
    rgk: np.ndarray  # float64
    encounters: np.ndarray  # int64


def visit_counts(trips: TripTable) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Visited stops of every card: (card, stop, visits) rows sorted by card, then stop.

    Each boarding and each alighting counts as one visit.
    """
    n_stops = len(trips.stops)
    card = trips.card.astype(np.int64) * n_stops
    visit, count = np.unique(np.concatenate([card + trips.board_stop, card + trips.alight_stop]),
                             return_counts=True)
    card, stop = np.divmod(visit, n_stops)
    return card, stop, count


def radii_of_gyration(card, lat, lon, weight, k: int = DEFAULT_K, model=HAVERSINE) -> Tuple[np.ndarray, np.ndarray]:
    """Radius of gyration and k-radius of every card, in metres.

    One row per visited stop: `card` numbers the cards 0 .. n-1 and is sorted,
    and within a card the rows are in stop-id order, which breaks frequency
    ties in the choice of the k most-visited stops.  `weight` is the visit
    count.  When a card has at most k distinct stops its k-radius equals its
    radius exactly; a card with one stop has radius 0.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    card = np.asarray(card, np.int64)
    weight = np.asarray(weight, np.float64)
    n = int(card[-1]) + 1 if card.size else 0
    rg = _gyration(card, lat, lon, weight, n, model)
    m = np.bincount(card, minlength=n)
    # rank of each row among its card's stops by (-visits, stop id); lexsort is stable
    order = np.lexsort((-weight, card))
    rank = np.arange(card.size) - np.repeat(np.cumsum(m) - m, m)
    top = np.sort(order[rank < k])
    rgk = _gyration(card[top], lat[top], lon[top], weight[top], n, model)
    return rg, np.where(m <= k, rg, rgk)


def _gyration(card, lat, lon, weight, n: int, model) -> np.ndarray:
    c_lat, c_lon = model.center_of_mass(lat, lon, weight, card, n)
    d = model.distance((lat, lon), (c_lat[card], c_lon[card]))
    rg = np.sqrt(np.bincount(card, weight * d * d, n) / np.bincount(card, weight, n))
    rg[np.bincount(card, minlength=n) == 1] = 0.0  # one stop: exactly 0, free of trig round-off
    return rg


def mobility_table(trips: TripTable, k: int = DEFAULT_K, model=HAVERSINE) -> MobilityTable:
    """The mobility columns of every card in `trips`, over its card vocabulary (sorted by id).

    A card's encounters are its direct co-presence episodes, so a pair
    meeting on separate trips counts once per episode.
    """
    encounters = encounter_counts(trips)
    card, stop, visits = visit_counts(trips)
    rg, rgk = radii_of_gyration(card, trips.stop_lat[stop], trips.stop_lon[stop], visits, k, model)
    return MobilityTable(trips.cards, k, rg, rgk, encounters)


def write_mobility_csv(table: MobilityTable, path) -> None:
    write_csv(path, ["card_id", "rg_m", "rgk_m", "k", "encounters"], (
        [card, f"{rg:.6f}", f"{rgk:.6f}", table.k, encounters]
        for card, rg, rgk, encounters in zip(table.cards, table.rg.tolist(), table.rgk.tolist(),
                                             table.encounters.tolist())
    ))
