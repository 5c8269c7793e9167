"""Vehicle presence timelines and exposure extraction.

Two exposure kinds are produced for a source presence [a, b] on a vehicle:

  * direct: another passenger is on the vehicle at the same time; their
    presence overlaps [a, b].  Direct exposure is symmetric, so each
    co-presence episode yields two directed events.
  * indirect: pathogens deposited during [a, b] persist on the vehicle for a
    suspension time d_t after the source alights; a passenger whose presence
    intersects (b, b + d_t] is exposed.  Indirect exposure is directed
    forward in time only.

Events are stored column-wise (numpy arrays) because realistic months yield
millions of them; `ExposureLog.events()` materializes dataclasses on demand.
Each event also carries the source presence interval that deposited the
pathogens, which downstream code needs to decide whether the source was
infectious at deposition time.
"""

from __future__ import annotations

import array
import csv
import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .ingest import TripRecord

DIRECT = "direct"
INDIRECT = "indirect"


@dataclass(frozen=True)
class PresenceInterval:
    card_id: str
    vehicle_id: str
    enter: float
    exit: float

    def __post_init__(self) -> None:
        if not self.enter < self.exit:
            raise ValueError(f"presence must have enter < exit, got [{self.enter}, {self.exit}]")


@dataclass(frozen=True)
class ExposureEvent:
    source: str
    target: str
    vehicle_id: str
    exposure_start: float
    exposure_end: float
    kind: str  # DIRECT | INDIRECT
    source_enter: float
    source_exit: float


def build_presence_intervals(records: Sequence[TripRecord]) -> Dict[str, List[PresenceInterval]]:
    """One presence interval per trip, grouped by vehicle, sorted by entry."""
    timelines: Dict[str, List[PresenceInterval]] = {}
    for rec in records:
        timelines.setdefault(rec.vehicle_id, []).append(
            PresenceInterval(rec.card_id, rec.vehicle_id, rec.board_time, rec.alight_time)
        )
    for intervals in timelines.values():
        intervals.sort(key=lambda p: (p.enter, p.exit, p.card_id))
    return timelines


class ExposureLog:
    """Column-wise store of all exposure events for one suspension time.

    Canonical order: exposure_start, then source id, then target id, then
    exposure_end, then vehicle id.  Card and vehicle ids are mapped to dense
    indices over the id-sorted vocabularies, so index order equals id order.
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

    @property
    def n_direct(self) -> int:
        return int(np.count_nonzero(self.direct))

    @property
    def n_indirect(self) -> int:
        return len(self) - self.n_direct

    @classmethod
    def build(
        cls,
        timelines: Dict[str, List[PresenceInterval]],
        d_t: float,
        cards: Optional[Sequence[str]] = None,
    ) -> "ExposureLog":
        """Sweep every vehicle timeline and collect all exposure events.

        `cards` optionally fixes the card vocabulary (useful to include
        passengers that never share a vehicle); by default it is inferred
        from the timelines.
        """
        if d_t < 0:
            raise ValueError(f"d_t must be >= 0, got {d_t}")
        seen = set()
        for intervals in timelines.values():
            for p in intervals:
                seen.add(p.card_id)
        cards = sorted(seen if cards is None else seen | set(cards))
        card_index = {c: i for i, c in enumerate(cards)}
        vehicles = sorted(timelines)
        veh_index = {v: i for i, v in enumerate(vehicles)}

        # staged in compact typed arrays; months of data yield millions of rows
        src = array.array("i")
        tgt = array.array("i")
        veh = array.array("i")
        start = array.array("d")
        end = array.array("d")
        s_enter = array.array("d")
        s_exit = array.array("d")
        direct = array.array("b")

        for vehicle_id in vehicles:
            vi = veh_index[vehicle_id]
            intervals = timelines[vehicle_id]
            # active: intervals whose suspension window can still reach the
            # sweep position, keyed by insertion id
            active: Dict[int, Tuple[float, float, int]] = {}
            retire: List[Tuple[float, int]] = []  # min-heap of (exit + d_t, key)

            for key, p in enumerate(intervals):
                c, d = p.enter, p.exit
                k_idx = card_index[p.card_id]
                while retire and retire[0][0] < c:
                    _, dead = heapq.heappop(retire)
                    active.pop(dead, None)
                for a, b, i_idx in active.values():
                    if i_idx == k_idx:
                        continue
                    if b >= c:
                        # co-presence: both directions
                        w_end = min(b, d)
                        src.append(i_idx); tgt.append(k_idx); veh.append(vi)
                        start.append(c); end.append(w_end)
                        s_enter.append(a); s_exit.append(b); direct.append(1)
                        src.append(k_idx); tgt.append(i_idx); veh.append(vi)
                        start.append(c); end.append(w_end)
                        s_enter.append(c); s_exit.append(d); direct.append(1)
                    else:
                        # b < c <= b + d_t: suspended pathogens only
                        src.append(i_idx); tgt.append(k_idx); veh.append(vi)
                        start.append(c); end.append(min(d, b + d_t))
                        s_enter.append(a); s_exit.append(b); direct.append(0)
                active[key] = (c, d, k_idx)
                heapq.heappush(retire, (d + d_t, key))

        src_a = np.frombuffer(src, dtype=np.int32) if src else np.empty(0, np.int32)
        tgt_a = np.frombuffer(tgt, dtype=np.int32) if tgt else np.empty(0, np.int32)
        veh_a = np.frombuffer(veh, dtype=np.int32) if veh else np.empty(0, np.int32)
        start_a = np.frombuffer(start, dtype=np.float64) if start else np.empty(0)
        end_a = np.frombuffer(end, dtype=np.float64) if end else np.empty(0)
        s_enter_a = np.frombuffer(s_enter, dtype=np.float64) if s_enter else np.empty(0)
        s_exit_a = np.frombuffer(s_exit, dtype=np.float64) if s_exit else np.empty(0)
        direct_a = (np.frombuffer(direct, dtype=np.int8) if direct else np.empty(0, np.int8)).astype(bool)
        order = np.lexsort((veh_a, end_a, tgt_a, src_a, start_a))
        return cls(
            cards,
            vehicles,
            src_a[order],
            tgt_a[order],
            veh_a[order],
            start_a[order],
            end_a[order],
            s_enter_a[order],
            s_exit_a[order],
            direct_a[order],
            d_t,
        )

    def events(self) -> Iterator[ExposureEvent]:
        for i in range(len(self)):
            yield ExposureEvent(
                source=self.cards[self.src[i]],
                target=self.cards[self.tgt[i]],
                vehicle_id=self.vehicles[self.veh[i]],
                exposure_start=float(self.start[i]),
                exposure_end=float(self.end[i]),
                kind=DIRECT if self.direct[i] else INDIRECT,
                source_enter=float(self.src_enter[i]),
                source_exit=float(self.src_exit[i]),
            )

    def direct_encounter_counts(self) -> Dict[str, int]:
        """Per-card count of direct co-presence episodes (with multiplicity)."""
        counts = np.bincount(self.src[self.direct], minlength=len(self.cards))
        return {card: int(counts[i]) for i, card in enumerate(self.cards) if counts[i]}

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["source", "target", "vehicle_id", "start", "end", "kind"])
            for e in self.events():
                writer.writerow(
                    [e.source, e.target, e.vehicle_id, repr(e.exposure_start), repr(e.exposure_end), e.kind]
                )


def build_exposure_log(
    records: Sequence[TripRecord], d_t: float, cards: Optional[Sequence[str]] = None
) -> ExposureLog:
    """Convenience: records -> timelines -> ExposureLog."""
    if cards is None:
        cards = sorted({r.card_id for r in records})
    return ExposureLog.build(build_presence_intervals(records), d_t, cards=cards)


def degree_distribution(exposures: ExposureLog, cards: Optional[Iterable[str]] = None) -> Dict[int, int]:
    """Histogram of direct-encounter degree over the given population.

    Passengers absent from the log (no direct encounters) count with degree
    zero, so pass the full card population when isolated passengers matter.
    """
    counts = exposures.direct_encounter_counts()
    population = list(cards) if cards is not None else list(exposures.cards)
    hist: Dict[int, int] = {}
    for card in population:
        degree = counts.get(card, 0)
        hist[degree] = hist.get(degree, 0) + 1
    return hist


def connected_components(
    exposures: ExposureLog, cards: Optional[Iterable[str]] = None
) -> List[int]:
    """Sizes of the components of the direct-contact graph, largest first.

    Vertices are passengers; an edge joins any pair with at least one direct
    exposure.  Isolated passengers form size-1 components.
    """
    population = sorted(set(cards)) if cards is not None else list(exposures.cards)
    index = {c: i for i, c in enumerate(population)}
    parent = list(range(len(population)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    mask = exposures.direct
    src = exposures.src[mask]
    tgt = exposures.tgt[mask]
    pairs = np.unique(np.stack([src, tgt], axis=1), axis=0) if src.size else np.empty((0, 2), int)
    for s, t in pairs:
        a = index.get(exposures.cards[s])
        b = index.get(exposures.cards[t])
        if a is None or b is None:
            continue
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    sizes: Dict[int, int] = {}
    for i in range(len(population)):
        r = find(i)
        sizes[r] = sizes.get(r, 0) + 1
    return sorted(sizes.values(), reverse=True)


def write_histogram_csv(hist: Dict[int, int], path, value_name: str = "value") -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([value_name, "count"])
        for key in sorted(hist):
            writer.writerow([key, hist[key]])
