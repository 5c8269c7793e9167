"""Per-passenger mobility statistics: visit profiles, total and k-restricted
radius of gyration, and direct-encounter counts.

The radius of gyration is the frequency-weighted RMS distance of a
passenger's visited stops from their centre of mass:

    rg = sqrt( (1/N) * sum_i  n_i * dist(r_i, r_cm)^2 )

with N the total visit weight (sum of the n_i).  The k-restricted variant
applies the same formula to the k most-visited stops only, recomputing both
N and the centre of mass over that subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .geo import HAVERSINE, Point
from .ingest import StopRef, TripRecord

DEFAULT_K = 2


@dataclass(frozen=True)
class VisitProfile:
    """Visited stops of one card with per-stop visit frequencies.

    Each boarding and each alighting counts as one visit.  `visits` preserves
    first-visit order; `total_visits` is the sum of the frequencies.
    """

    card_id: str
    visits: Tuple[Tuple[StopRef, int], ...]

    @property
    def total_visits(self) -> int:
        return sum(n for _, n in self.visits)

    def center_of_mass(self, model=HAVERSINE) -> Point:
        points = [stop.coords() for stop, _ in self.visits]
        weights = [float(n) for _, n in self.visits]
        return model.center_of_mass(points, weights)


@dataclass(frozen=True)
class MobilityVector:
    """One passenger's position along the three mobility dimensions."""

    card_id: str
    rg: float
    rgk: float
    k_used: int
    encounters: int


def build_visit_profile(records: Sequence[TripRecord]) -> VisitProfile:
    """Tally the visited stops of one card's records."""
    if not records:
        raise ValueError("cannot build a visit profile from zero records")
    card_id = records[0].card_id
    freq: Dict[str, int] = {}
    stops: Dict[str, StopRef] = {}
    for rec in records:
        if rec.card_id != card_id:
            raise ValueError(f"records mix cards {card_id!r} and {rec.card_id!r}")
        for stop in (rec.board_stop, rec.alight_stop):
            freq[stop.stop_id] = freq.get(stop.stop_id, 0) + 1
            stops.setdefault(stop.stop_id, stop)
    visits = tuple((stops[sid], n) for sid, n in freq.items())
    return VisitProfile(card_id=card_id, visits=visits)


def radius_of_gyration(profile: VisitProfile, model=HAVERSINE) -> float:
    """Frequency-weighted RMS distance from the centre of mass, in metres."""
    if len(profile.visits) == 1:
        return 0.0
    com = profile.center_of_mass(model)
    total = 0
    acc = 0.0
    for stop, n in profile.visits:
        d = model.distance(stop.coords(), com)
        acc += n * d * d
        total += n
    return math.sqrt(acc / total)


def k_radius_of_gyration(profile: VisitProfile, k: int = DEFAULT_K, model=HAVERSINE) -> float:
    """Radius of gyration over the k most-visited stops only.

    Frequency ties are broken by stop id so the subset is deterministic.
    When the profile has at most k distinct stops this equals
    radius_of_gyration exactly.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(profile.visits) <= k:
        return radius_of_gyration(profile, model)
    ranked = sorted(profile.visits, key=lambda v: (-v[1], v[0].stop_id))
    chosen = {stop.stop_id for stop, _ in ranked[:k]}
    # keep original visit order so the k >= |L| case stays bit-identical
    subset = tuple(v for v in profile.visits if v[0].stop_id in chosen)
    sub = VisitProfile(card_id=profile.card_id, visits=subset)
    return radius_of_gyration(sub, model)


def mobility_table(
    records: Sequence[TripRecord],
    exposures,
    k: int = DEFAULT_K,
    model=HAVERSINE,
) -> List[MobilityVector]:
    """Assemble MobilityVectors for every card in `records`.

    `exposures` supplies the direct-encounter counts: the number of direct
    co-presence episodes per card, so a pair meeting on separate trips
    counts once per episode.  Output is sorted by card id.
    """
    by_card: Dict[str, List[TripRecord]] = {}
    for rec in records:
        by_card.setdefault(rec.card_id, []).append(rec)
    encounters = exposures.direct_encounter_counts()
    out: List[MobilityVector] = []
    for card_id in sorted(by_card):
        profile = build_visit_profile(by_card[card_id])
        rg = radius_of_gyration(profile, model)
        rgk = k_radius_of_gyration(profile, k, model)
        out.append(
            MobilityVector(
                card_id=card_id,
                rg=rg,
                rgk=rgk,
                k_used=k,
                encounters=encounters.get(card_id, 0),
            )
        )
    return out


def write_mobility_csv(vectors: Iterable[MobilityVector], path) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["card_id", "rg_m", "rgk_m", "k", "encounters"])
        for v in vectors:
            writer.writerow([v.card_id, f"{v.rg:.6f}", f"{v.rgk:.6f}", v.k_used, v.encounters])
