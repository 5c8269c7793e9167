"""Traced S-I-R simulation over the exposure stream.

Seeds are drawn uniformly without replacement and are infectious from the
simulation start.  Transmission through an exposure is decided by a single
Bernoulli(beta) trial whose uniform draw is keyed by the exposure identity
(source, target, vehicle, window) and the run, not by evaluation order.
Keyed draws make runs reproducible and couple the betas of one run: the
trial is `u < beta` on the same u, so an exposure that transmits at some
beta also transmits at every higher beta whenever its source is infectious
then.  Infected sets need not nest across beta (or d_t): an earlier
infection also recovers earlier, so it can miss a later exposure through
which the lower-beta run passed the infection on.

Transmission requires the source to be infectious at the right moment:

  * direct exposure: infectious at some point of the co-presence window;
    the infection is stamped at max(window start, source infection time);
  * indirect exposure: infectious at some point of its own presence on the
    vehicle (pathogen deposition time); the infection is stamped when the
    target boards.

Because a passenger can become infectious midway through a window that
started earlier, exposures cannot be settled by a single chronological scan
of window starts.  The run instead propagates earliest infection times with
a priority queue (candidate transmissions ordered by infection time, window
start, infector id, infectee id), which settles every exposure under exactly
the rules above.

An infected passenger recovers exactly `infectious_period` seconds after
infection and is never re-infected.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .contacts import DIRECT, INDIRECT, ExposureLog, build_exposure_log
from .ingest import TripRecord

SUSCEPTIBLE = "S"
INFECTIOUS = "I"
RECOVERED = "R"

DEFAULT_SEEDS = 500
DEFAULT_INFECTIOUS_PERIOD_S = 5 * 86_400.0
DEFAULT_RUNS = 100
INFECTION_CSV_HEADER = ["infector", "infectee", "time", "vehicle_id", "kind"]


@dataclass
class SimConfig:
    beta: float
    d_t: float = 0.0
    n_seeds: int = DEFAULT_SEEDS
    infectious_period: float = DEFAULT_INFECTIOUS_PERIOD_S
    n_runs: int = DEFAULT_RUNS
    master_seed: int = 0
    start_time: Optional[float] = None
    end_time: Optional[float] = None

    def validate(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.d_t < 0:
            raise ValueError(f"d_t must be >= 0, got {self.d_t}")
        if self.n_seeds < 1:
            raise ValueError(f"n_seeds must be >= 1, got {self.n_seeds}")
        if self.infectious_period <= 0:
            raise ValueError(f"infectious_period must be > 0, got {self.infectious_period}")
        if self.n_runs < 1:
            raise ValueError(f"n_runs must be >= 1, got {self.n_runs}")
        if self.start_time is not None and self.end_time is not None:
            if self.end_time < self.start_time:
                raise ValueError("end_time before start_time")

    @classmethod
    def from_dict(cls, data: Dict) -> "SimConfig":
        cfg = cls(**data)
        cfg.validate()
        return cfg


@dataclass(frozen=True)
class InfectionEvent:
    infector: str
    infectee: str
    time: float
    vehicle_id: str
    kind: str  # direct | indirect


@dataclass
class SimOutcome:
    infection_events: List[InfectionEvent]
    final_state: Dict[str, str]
    per_run_seed: int
    seeds: Tuple[str, ...] = ()

    @property
    def infected_set(self) -> set:
        return {c for c, s in self.final_state.items() if s != SUSCEPTIBLE}

    @property
    def attack_rate(self) -> float:
        return len(self.infected_set) / len(self.final_state)


# splitmix64 constants for the keyed Bernoulli stream
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    z = (x + _SM_GAMMA).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _SM_M1
    z = (z ^ (z >> np.uint64(27))) * _SM_M2
    return z ^ (z >> np.uint64(31))


def _exposure_keys(log: ExposureLog) -> np.ndarray:
    """64-bit identity key per exposure from (source, target, vehicle, window)."""
    cached = getattr(log, "_identity_keys", None)
    if cached is not None:
        return cached
    k = _mix64(log.src.astype(np.uint64))
    k = _mix64(k ^ _mix64(log.tgt.astype(np.uint64) + np.uint64(0x5555_5555)))
    k = _mix64(k ^ _mix64(log.veh.astype(np.uint64) + np.uint64(0xAAAA_AAAA)))
    k = _mix64(k ^ log.start.view(np.uint64))
    k = _mix64(k ^ log.end.view(np.uint64))
    log._identity_keys = k
    return k


def _run_streams(master_seed: int, run_index: int) -> Tuple[np.random.Generator, np.uint64]:
    """Per-run RNG for seed selection plus a 64-bit token for keyed trials."""
    base = np.random.SeedSequence([master_seed, run_index])
    ss_pick, ss_token = base.spawn(2)
    rng = np.random.default_rng(ss_pick)
    token = np.uint64(ss_token.generate_state(2, dtype=np.uint64)[0])
    return rng, token


def exposure_uniforms(log: ExposureLog, master_seed: int, run_index: int) -> np.ndarray:
    """One uniform in [0, 1) per exposure, keyed by exposure identity and run."""
    _, token = _run_streams(master_seed, run_index)
    mixed = _mix64(_exposure_keys(log) ^ token)
    return (mixed >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def run_sir(
    trips: Sequence[TripRecord],
    config: SimConfig,
    run_index: int,
    exposures: Optional[ExposureLog] = None,
    population: Optional[Sequence[str]] = None,
) -> SimOutcome:
    """Execute one traced S-I-R run; deterministic given (master_seed, run_index)."""
    config.validate()
    if exposures is None:
        exposures = build_exposure_log(trips, config.d_t)
    if population is None:
        population = exposures.cards if trips is None else sorted({r.card_id for r in trips})
    population = sorted(population)
    n = len(population)
    if config.n_seeds > n:
        raise ValueError(f"n_seeds={config.n_seeds} exceeds population {n}")
    extra = set(exposures.cards) - set(population)
    if extra:
        raise ValueError(
            f"exposure log covers {len(extra)} card(s) outside the population, e.g. {sorted(extra)[:3]}"
        )

    card_pos = {c: i for i, c in enumerate(exposures.cards)}
    start_time = config.start_time
    if start_time is None:
        start_time = min((r.board_time for r in trips), default=0.0) if trips else (
            float(exposures.src_enter.min()) if len(exposures) else 0.0
        )
    end_time = config.end_time
    if end_time is None:
        if trips:
            end_time = max(r.alight_time for r in trips) + config.d_t
        elif len(exposures):
            end_time = float(exposures.end.max())
        else:
            end_time = start_time

    rng, _ = _run_streams(config.master_seed, run_index)
    seed_idx = rng.choice(n, size=config.n_seeds, replace=False)
    seeds = tuple(sorted(population[i] for i in seed_idx))

    uvals = exposure_uniforms(log=exposures, master_seed=config.master_seed, run_index=run_index)
    e_ok = uvals < config.beta

    # the log is stored grouped by source, so u's exposures are bounds[u]:bounds[u + 1]
    n_log_cards = len(exposures.cards)
    bounds = np.searchsorted(exposures.src, np.arange(n_log_cards + 1))
    e_tgt = exposures.tgt
    e_veh = exposures.veh
    e_start = exposures.start
    e_end = exposures.end
    e_dep_a = exposures.src_enter
    e_dep_b = exposures.src_exit
    e_direct = exposures.direct

    period = config.infectious_period
    inf_time = np.full(n_log_cards, np.inf)
    best_time = np.full(n_log_cards, np.inf)

    heap: List[Tuple[float, float, int, int, int, bool]] = []
    events: List[InfectionEvent] = []
    n_susceptible = n - len(seeds)

    def push_candidates(u: int, t_u: float) -> None:
        lo, hi = bounds[u], bounds[u + 1]
        if lo == hi:
            return
        direct = e_direct[lo:hi]
        s = e_start[lo:hi]
        r_u = t_u + period
        feasible = e_ok[lo:hi] & (
            (direct & (e_end[lo:hi] >= t_u) & (s < r_u))
            | (~direct & (e_dep_b[lo:hi] >= t_u) & (e_dep_a[lo:hi] < r_u))
        )
        if not feasible.any():
            return
        idx = np.nonzero(feasible)[0]
        t_star = np.maximum(s[idx], t_u)
        targets = e_tgt[lo:hi][idx]
        keep = (
            (t_star <= end_time)
            & ~np.isfinite(inf_time[targets])
            & (t_star <= best_time[targets])
        )
        if not keep.any():
            return
        idx = idx[keep]
        t_star = t_star[keep]
        targets = targets[keep]
        starts = s[idx]
        vehs = e_veh[lo:hi][idx]
        directs = direct[idx]
        for t, s0, tgt, veh, is_direct in zip(t_star, starts, targets, vehs, directs):
            tgt = int(tgt)
            if t < best_time[tgt]:
                best_time[tgt] = t
            heapq.heappush(heap, (float(t), float(s0), u, tgt, int(veh), bool(is_direct)))

    for card in seeds:
        pos = card_pos.get(card)
        if pos is None:
            continue  # seed with no exposures at all
        inf_time[pos] = start_time
    for card in seeds:
        pos = card_pos.get(card)
        if pos is not None:
            push_candidates(pos, start_time)

    while heap and n_susceptible > 0:
        t, _, u, v, veh, direct = heapq.heappop(heap)
        if np.isfinite(inf_time[v]):
            continue
        inf_time[v] = t
        n_susceptible -= 1
        events.append(
            InfectionEvent(
                infector=exposures.cards[u],
                infectee=exposures.cards[v],
                time=t,
                vehicle_id=exposures.vehicles[veh],
                kind=DIRECT if direct else INDIRECT,
            )
        )
        push_candidates(v, t)

    seed_set = set(seeds)
    final_state: Dict[str, str] = {}
    for card in population:
        pos = card_pos.get(card)
        if card in seed_set:
            t0 = start_time
        elif pos is not None and np.isfinite(inf_time[pos]):
            t0 = float(inf_time[pos])
        else:
            final_state[card] = SUSCEPTIBLE
            continue
        final_state[card] = RECOVERED if t0 + period <= end_time else INFECTIOUS
    return SimOutcome(
        infection_events=events,
        final_state=final_state,
        per_run_seed=run_index,
        seeds=seeds,
    )


@dataclass
class EnsembleResult:
    outcomes: List[SimOutcome]
    mean_infections: float
    mean_attack_rate: float

    def summary(self) -> Dict:
        return {
            "n_runs": len(self.outcomes),
            "mean_infections": self.mean_infections,
            "mean_attack_rate": self.mean_attack_rate,
            "per_run_infections": [len(o.infection_events) for o in self.outcomes],
        }


def run_ensemble(
    trips: Sequence[TripRecord],
    config: SimConfig,
    exposures: Optional[ExposureLog] = None,
    population: Optional[Sequence[str]] = None,
    progress=None,
) -> EnsembleResult:
    """Run n_runs independent runs; per-run streams derive from the master seed."""
    config.validate()
    if exposures is None:
        exposures = build_exposure_log(trips, config.d_t)
    if population is None:
        population = sorted({r.card_id for r in trips}) if trips else list(exposures.cards)
    outcomes = []
    for run_index in range(config.n_runs):
        outcomes.append(
            run_sir(trips, config, run_index, exposures=exposures, population=population)
        )
        if progress is not None:
            progress(run_index + 1, config.n_runs)
    mean_inf = float(np.mean([len(o.infection_events) for o in outcomes]))
    mean_ar = float(np.mean([o.attack_rate for o in outcomes]))
    return EnsembleResult(outcomes=outcomes, mean_infections=mean_inf, mean_attack_rate=mean_ar)


def write_infection_csv(outcome: SimOutcome, path) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(INFECTION_CSV_HEADER)
        for e in outcome.infection_events:
            writer.writerow([e.infector, e.infectee, repr(e.time), e.vehicle_id, e.kind])
