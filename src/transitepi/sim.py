"""Traced S-I-R simulation over the exposure stream, many runs in lockstep.

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

Transmission requires the source, infected at t and recovered at t + P, to
be infectious in the exposure's interval [opens, closes]: closes >= t and
opens < t + P.  For a direct exposure that is the co-presence window, from
the later boarding to the earlier alighting, and the infection is stamped at
max(window start, t); for an indirect one it is the source's own ride, when
it deposits the pathogens, and the infection is stamped when the target
boards.

Because a passenger can become infectious midway through a window that
started earlier, exposures cannot be settled by a single chronological scan
of window starts.  A run instead settles candidate transmissions least first
by infection time, then by the exposure's key, its rank under (window start,
infector, infectee, vehicle, kind).  That settles every exposure under
exactly the rules above.

`run_lanes` runs many such runs at once over one exposure log.  A lane is
one (beta, run) pair; the lanes of one run share its seeds and its token.
The keyed draw is counter-based, so a lane draws a row's trial only when it
evaluates the row: the row transmits iff the draw's top 53 bits are below
ceil(beta * 2**53), which is exactly u < beta.  Each lane keeps one int64
cell per target: the code of its least pending candidate (the time's rank
times the log length plus the key; every infection time is the start time
or a window start, so ranking those orders times exactly), or a mark for
none pending or infected.  One step infects the argmin of every lane's
cells, evaluates the exposure slices of those cards in one batch of numpy
calls and lowers their targets' cells with `np.minimum.at`: one pending
candidate per (lane, target) changes no event, as a higher one could only
pop after the lower one infected it.  Lanes run in batches of whole runs
whose cells fit in `BATCH_BYTES`, so memory does not grow with the number
of runs or betas.

An infected passenger recovers exactly `infectious_period` seconds after
infection and is never re-infected.

A run's result, `SimOutcome`, holds its infections as columns: int32
infector, infectee and vehicle codes over the exposure log's card and
vehicle vocabularies, float64 times and a bool direct flag.  Its infected
set and attack rate follow from the seeds and the infectees; the state of
every passenger is derived only when asked for.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .contacts import DIRECT, INDIRECT, ExposureLog, build_exposure_log
from .ingest import TripTable

SUSCEPTIBLE = "S"
INFECTIOUS = "I"
RECOVERED = "R"

DEFAULT_SEEDS = 500
DEFAULT_INFECTIOUS_PERIOD_S = 5 * 86_400.0
DEFAULT_RUNS = 100
INFECTION_CSV_HEADER = ["infector", "infectee", "time", "vehicle_id", "kind"]

# memory the cells of one batch of lanes may hold: 8 bytes per (lane, card)
BATCH_BYTES = 32 << 20
_LANE_BYTES_PER_CARD = 8


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
        if not 0.0 <= self.d_t < np.inf:
            raise ValueError(f"d_t must be finite and >= 0, got {self.d_t}")
        if self.n_seeds < 1:
            raise ValueError(f"n_seeds must be >= 1, got {self.n_seeds}")
        if not 0.0 < self.infectious_period < np.inf:
            raise ValueError(f"infectious_period must be finite and > 0, got {self.infectious_period}")
        if self.n_runs < 1:
            raise ValueError(f"n_runs must be >= 1, got {self.n_runs}")
        if self.start_time is not None and self.end_time is not None:
            if self.end_time < self.start_time:
                raise ValueError("end_time before start_time")


@dataclass
class SimOutcome:
    """One run's traced infections as columns, in infection order.

    Event i: cards[infector[i]] infected cards[infectee[i]] at time[i] on
    vehicles[vehicle[i]], through a direct exposure iff direct[i].  The codes
    are int32 over vocabularies that the outcomes of one call share, as they
    share the population.  Seeds are infected at `start_time`; a passenger
    recovers `period` seconds after infection, and the run stops at `end_time`.
    """

    cards: List[str]
    vehicles: List[str]
    infector: np.ndarray
    infectee: np.ndarray
    vehicle: np.ndarray
    time: np.ndarray
    direct: np.ndarray
    seeds: Tuple[str, ...]
    per_run_seed: int
    population: List[str]
    start_time: float
    end_time: float
    period: float

    @property
    def infected_set(self) -> set:
        return set(self.seeds).union(self.cards[v] for v in self.infectee.tolist())

    @property
    def attack_rate(self) -> float:
        return (len(self.seeds) + self.infectee.size) / len(self.population)

    @property
    def final_state(self) -> Dict[str, str]:
        """Every passenger's state at `end_time`."""
        state = dict.fromkeys(self.population, SUSCEPTIBLE)
        infected = [(c, self.start_time) for c in self.seeds]
        infected += zip([self.cards[v] for v in self.infectee.tolist()], self.time.tolist())
        for card, t0 in infected:
            state[card] = RECOVERED if t0 + self.period <= self.end_time else INFECTIOUS
        return state


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
    k = _mix64(log.src.astype(np.uint64))
    k = _mix64(k ^ _mix64(log.tgt.astype(np.uint64) + np.uint64(0x5555_5555)))
    k = _mix64(k ^ _mix64(log.veh.astype(np.uint64) + np.uint64(0xAAAA_AAAA)))
    k = _mix64(k ^ log.start.view(np.uint64))
    return _mix64(k ^ log.end.view(np.uint64))


def _run_streams(master_seed: int, run_index: int) -> Tuple[np.random.Generator, np.uint64]:
    """Per-run RNG for seed selection plus a 64-bit token for keyed trials."""
    base = np.random.SeedSequence([master_seed, run_index])
    ss_pick, ss_token = base.spawn(2)
    rng = np.random.default_rng(ss_pick)
    token = np.uint64(ss_token.generate_state(2, dtype=np.uint64)[0])
    return rng, token


def _draw_bits(keys: np.ndarray, tokens) -> np.ndarray:
    """The 53-bit integer behind each keyed uniform: u is exactly bits * 2**-53."""
    return _mix64(keys ^ tokens) >> np.uint64(11)


def exposure_uniforms(log: ExposureLog, master_seed: int, run_index: int) -> np.ndarray:
    """One uniform in [0, 1) per exposure, keyed by exposure identity and run."""
    _, token = _run_streams(master_seed, run_index)
    return _draw_bits(_exposure_keys(log), token).astype(np.float64) * (2.0 ** -53)


class LaneTraces:
    """The infections of every lane of one `run_lanes` call.

    Lane (k, run) is the run at the k-th beta.  It holds its infections as
    two columns, the log rows that transmitted and the infection times;
    `outcomes(k)` reads the cards and vehicles of those rows' rides into the
    `SimOutcome`s of one beta.
    """

    def __init__(self, log: ExposureLog, start_time: float, end_time: float, period: float) -> None:
        self.log = log
        self.start_time = start_time
        self.end_time = end_time
        self.period = period
        self.seeds: Dict[int, Tuple[str, ...]] = {}
        self.events: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}

    def outcomes(self, k: int) -> List[SimOutcome]:
        """One outcome per run, in run order, for the k-th beta."""
        log = self.log
        out = []
        for run, seeds in self.seeds.items():
            rows, times = self.events[(k, run)]
            events = log.take(rows)
            out.append(SimOutcome(
                log.cards, log.vehicles, events.src, events.tgt, events.veh, times, events.direct,
                seeds, run, log.cards, self.start_time, self.end_time, self.period,
            ))
        return out


def run_lanes(
    trips: TripTable,
    config: SimConfig,
    betas: Sequence[float],
    runs: Sequence[int],
    exposures: Optional[ExposureLog] = None,
    progress=None,
) -> LaneTraces:
    """Run one lane per (beta, run) pair over the table's cards; a lane runs `config` with its beta.

    A lane's outcome depends only on (config, beta, run), not on which
    other lanes run with it.
    """
    for beta in betas:
        replace(config, beta=beta).validate()
    log = build_exposure_log(trips, config.d_t) if exposures is None else exposures
    if log.cards != trips.cards:
        raise ValueError("the exposure log's cards are not the trip table's")
    if log.d_t != config.d_t:
        raise ValueError(f"the exposure log is at d_t={log.d_t}, the config at d_t={config.d_t}")
    n = len(log.cards)
    if config.n_seeds > n:
        raise ValueError(f"n_seeds={config.n_seeds} exceeds population {n}")
    start_time = float(trips.board.min()) if config.start_time is None else config.start_time
    end_time = float(trips.alight.max()) + config.d_t if config.end_time is None else config.end_time

    traces = LaneTraces(log, start_time, end_time, config.infectious_period)
    keys = _exposure_keys(log)
    # u < beta iff bits < beta * 2**53, a product exact in float64, iff bits < its ceiling
    cuts = np.ceil(np.asarray(betas, np.float64) * 2.0 ** 53).astype(np.uint64)
    codes = _Codes(log, start_time, end_time)
    runs = list(runs)
    per_batch = max(1, BATCH_BYTES // max(1, len(betas) * len(log.cards) * _LANE_BYTES_PER_CARD))
    for first in range(0, len(runs), per_batch):
        batch = runs[first:first + per_batch]
        seeds, tokens = [], []
        for run in batch:
            rng, token = _run_streams(config.master_seed, run)
            # the population is the log's id-sorted card vocabulary
            seeds.append(np.sort(rng.choice(n, size=config.n_seeds, replace=False)))
            tokens.append(token)
            traces.seeds[run] = tuple(log.cards[j] for j in seeds[-1].tolist())
        lanes = _Lanes(codes, config.infectious_period, keys, np.array(tokens), cuts)
        for lane, code in enumerate(lanes.run(seeds)):
            traces.events[(lane % len(betas), batch[lane // len(betas)])] = code
        if progress is not None:
            progress(first + len(batch), len(runs))
    row_of_key = np.empty(len(log), np.int32)
    row_of_key[codes.key] = np.arange(len(log), dtype=np.int32)
    for lane, code in traces.events.items():
        traces.events[lane] = row_of_key.take(code % codes.n), codes.clock.take(code // codes.n)
    return traces


class _Codes:
    """The per-row columns that the lanes of one call read, and candidate codes.

    A code is its time's rank (`clock[rank]` is the time) times the log
    length, plus its row's key.  The log stores rows by (infector, start,
    infectee, vehicle, kind), so one stable sort by start gives each row's
    rank under (start, infector, ...).  Source u's rows are bounds[u]:bounds[u + 1].
    """

    def __init__(self, log: ExposureLog, start_time: float, end_time: float) -> None:
        n = self.n = len(log)
        if n > np.iinfo(np.int32).max:  # which also keeps (time rank + 1) * rows within int64
            raise ValueError(f"{n} exposures exceed the simulator's int32 keys")
        start = log.start
        order = np.argsort(start, kind="stable")
        self.key = np.empty(n, np.int32)
        self.key[order] = np.arange(n, dtype=np.int32)
        at = int(np.count_nonzero(start < start_time))
        starts = np.insert(start.take(order), at, start_time)  # every time an infection can have
        del order, start
        new = np.concatenate(([True], starts[1:] != starts[:-1]))
        self.clock = starts[new]
        rank = np.cumsum(new, dtype=np.int32) - 1
        self.start_rank = int(rank[at])
        self.last_rank = int(np.searchsorted(self.clock, end_time, "right")) - 1
        self.time_rank = np.delete(rank, at).take(self.key)
        del starts, new, rank
        self.bounds = np.searchsorted(log.src, np.arange(len(log.cards) + 1))
        self.tgt = log.tgt
        # direct: the later boarding to the earlier alighting; indirect: the source's ride
        self.opens = log.trips.board.take(log.src_ride)
        np.maximum(self.opens, log.trips.board.take(log.tgt_ride), out=self.opens, where=log.direct)
        self.closes = log.trips.alight.take(log.src_ride)
        np.minimum(log.trips.alight.take(log.tgt_ride), self.closes, out=self.closes, where=log.direct)


# a lane's cell holds its target's least pending code, or one of these
_NONE = np.iinfo(np.int64).max - 1
_INFECTED = np.iinfo(np.int64).max


class _Lanes:
    """One batch of lanes in lockstep: lane i * n_betas + k is the batch's run i at beta k."""

    def __init__(self, codes: _Codes, period: float, keys: np.ndarray, tokens: np.ndarray, cuts: np.ndarray) -> None:
        self.codes = codes
        self.period = period
        self.keys = keys
        self.tokens = np.repeat(tokens, cuts.size)  # lane i * n_betas + k: run i's token
        self.cuts = np.tile(cuts, tokens.size)  # and beta k's cut
        self.n_cards = codes.bounds.size - 1
        self.n_lanes = self.cuts.size
        self.best = np.full(self.n_lanes * self.n_cards, _NONE, np.int64)

    def push(self, lanes: np.ndarray, cards: np.ndarray, time_ranks: np.ndarray) -> None:
        """Push the candidates of cards[i], infectious from int64 time rank time_ranks[i] in lane lanes[i]."""
        codes = self.codes
        lo = codes.bounds.take(cards)
        counts = codes.bounds.take(cards + 1) - lo
        entry = np.repeat(np.arange(cards.size), counts)
        rows = np.arange(entry.size) + (lo - (np.cumsum(counts) - counts)).take(entry)
        t_u = codes.clock.take(time_ranks).take(entry)
        feasible = np.flatnonzero((codes.closes.take(rows) >= t_u) & (codes.opens.take(rows) < t_u + self.period))
        rows, entry = rows.take(feasible), entry.take(feasible)
        # each lane's Bernoulli(beta) trial, drawn only for the rows it can transmit through
        lane = lanes.take(entry)
        hit = np.flatnonzero(_draw_bits(self.keys.take(rows), self.tokens.take(lane)) < self.cuts.take(lane))
        rows, entry, lane = rows.take(hit), entry.take(hit), lane.take(hit)
        t_star = np.maximum(codes.time_rank.take(rows), time_ranks.take(entry))
        cell = lane * self.n_cards + codes.tgt.take(rows)
        keep = np.flatnonzero((t_star <= codes.last_rank) & (self.best.take(cell) != _INFECTED))
        code = t_star.take(keep) * codes.n + codes.key.take(rows.take(keep))
        np.minimum.at(self.best, cell.take(keep), code)

    def run(self, seeds: List[np.ndarray]) -> List[np.ndarray]:
        """Infect each run's seeds at the start time, advance every lane to its end, return its infection codes."""
        best, n_cards = self.best, self.n_cards
        n_betas = self.n_lanes // len(seeds)
        for lane in range(self.n_lanes):
            pos = seeds[lane // n_betas]
            best[lane * n_cards + pos] = _INFECTED
            self.push(np.full(pos.size, lane), pos, np.full(pos.size, self.codes.start_rank))
        cells = best.reshape(self.n_lanes, n_cards)
        popped = [(np.empty(0, np.int64),) * 2]  # (lanes, codes) of each step
        while n_cards:
            # one step: every lane infects the target of its least pending code
            cards = cells.argmin(axis=1)
            code = cells[np.arange(self.n_lanes), cards]
            lanes = np.flatnonzero(code < _NONE)
            if not lanes.size:
                break
            cards, code = cards.take(lanes), code.take(lanes)
            best[lanes * n_cards + cards] = _INFECTED
            popped.append((lanes, code))
            self.push(lanes, cards, code // self.codes.n)
        lanes, code = map(np.concatenate, zip(*popped))
        split = np.cumsum(np.bincount(lanes, minlength=self.n_lanes))[:-1]
        return np.split(code.take(np.argsort(lanes, kind="stable")), split)


def run_sir(
    trips: TripTable,
    config: SimConfig,
    run_index: int,
    exposures: Optional[ExposureLog] = None,
) -> SimOutcome:
    """Execute one traced S-I-R run, the one-lane case of `run_lanes`."""
    lanes = run_lanes(trips, config, (config.beta,), (run_index,), exposures)
    return lanes.outcomes(0)[0]


def run_ensemble(
    trips: TripTable,
    config: SimConfig,
    exposures: Optional[ExposureLog] = None,
    progress=None,
) -> List[SimOutcome]:
    """Run n_runs independent runs; per-run streams derive from the master seed."""
    lanes = run_lanes(trips, config, (config.beta,), range(config.n_runs), exposures, progress)
    return lanes.outcomes(0)


def write_infection_csv(outcome: SimOutcome, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(INFECTION_CSV_HEADER)
        cards, vehicles = outcome.cards, outcome.vehicles
        writer.writerows(
            [cards[u], cards[v], repr(t), vehicles[w], DIRECT if d else INDIRECT]
            for u, v, t, w, d in zip(
                outcome.infector.tolist(), outcome.infectee.tolist(), outcome.time.tolist(),
                outcome.vehicle.tolist(), outcome.direct.tolist(),
            )
        )
