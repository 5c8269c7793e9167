"""Traced S-I-R simulation over the exposure stream, many runs in lockstep.

Every draw is splitmix64 (`_mix64`) of a key xor the run's token, itself
splitmix of the master seed and the run.  A run's seeds, infectious from the
start, are the `n_seeds` cards of least draw: a uniform sample without
replacement.  Transmission through an exposure is one Bernoulli(beta) trial
whose uniform draw is keyed by its ordered pair of rides (card, vehicle,
boarding, alighting), the same at every d_t, not by evaluation order.  Keyed
draws make runs reproducible and couple the betas of one run: the trial is
`u < beta` on the same u, so an exposure that transmits at some beta also
transmits at every higher beta whenever its source is infectious then.
Infected sets need not nest across beta (or d_t): an earlier infection also
recovers earlier, so it can miss a later exposure through which the
lower-beta run passed the infection on.

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
ceil(beta * 2**53), which is exactly u < beta.  The engine keeps time as
ranks on contacts' clock of the rides' boardings and the start time,
duplicates kept, a time's rank being the index of its last copy: every
infection time is the start time or a window start, which is a boarding, so
the ranks order times exactly and decode to the same floats, and a window's
bounds become the ranks between which its source must be infected.
Each lane keeps one int64 cell per target: the code of its least pending
candidate (the time's rank times the log length plus the key), int64 max
for none pending, or -1 once infected.  Read signed, -1 is below every code,
so `np.minimum.at` never raises an infected cell; read unsigned, it is above
every code and int64 max, so the step never pops one.  One step infects the
argmin of every lane's cells read unsigned, evaluates the exposure slices of
those cards in one batch of numpy calls and lowers their targets' cells with
`np.minimum.at`: one pending candidate per (lane, target) changes no event,
as a higher one could only pop after the lower one infected it.  Lanes run
in batches of whole runs whose cells and infection record fit in
`BATCH_BYTES`, so memory does not grow with the number of runs or betas.

An infected passenger recovers exactly `infectious_period` seconds after
infection and is never re-infected.

A run's result, `SimOutcome`, holds its infections as columns: int32
infector, infectee and vehicle codes over the exposure log's card and
vehicle vocabularies, float64 times and a bool direct flag.  Its infected
set and attack rate follow from the seeds and the infectees; the state of
every passenger is derived only when asked for.  `write_infection_csv`
stores one run's infections as a CSV log, and `read_infection_csv` reads
such a log back for the group tallies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .artifacts import first_rows, raise_first_failure, read_csv, write_csv
from .contacts import DIRECT, INDIRECT, ExposureLog, _time_ranks, build_exposure_log
from .ingest import TripTable, _floats, _vocabulary

DEFAULT_SEEDS = 500
DEFAULT_INFECTIOUS_PERIOD_S = 5 * 86_400.0
DEFAULT_RUNS = 100
INFECTION_CSV_HEADER = ["infector", "infectee", "time", "vehicle_id", "kind"]

# memory one batch of lanes may hold: 16 bytes per (lane, card), its cell and its infection record
BATCH_BYTES = 64 << 20
_LANE_BYTES_PER_CARD = 16


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
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError(f"master_seed must be in [0, 2**64), got {self.master_seed}")
        for name, value in (("start_time", self.start_time), ("end_time", self.end_time)):
            if value is not None and not -np.inf < value < np.inf:
                raise ValueError(f"{name} must be finite, got {value}")
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


# splitmix64 constants for every keyed draw
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    z = x + _SM_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _SM_M1
    z = (z ^ (z >> np.uint64(27))) * _SM_M2
    return z ^ (z >> np.uint64(31))


def _exposure_keys(log: ExposureLog) -> np.ndarray:
    """64-bit key per exposure from its ordered pair of rides, the same at every d_t."""
    trips = log.trips
    ride = _mix64(trips.board.view(np.uint64) ^ _mix64(trips.alight.view(np.uint64)))
    ride = _mix64(trips.card.astype(np.uint64) ^ _mix64(trips.vehicle.astype(np.uint64) ^ ride))
    # one gather and one mix at a time: the row-long temporaries are the peak
    keys = _mix64(ride[log.tgt_ride])
    keys ^= ride[log.src_ride]
    return _mix64(keys)


def _run_token(master_seed: int, run: int) -> np.ndarray:
    """A run's 64-bit token, as a one-element array: numpy warns when a uint64 scalar wraps."""
    return _mix64(_mix64(np.array([master_seed], np.uint64)) ^ np.uint64(run))


def _draw_bits(keys: np.ndarray, tokens) -> np.ndarray:
    """The 53-bit integer behind each keyed uniform: u is exactly bits * 2**-53."""
    return _mix64(keys ^ tokens) >> np.uint64(11)


def exposure_uniforms(log: ExposureLog, master_seed: int, run_index: int) -> np.ndarray:
    """One uniform in [0, 1) per exposure, keyed by its pair of rides and the run."""
    return _draw_bits(_exposure_keys(log), _run_token(master_seed, run_index)).astype(np.float64) * (2.0 ** -53)


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
                log.trips.cards, log.trips.vehicles, events.src, events.tgt, events.veh, times, events.direct,
                seeds, run, log.trips.cards, self.start_time, self.end_time, self.period,
            ))
        return out


def run_lanes(
    trips: TripTable,
    config: SimConfig,
    betas: Sequence[float],
    runs: Sequence[int],
    exposures: Optional[ExposureLog] = None,
) -> LaneTraces:
    """Run one lane per (beta, run) pair over the table's cards; a lane runs `config` with its beta.

    A lane's outcome depends only on (config, beta, run), not on which
    other lanes run with it.
    """
    for beta in betas:
        replace(config, beta=beta).validate()
    log = build_exposure_log(trips, config.d_t) if exposures is None else exposures
    if log.trips.cards != trips.cards:
        raise ValueError("the exposure log's cards are not the trip table's")
    if log.d_t != config.d_t:
        raise ValueError(f"the exposure log is at d_t={log.d_t}, the config at d_t={config.d_t}")
    n = len(trips.cards)
    if config.n_seeds > n:
        raise ValueError(f"n_seeds={config.n_seeds} exceeds population {n}")
    start_time = float(trips.board.min()) if config.start_time is None else config.start_time
    end_time = float(trips.alight.max()) + config.d_t if config.end_time is None else config.end_time

    traces = LaneTraces(log, start_time, end_time, config.infectious_period)
    keys = _exposure_keys(log)
    # u < beta iff bits < beta * 2**53, a product exact in float64, iff bits < its ceiling
    cuts = np.ceil(np.asarray(betas, np.float64) * 2.0 ** 53).astype(np.uint64)
    codes = _Codes(log, start_time, end_time, config.infectious_period)
    runs = list(runs)
    per_batch = max(1, BATCH_BYTES // max(1, len(betas) * n * _LANE_BYTES_PER_CARD))
    for first in range(0, len(runs), per_batch):
        batch = runs[first:first + per_batch]
        tokens = np.concatenate([_run_token(config.master_seed, run) for run in batch])
        # a run's seeds are the card codes of least draw, over the table's id-sorted card vocabulary
        draws = [_mix64(np.arange(n, dtype=np.uint64) ^ ~token) for token in tokens]
        seeds = [np.sort(np.argpartition(d, config.n_seeds - 1)[:config.n_seeds]) for d in draws]
        for run, pos in zip(batch, seeds):
            traces.seeds[run] = tuple(trips.cards[j] for j in pos.tolist())
        for lane, code in enumerate(_Lanes(codes, keys, tokens, cuts).run(seeds)):
            traces.events[(lane % len(betas), batch[lane // len(betas)])] = code
    del keys  # every draw is made: the decode below can reuse its 8 bytes a row
    row_of_key = np.empty(len(log), np.int32)
    row_of_key[codes.key] = np.arange(len(log), dtype=np.int32)
    for lane, code in traces.events.items():
        traces.events[lane] = row_of_key.take(code % codes.n), codes.clock.take(code // codes.n)
    return traces


class _Codes:
    """The per-row columns that the lanes of one call read, and candidate codes.

    Times are ranks in `clock`, contacts' clock of the rides' boardings and
    the start time, every time an infection can have; a time's rank is the
    index of its last copy, so equal times share one.  A code is its time's
    rank times the log length, plus its row's key, the row's rank under
    (start, infector, infectee, vehicle, kind); rows are stored by infector
    first, so that is their rank under (start rank, stored position).  A
    source infected at rank r can transmit through a row iff open_rank <= r
    < close_rank: opens < clock[r] + period and clock[r] <= closes for its
    window [opens, closes], and no code is stamped after the end.  Source
    u's rows are bounds[u]:bounds[u + 1].
    """

    def __init__(self, log: ExposureLog, start_time: float, end_time: float, period: float) -> None:
        n = self.n = len(log)
        trips = log.trips
        self.clock, board, closes = _time_ranks(trips, start_time)
        # int32 ranks and keys, and codes below 2**62, which keeps every code under _NONE
        if max(n, self.clock.size) > np.iinfo(np.int32).max or self.clock.size * n >= 2 ** 62:
            raise ValueError(f"{n} exposures over {self.clock.size} times exceed the simulator's codes")
        self.start_rank = int(np.searchsorted(self.clock, start_time, "right")) - 1
        self.last_rank = int(np.searchsorted(self.clock, end_time, "right")) - 1
        src, tgt, direct = log.src_ride, log.tgt_ride, log.direct
        # a rank is monotone in its time: a row's is the max or min of its two rides'
        board -= 1  # the index of each boarding's last copy
        self.time_rank = np.maximum(board.take(src), board.take(tgt))
        # direct: the later boarding to the earlier alighting; indirect: the source's ride
        opens = np.searchsorted(self.clock + period, trips.board, "right").astype(np.int32)
        self.open_rank = opens.take(src)
        np.maximum(self.open_rank, opens.take(tgt), out=self.open_rank, where=direct)
        self.close_rank = closes.take(src)
        np.minimum(self.close_rank, closes.take(tgt), out=self.close_rank, where=direct)
        # rows that start after the end never open; a seed infected after the end (which run_lanes'
        # defaults allow) finds every row starting after the end or closing before the start
        self.close_rank[self.time_rank > self.last_rank] = 0
        order = np.multiply(self.time_rank, n, dtype=np.int64)
        order += np.arange(n, dtype=np.int32)
        order.sort()
        order %= n  # the stored position of each row, in key order
        self.key = np.empty(n, np.int32)
        self.key[order] = np.arange(n, dtype=np.int32)
        del order
        self.bounds = np.searchsorted(log.src, np.arange(len(trips.cards) + 1))
        self.tgt = log.tgt


# a lane's cell holds its target's least pending code, or one of these: -1 is below every
# code read signed, and above every code and _NONE read unsigned (2**64 - 1)
_NONE = np.iinfo(np.int64).max
_INFECTED = -1


class _Lanes:
    """One batch of lanes in lockstep: lane i * n_betas + k is the batch's run i at beta k."""

    def __init__(self, codes: _Codes, keys: np.ndarray, tokens: np.ndarray, cuts: np.ndarray) -> None:
        self.codes = codes
        self.keys = keys
        self.tokens = np.repeat(tokens, cuts.size)  # lane i * n_betas + k: run i's token
        self.cuts = np.tile(cuts, tokens.size)  # and beta k's cut
        self.n_cards = codes.bounds.size - 1
        self.n_lanes = self.cuts.size
        self.best = np.full(self.n_lanes * self.n_cards, _NONE, np.int64)
        self.record = np.empty((self.n_lanes, self.n_cards), np.int64)

    def push(self, lanes: np.ndarray, cards: np.ndarray, time_ranks: np.ndarray) -> None:
        """Push the candidates of cards[i], infectious from int64 time rank time_ranks[i] in lane lanes[i]."""
        codes = self.codes
        lo = codes.bounds.take(cards)
        counts = codes.bounds.take(cards + 1) - lo
        entry = np.arange(cards.size).repeat(counts)
        rows = np.arange(entry.size) + (lo - (counts.cumsum() - counts)).take(entry)
        r = time_ranks.take(entry)
        feasible = ((codes.open_rank.take(rows) <= r) & (r < codes.close_rank.take(rows))).nonzero()[0]
        rows, r, lane = rows.take(feasible), r.take(feasible), lanes.take(entry.take(feasible))
        # each lane's Bernoulli(beta) trial, drawn only for the rows it can transmit through
        hit = (_draw_bits(self.keys.take(rows), self.tokens.take(lane)) < self.cuts.take(lane)).nonzero()[0]
        rows, r, lane = rows.take(hit), r.take(hit), lane.take(hit)
        # an infected target's cell, -1, stays below any code
        code = np.maximum(codes.time_rank.take(rows), r) * codes.n + codes.key.take(rows)
        np.minimum.at(self.best, lane * self.n_cards + codes.tgt.take(rows), code)

    def run(self, seeds: List[np.ndarray]) -> List[np.ndarray]:
        """Infect each run's seeds at the start time, advance every lane to its end, return its infection codes."""
        best, n_cards, codes = self.best, self.n_cards, self.codes
        n_betas = self.n_lanes // len(seeds)
        for lane in range(self.n_lanes):
            pos = seeds[lane // n_betas]
            best[lane * n_cards + pos] = _INFECTED
            self.push(np.full(pos.size, lane), pos, np.full(pos.size, codes.start_rank))
        cells = best.reshape(self.n_lanes, n_cards).view(np.uint64)
        # lane i's infection codes in pop order are record[i, :filled[i]]
        record, filled = self.record, np.zeros(self.n_lanes, np.int64)
        while n_cards:
            # one step: every lane infects the target of its least pending code
            cards = cells.argmin(axis=1)
            code = cells[np.arange(self.n_lanes), cards]
            lanes = (code < np.uint64(_NONE)).nonzero()[0]
            if not lanes.size:
                break
            cards, code = cards.take(lanes), code.take(lanes).view(np.int64)
            best[lanes * n_cards + cards] = _INFECTED
            record[lanes, filled.take(lanes)] = code
            filled[lanes] += 1
            self.push(lanes, cards, code // codes.n)
        return [record[lane, :count] for lane, count in enumerate(filled.tolist())]


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
) -> List[SimOutcome]:
    """Run n_runs independent runs; per-run streams derive from the master seed."""
    lanes = run_lanes(trips, config, (config.beta,), range(config.n_runs), exposures)
    return lanes.outcomes(0)


def write_infection_csv(outcome: SimOutcome, path) -> None:
    cards, vehicles = outcome.cards, outcome.vehicles
    write_csv(path, INFECTION_CSV_HEADER, (
        [cards[u], cards[v], repr(t), vehicles[w], DIRECT if d else INDIRECT]
        for u, v, t, w, d in zip(
            outcome.infector.tolist(), outcome.infectee.tolist(), outcome.time.tolist(),
            outcome.vehicle.tolist(), outcome.direct.tolist(),
        )
    ))


def read_infection_csv(path) -> SimOutcome:
    """One run's infections as `write_infection_csv` stored them; a malformed log is a data error.

    The error names the first bad line and what is wrong with it: a wrong
    header or field count, a time that is not a finite number, an unknown
    kind, a card that infects itself or a card infected a second time.  The
    log records no seeds, population or clock, so the outcome serves the
    group tallies only.
    """
    (infectors, infectees, time_texts, vehicle_ids, kinds), fields, lines = read_csv(path, INFECTION_CSV_HEADER)
    n, width = len(lines), len(INFECTION_CSV_HEADER)
    cards, card_codes = _vocabulary(infectors + infectees)
    infector, infectee = card_codes[:n], card_codes[n:]
    vehicles, vehicle = _vocabulary(vehicle_ids)
    time = _floats(np.array(time_texts, object))
    kind = np.array(kinds, object)
    direct = kind == DIRECT
    first = first_rows(infectee)
    raise_first_failure(path, lines, [
        (fields != width, lambda i: f"expected {width} fields, got {fields[i]}"),
        (~np.isfinite(time), lambda i: f"time {time_texts[i]!r} is not a finite number"),
        (~direct & (kind != INDIRECT), lambda i: f"kind {kinds[i]!r} is neither {DIRECT} nor {INDIRECT}"),
        (infector == infectee, lambda i: f"card {infectees[i]!r} infects itself"),
        (first != np.arange(n), lambda i: f"card {infectees[i]!r} is infected again, first at line {lines[first[i]]}"),
    ])
    return SimOutcome(
        cards, vehicles, infector, infectee, vehicle, time, direct,
        seeds=(), per_run_seed=-1, population=[], start_time=math.nan, end_time=math.nan, period=math.nan,
    )
