from __future__ import annotations

import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import table, trip
from oracles import log_events, outcome_events, reachable_infections, sir_reference
from transitepi import sim
from transitepi.contacts import build_exposure_log
from transitepi.sim import (
    RECOVERED,
    SUSCEPTIBLE,
    SimConfig,
    run_ensemble,
    run_lanes,
    run_sir,
)

DAY = 86_400.0
BETA_GRID = (0.05, 0.1, 0.15, 0.25, 0.5, 0.75, 1.0)


def config(beta=1.0, d_t=0.0, n_seeds=1, period=5 * DAY, runs=1, master_seed=0, start=0.0, end=None):
    return SimConfig(
        beta=beta,
        d_t=d_t,
        n_seeds=n_seeds,
        infectious_period=period,
        n_runs=runs,
        master_seed=master_seed,
        start_time=start,
        end_time=end,
    )


def random_instance(seed: int, n_cards=10, n_vehicles=3, n_trips=40, span=6 * 3600.0):
    """Random trips inside one short window (shorter than the infectious period)."""
    rnd = random.Random(seed)
    records = []
    for _ in range(n_trips):
        start = rnd.uniform(0, span)
        records.append(
            trip(
                f"c{rnd.randint(0, n_cards - 1)}",
                f"v{rnd.randint(0, n_vehicles - 1)}",
                start,
                start + rnd.uniform(60, 1800),
            )
        )
    return records


def oracle_infected(records, d_t, seeds, period=5 * DAY, start=0.0, end=None):
    log = build_exposure_log(table(records), d_t)
    exposures = [
        (e.source, e.target, e.exposure_start, e.exposure_end, e.kind, e.source_enter, e.source_exit)
        for e in log_events(log)
    ]
    if end is None:
        end = max(r.alight_time for r in records) + d_t
    return set(reachable_infections(exposures, seeds, start, period, end))


class TestSingleRun:
    def test_beta_zero_keeps_only_seeds(self):
        records = random_instance(0)
        cfg = config(beta=0.0, n_seeds=3)
        out = run_sir(table(records), cfg, 0)
        assert out.infected_set == set(out.seeds)
        assert len(outcome_events(out)) == 0

    def test_chain_infection_tree(self):
        records = [
            trip("A", "v", 0, 10),
            trip("B", "v", 5, 15),
            trip("C", "v", 12, 20),
        ]
        cfg = config(beta=1.0, n_seeds=1, master_seed=0)
        # pick the run whose seed set is {A}
        for run_index in range(50):
            out = run_sir(table(records), cfg, run_index)
            if out.seeds == ("A",):
                break
        else:
            pytest.fail("no run drew seed {A}")
        assert out.infected_set == {"A", "B", "C"}
        tree = [(e.infector, e.infectee, e.time) for e in outcome_events(out)]
        assert tree == [("A", "B", 5.0), ("B", "C", 12.0)]

    def test_source_infected_mid_window_still_transmits(self):
        # B and C share v1 from t=0; B only becomes infectious at t=55 on v2,
        # while still sitting next to C, so C must be infected at t=55.
        records = [
            trip("B", "v1", 0, 70),
            trip("C", "v1", 0, 70),
            trip("A", "v2", 50, 60),
            trip("B", "v2", 55, 100),
        ]
        cfg = config(beta=1.0, n_seeds=1)
        for run_index in range(50):
            out = run_sir(table(records), cfg, run_index)
            if out.seeds == ("A",):
                break
        else:
            pytest.fail("no run drew seed {A}")
        assert out.infected_set == {"A", "B", "C"}
        events = {(e.infector, e.infectee): e.time for e in outcome_events(out)}
        assert events[("A", "B")] == 55.0
        assert events[("B", "C")] == 55.0

    def test_recovered_passenger_has_no_role(self):
        # A infects B on day 0; B recovers after 2 days; B then rides with C
        # on day 3 and must neither infect nor be re-infected.
        records = [
            trip("A", "v", 0.0, 3600.0),
            trip("B", "v", 0.0, 3600.0),
            trip("B", "v", 3 * DAY, 3 * DAY + 3600.0),
            trip("C", "v", 3 * DAY, 3 * DAY + 3600.0),
        ]
        cfg = config(beta=1.0, n_seeds=1, period=2 * DAY)
        for run_index in range(50):
            out = run_sir(table(records), cfg, run_index)
            if out.seeds == ("A",):
                break
        else:
            pytest.fail("no run drew seed {A}")
        assert out.final_state["B"] == RECOVERED
        assert out.final_state["C"] == SUSCEPTIBLE
        inbound_b = [e for e in outcome_events(out) if e.infectee == "B"]
        assert len(inbound_b) == 1

    def test_indirect_transmission_requires_infectious_deposition(self):
        # A recovers before boarding, so the pathogens it sheds are gone
        records = [
            trip("A", "v", 10 * DAY, 10 * DAY + 600),
            trip("B", "v", 10 * DAY + 700, 10 * DAY + 1300),
        ]
        cfg = config(beta=1.0, d_t=1800.0, n_seeds=1, period=1 * DAY)
        for run_index in range(50):
            out = run_sir(table(records), cfg, run_index)
            if out.seeds == ("A",):
                break
        else:
            pytest.fail("no run drew seed {A}")
        # seed infectious from t=0, recovered at day 1, deposits nothing at day 10
        assert out.infected_set == {"A"}

    def test_indirect_transmission_happens_within_window(self):
        records = [
            trip("A", "v", 0.0, 600.0),
            trip("B", "v", 700.0, 1300.0),
        ]
        cfg = config(beta=1.0, d_t=900.0, n_seeds=1)
        for run_index in range(50):
            out = run_sir(table(records), cfg, run_index)
            if out.seeds == ("A",):
                break
        else:
            pytest.fail("no run drew seed {A}")
        assert out.infected_set == {"A", "B"}
        event = outcome_events(out)[0]
        assert event.kind == "indirect"
        assert event.time == 700.0

    def test_determinism(self):
        records = random_instance(5, n_cards=20, n_trips=80)
        cfg = config(beta=0.4, n_seeds=4, master_seed=99)
        a = run_sir(table(records), cfg, 3)
        b = run_sir(table(records), cfg, 3)
        assert a.seeds == b.seeds
        assert outcome_events(a) == outcome_events(b)
        assert a.final_state == b.final_state

    def test_outcome_columns_are_typed_codes_over_the_log_vocabularies(self):
        records = random_instance(5, n_cards=20, n_trips=80)
        log = build_exposure_log(table(records), 0.0)
        out = run_sir(table(records), config(beta=1.0, n_seeds=2), 0, exposures=log)
        assert out.cards is log.cards and out.vehicles is log.vehicles
        assert [c.dtype for c in (out.infector, out.infectee, out.vehicle, out.time, out.direct)] == [
            np.int32, np.int32, np.int32, np.float64, np.bool_
        ]
        assert out.infectee.size > 0

    def test_different_runs_differ(self):
        records = random_instance(6, n_cards=30, n_trips=120)
        cfg = config(beta=0.5, n_seeds=3, master_seed=1)
        seeds = {run_sir(table(records), cfg, i).seeds for i in range(6)}
        assert len(seeds) > 1

    def test_log_of_other_cards_rejected(self):
        records = random_instance(7)
        log = build_exposure_log(table(records + [trip("zz", "v0", 0.0, 60.0)]), 0.0)
        with pytest.raises(ValueError, match="not the trip table's"):
            run_sir(table(records), config(), 0, exposures=log)

    def test_log_at_another_suspension_time_rejected(self):
        records = random_instance(7)
        log = build_exposure_log(table(records), 3600.0)
        with pytest.raises(ValueError, match="d_t=3600.0, the config at d_t=0.0"):
            run_sir(table(records), config(d_t=0.0), 0, exposures=log)
        narrowed = run_sir(table(records), config(d_t=0.0), 0, exposures=log.within(0.0))
        assert outcome_events(narrowed) == outcome_events(run_sir(table(records), config(d_t=0.0), 0))

    def test_too_many_seeds_rejected(self):
        records = random_instance(7)
        with pytest.raises(ValueError, match="exceeds population"):
            run_sir(table(records), config(n_seeds=1000), 0)

    def test_conservation_at_every_event(self):
        records = random_instance(8, n_cards=25, n_trips=100)
        cfg = config(beta=1.0, n_seeds=3)
        out = run_sir(table(records), cfg, 0)
        population = {r.card_id for r in records}
        infected_at = {s: 0.0 for s in out.seeds}
        period = cfg.infectious_period
        for e in outcome_events(out):
            assert e.infectee not in infected_at
            infected_at[e.infectee] = e.time
            n_i = sum(1 for t in infected_at.values() if t <= e.time < t + period)
            n_r = sum(1 for t in infected_at.values() if e.time >= t + period)
            n_s = len(population) - len(infected_at)
            assert n_s + n_i + n_r == len(population)

    def test_causality_and_attribution(self):
        records = random_instance(9, n_cards=25, n_trips=100)
        cfg = config(beta=0.7, n_seeds=3)
        out = run_sir(table(records), cfg, 1)
        infected_at = {s: 0.0 for s in out.seeds}
        period = cfg.infectious_period
        inbound: dict[str, int] = {}
        for e in outcome_events(out):
            assert e.infector in infected_at, "infector must already be infected"
            assert infected_at[e.infector] <= e.time
            assert e.time < infected_at[e.infector] + period
            inbound[e.infectee] = inbound.get(e.infectee, 0) + 1
            infected_at[e.infectee] = e.time
        assert all(n == 1 for n in inbound.values())
        assert not any(s in inbound for s in out.seeds)
        assert set(inbound) == out.infected_set - set(out.seeds)


class TestReachabilityOracle:
    @pytest.mark.parametrize("d_t", [0.0, 900.0])
    def test_beta_one_matches_temporal_bfs(self, d_t):
        for seed in range(25):
            records = random_instance(seed, n_cards=15, n_trips=60)
            cfg = config(beta=1.0, d_t=d_t, n_seeds=2, master_seed=seed)
            out = run_sir(table(records), cfg, 0)
            want = oracle_infected(records, d_t, out.seeds, period=cfg.infectious_period)
            assert out.infected_set == want

    def test_with_short_infectious_period(self):
        # recovery interacts with long windows; spread the trips over days
        for seed in range(10):
            rnd = random.Random(1000 + seed)
            records = []
            for _ in range(50):
                start = rnd.uniform(0, 6 * DAY)
                records.append(
                    trip(
                        f"c{rnd.randint(0, 11)}",
                        f"v{rnd.randint(0, 2)}",
                        start,
                        start + rnd.uniform(600, 2 * 3600),
                    )
                )
            cfg = config(beta=1.0, d_t=900.0, n_seeds=2, period=1.5 * DAY, master_seed=seed)
            out = run_sir(table(records), cfg, 0)
            want = oracle_infected(records, 900.0, out.seeds, period=1.5 * DAY)
            assert out.infected_set == want


class TestMonotonicity:
    def test_infected_sets_nested_in_beta(self):
        for seed in range(8):
            records = random_instance(seed, n_cards=20, n_trips=90)
            previous = None
            for beta in BETA_GRID:
                cfg = config(beta=beta, n_seeds=2, master_seed=7)
                out = run_sir(table(records), cfg, 0)
                infected = out.infected_set
                if previous is not None:
                    assert previous <= infected
                previous = infected

    def test_infected_sets_nested_in_suspension_time(self):
        for seed in range(8):
            records = random_instance(seed, n_cards=20, n_trips=90)
            previous = None
            for d_t in (0.0, 900.0, 1800.0, 3600.0, 7200.0):
                cfg = config(beta=1.0, d_t=d_t, n_seeds=2, master_seed=7)
                out = run_sir(table(records), cfg, 0)
                infected = out.infected_set
                if previous is not None:
                    assert previous <= infected
                previous = infected


class TestEnsemble:
    def test_single_run_average_is_the_outcome(self):
        records = random_instance(3, n_cards=20, n_trips=80)
        cfg = config(beta=0.5, n_seeds=2, runs=1)
        [only] = run_ensemble(table(records), cfg)
        assert _trace(only) == _trace(run_sir(table(records), cfg, 0))

    def test_same_master_seed_reproduces(self):
        records = random_instance(4, n_cards=20, n_trips=80)
        cfg = config(beta=0.5, n_seeds=2, runs=5, master_seed=21)
        a = run_ensemble(table(records), cfg)
        b = run_ensemble(table(records), cfg)
        for x, y in zip(a, b):
            assert outcome_events(x) == outcome_events(y)
            assert x.seeds == y.seeds

    def test_mean_matches_recomputation(self):
        records = random_instance(5, n_cards=25, n_trips=120)
        cfg = config(beta=0.3, n_seeds=3, runs=20, master_seed=2)
        outcomes = run_ensemble(table(records), cfg)
        recomputed = sum(len(outcome_events(o)) for o in outcomes) / len(outcomes)
        assert np.mean([o.infectee.size for o in outcomes]) == pytest.approx(recomputed, abs=1e-12)
        for o in outcomes:  # the attack rate counted from seeds and infectees, as from the states
            assert o.attack_rate == len(o.infected_set) / len(o.final_state)

    def test_runs_vary(self):
        records = random_instance(6, n_cards=30, n_trips=150)
        cfg = config(beta=0.4, n_seeds=2, runs=8, master_seed=3)
        outcomes = run_ensemble(table(records), cfg)
        assert len({o.seeds for o in outcomes}) > 1


def _trace(outcome):
    return outcome.per_run_seed, outcome.seeds, outcome_events(outcome), outcome.final_state


class TestLanes:
    """`run_lanes` against the scalar reference, with integer ride times so that ties occur."""

    @given(
        rides=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 1), st.integers(0, 15), st.integers(1, 6)),
            min_size=2, max_size=40,
        ),
        d_t=st.sampled_from([0.0, 3.0, 5.0]),
        period=st.sampled_from([4.0, 12.0, 1000.0]),
        master_seed=st.integers(0, 1000),
        # a start between window starts stamps seed candidates at a time no window starts at
        start=st.sampled_from([None, 0.5, 3.0, 7.5]),
        end=st.sampled_from([None, 9.0, 14.5]),
    )
    # c0's two rides reach c1 at t = 7 once indirectly and once directly: the
    # priority's tie order decides the kind
    @example(rides=[(0, 0, 0, 4), (0, 0, 6, 4), (1, 0, 7, 5), (2, 1, 0, 1)], d_t=5.0, period=1000.0, master_seed=0,
             start=None, end=None)
    # no two cards share a vehicle: the log has no rows and only seeds are infected
    @example(rides=[(0, 0, 0, 1), (1, 1, 0, 1), (2, 0, 3, 1)], d_t=0.0, period=1000.0, master_seed=0,
             start=None, end=None)
    def test_every_lane_matches_reference_alone_and_in_any_batch(self, rides, d_t, period, master_seed, start, end):
        records = [trip(f"c{c}", f"v{v}", float(a), float(a + d)) for c, v, a, d in rides]
        population = sorted({r.card_id for r in records})
        log = build_exposure_log(table(records), d_t)
        cfg = config(d_t=d_t, n_seeds=min(2, len(population)), period=period, master_seed=master_seed,
                     start=start, end=end)
        betas = (0.6, 0.0, 1.0, 0.3)
        runs = range(4)
        together = run_lanes(table(records), cfg, betas, runs, exposures=log)
        with mock.patch.object(sim, "BATCH_BYTES", 1):  # one run per batch
            batched = run_lanes(table(records), cfg, betas, runs, exposures=log)
        for k, beta in enumerate(betas):
            lane_cfg = replace(cfg, beta=beta)
            for run, lane, other in zip(runs, together.outcomes(k), batched.outcomes(k)):
                ref = sir_reference(table(records), lane_cfg, run, exposures=log, population=population)
                want = ref.per_run_seed, ref.seeds, ref.events, ref.final_state
                assert _trace(lane) == want
                assert _trace(other) == want
                assert _trace(run_sir(table(records), lane_cfg, run, exposures=log)) == want

    def test_pending_candidate_lowered_by_a_source_infected_later(self):
        # seed A reaches C at t = 10 on v3, but A infects B at t = 1 and B
        # meets C at t = 5: B's later candidate must replace A's pending one
        records = [
            trip("A", "v1", 1, 2), trip("B", "v1", 1, 3),
            trip("B", "v2", 5, 8), trip("C", "v2", 5, 8),
            trip("A", "v3", 10, 20), trip("C", "v3", 10, 20),
        ]
        cfg = config(n_seeds=1)
        run = next((r for r in range(50) if run_sir(table(records), cfg, r).seeds == ("A",)), None)
        assert run is not None, "no run drew seed {A}"
        out = run_sir(table(records), cfg, run)
        events = outcome_events(out)
        assert [(e.infector, e.infectee, e.time) for e in events] == [("A", "B", 1.0), ("B", "C", 5.0)]
        assert events == sir_reference(table(records), cfg, run).events

    def test_lane_rows_stay_within_the_batch_budget(self):
        log = build_exposure_log(table(random_instance(3)), 0.0)
        cuts, tokens = np.array([1, 2, 3], np.uint64), np.arange(4, dtype=np.uint64)
        lanes = sim._Lanes(sim._Codes(log, 0.0, DAY), DAY, sim._exposure_keys(log), tokens, cuts)
        per_run = cuts.size * len(log.cards) * sim._LANE_BYTES_PER_CARD
        assert len(log) > 0
        assert lanes.n_lanes == cuts.size * tokens.size
        assert lanes.best.nbytes <= tokens.size * per_run


class TestDraws:
    @given(
        keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50),
        token=st.integers(0, 2**64 - 1),
        beta=st.one_of(
            st.sampled_from([0.0, 1.0, 5e-324, float(np.nextafter(1.0, 0.0)), 0.1, 0.3]),
            st.floats(0.0, 1.0),
        ),
    )
    def test_integer_cut_is_the_uniform_trial(self, keys, token, beta):
        keys, token = np.array(keys, np.uint64), np.uint64(token)
        with mock.patch.object(sim, "_exposure_keys", lambda log: keys), \
                mock.patch.object(sim, "_run_streams", lambda master_seed, run: (None, token)):
            uniforms = sim.exposure_uniforms(None, 0, 0)
        cut = int(np.ceil(beta * 2.0 ** 53))
        assert ((sim._draw_bits(keys, token) < np.uint64(cut)) == (uniforms < beta)).all()
        # the keyed bits seldom land next to the cut: check the draws there directly
        near = np.arange(max(0, cut - 2), min(2**53, cut + 2), dtype=np.uint64)
        assert ((near < np.uint64(cut)) == (near.astype(np.float64) * 2.0 ** -53 < beta)).all()
