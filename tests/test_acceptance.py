"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
the heavyweight synthetic-dataset criterion takes a couple of minutes.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

import transitepi as te
from conftest import same_table, table, trip
from oracles import (
    log_events,
    gyration_direct,
    k_gyration_direct,
    kmeans2_brute,
    kmeans2_welford,
    outcome_events,
    reachable_infections,
)
from transitepi.cli import main as cli_main
from transitepi.flows import GroupMatrix

DAY = 86_400.0


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE {num}] FAIL  {text}")
        raise
    print(f"[ACCEPTANCE {num}] PASS  {text}")


# -- 1 --------------------------------------------------------------------


def test_criterion_1_gyration_oracle():
    with criterion(1, "radius of gyration matches direct-summation oracle (1000 profiles)"):
        rnd = random.Random(101)
        started = time.perf_counter()
        for case in range(1000):
            m = rnd.randint(1, 50)
            planar = case % 2 == 0
            if planar:
                pts = [(rnd.uniform(-5e4, 5e4), rnd.uniform(-5e4, 5e4)) for _ in range(m)]
            else:
                pts = [(rnd.uniform(-34.3, -33.4), rnd.uniform(150.7, 151.6)) for _ in range(m)]
            weights = [rnd.randint(1, 30) for _ in range(m)]
            ids = [f"s{i:02d}" for i in range(m)]  # one card's stops, in stop-id order
            lat, lon = np.array(pts).T
            model = te.PLANAR if planar else te.HAVERSINE
            k = rnd.randint(1, 55)
            rg, rgk = te.radii_of_gyration(np.zeros(m, np.int64), lat, lon, weights, k, model)
            got_rg, got_k = float(rg[0]), float(rgk[0])
            want_rg = gyration_direct(pts, weights, planar)
            assert got_rg == pytest.approx(want_rg, rel=1e-9, abs=1e-9)

            if k >= m:
                assert got_k == got_rg  # exact equality, not approximate
            else:
                want_k = k_gyration_direct(pts, weights, ids, k, planar)
                assert got_k == pytest.approx(want_k, rel=1e-9, abs=1e-9)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"


# -- 2 --------------------------------------------------------------------


def test_criterion_2_classification():
    with criterion(2, "exact two-means vs exhaustive oracle; scale-invariant exploration; 8-way partition"):
        # two-means equals the exhaustive contiguous-split oracle
        for n in (2, 3, 4, 7, 19, 100, 531, 2000, 10_000):
            for seed in range(3):
                rng = np.random.default_rng(1000 * n + seed)
                values = rng.normal(loc=5.0, scale=2.0, size=n).tolist()
                labels, _ = te.kmeans_1d(values)
                oracle = kmeans2_brute(values) if n <= 300 else kmeans2_welford(values)
                assert labels.tolist() == oracle[0], f"n={n} seed={seed}"

        # exploration labels survive 100 random positive rescalings
        rnd = random.Random(202)
        rg, rgk = np.array([(rnd.uniform(0, 50_000), rnd.uniform(0, 40_000)) for _ in range(200)]).T
        base = te.is_returner(rg, rgk)
        for _ in range(100):
            c = rnd.uniform(1e-9, 1e9)
            assert np.array_equal(te.is_returner(c * rg, c * rgk), base)

        # the eight groups partition every classified population
        for seed in range(5):
            rnd = random.Random(303 + seed)
            cards = [f"c{i}" for i in range(500)]
            rows = [(rnd.uniform(0, 2e4), rnd.uniform(0, 1.2e4), rnd.randint(0, 700)) for _ in cards]
            rg, rgk, encounters = (np.array(c) for c in zip(*rows))
            result = te.classify_population(te.MobilityTable(cards, 2, rg, rgk, encounters.astype(np.int64)))
            assert list(result.assignments.cards) == cards
            assert set(result.assignments.group.tolist()) <= set(range(len(te.GROUP_NAMES)))
            assert te.group_sizes(result.assignments).sum() == 500
            assert sum(result.shares.values()) == pytest.approx(1.0, abs=1e-9)


# -- 3 --------------------------------------------------------------------


def _random_instance(seed: int):
    rnd = random.Random(seed)
    n_cards = rnd.randint(5, 50)
    n_vehicles = rnd.randint(2, 6)
    span = rnd.choice([6 * 3600.0, DAY, 2 * DAY])
    records = []
    for _ in range(2 * n_cards):
        start = rnd.uniform(0, span)
        records.append(
            trip(
                f"c{rnd.randint(0, n_cards - 1)}",
                f"v{rnd.randint(0, n_vehicles - 1)}",
                start,
                start + rnd.uniform(120, 2400),
            )
        )
    return records


def _oracle_infected(records, d_t, seeds, period):
    log = te.build_exposure_log(table(records), d_t)
    rows = [
        (e.source, e.target, e.exposure_start, e.exposure_end, e.kind, e.source_enter, e.source_exit)
        for e in log_events(log)
    ]
    end = max(r.alight_time for r in records) + d_t
    return set(reachable_infections(rows, seeds, 0.0, period, end))


def test_criterion_3_simulation_oracle():
    with criterion(3, "beta=1 infected set equals temporal-reachability BFS (200 instances)"):
        started = time.perf_counter()
        for seed in range(200):
            records = _random_instance(seed)
            for d_t in (0.0, 900.0):
                cfg = te.SimConfig(
                    beta=1.0, d_t=d_t, n_seeds=2, infectious_period=5 * DAY,
                    n_runs=1, master_seed=seed, start_time=0.0,
                )
                out = te.run_sir(table(records), cfg, 0)
                want = _oracle_infected(records, d_t, out.seeds, cfg.infectious_period)
                assert out.infected_set == want, f"seed={seed} d_t={d_t}"
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"criterion 3 took {elapsed:.2f}s"


# -- 4 --------------------------------------------------------------------


def test_criterion_4_monotonicity():
    with criterion(4, "infected sets nested across the beta grid and the d_t grid"):
        beta_grid = (0.05, 0.1, 0.15, 0.25, 0.5, 0.75, 1.0)
        dt_grid = (0.0, 15 * 60.0, 30 * 60.0, 60 * 60.0, 120 * 60.0)
        for seed in range(20):
            records = _random_instance(2_000 + seed)
            previous = None
            for beta in beta_grid:
                cfg = te.SimConfig(
                    beta=beta, d_t=0.0, n_seeds=2, infectious_period=5 * DAY,
                    n_runs=1, master_seed=77, start_time=0.0,
                )
                infected = te.run_sir(table(records), cfg, 0).infected_set
                if previous is not None:
                    assert previous <= infected, f"beta chain broken at {beta} (seed {seed})"
                previous = infected
            previous = None
            for d_t in dt_grid:
                cfg = te.SimConfig(
                    beta=1.0, d_t=d_t, n_seeds=2, infectious_period=5 * DAY,
                    n_runs=1, master_seed=77, start_time=0.0,
                )
                infected = te.run_sir(table(records), cfg, 0).infected_set
                if previous is not None:
                    assert previous <= infected, f"d_t chain broken at {d_t} (seed {seed})"
                previous = infected


# -- 5 --------------------------------------------------------------------


def test_criterion_5_conservation_attribution_flows():
    with criterion(5, "S+I+R conserved; one inbound event per infectee; flow identities at 1e-9"):
        cfg = te.SynthConfig(n_passengers=600, n_routes=10, stops_per_route=14, days=21, rng_seed=5)
        _, records = te.synthesize(cfg)
        records = te.filter_by_min_trips(records, 15)
        mobility = te.mobility_table(records)
        result = te.classify_population(mobility)
        population = records.cards

        sim_cfg = te.SimConfig(beta=0.6, d_t=0.0, n_seeds=10, n_runs=10, master_seed=11)
        outcomes = te.run_ensemble(records, sim_cfg)

        period = sim_cfg.infectious_period
        for outcome in outcomes:
            infected_at = {s: outcome_start(outcome, records) for s in outcome.seeds}
            inbound: dict[str, int] = {}
            for e in outcome_events(outcome):
                assert e.infector in infected_at
                assert infected_at[e.infector] <= e.time < infected_at[e.infector] + period
                assert e.infectee not in infected_at
                infected_at[e.infectee] = e.time
                inbound[e.infectee] = inbound.get(e.infectee, 0) + 1
                n_i = sum(1 for t in infected_at.values() if t <= e.time < t + period)
                n_r = sum(1 for t in infected_at.values() if e.time >= t + period)
                n_s = len(population) - len(infected_at)
                assert n_s + n_i + n_r == len(population)
            assert all(v == 1 for v in inbound.values())
            assert set(inbound) == outcome.infected_set - set(outcome.seeds)

        sizes = te.group_sizes(result.assignments).tolist()
        summary = te.per_group_summary(outcomes, result.assignments, mobility.cards, mobility.encounters)
        matrix = te.group_flow_matrix(outcomes, result.assignments)
        names = matrix.groups
        transmissions = summary.per_individual(summary.transmitted)
        receptions = summary.per_individual(summary.received)
        for i, name in enumerate(names):
            assert matrix.values[i].sum() == pytest.approx(transmissions[i], abs=1e-9)
        for j, name in enumerate(names):
            if sizes[j] == 0:
                continue
            weighted = sum(matrix.values[i, j] * sizes[i] for i in range(len(names)))
            assert weighted / sizes[j] == pytest.approx(receptions[j], abs=1e-9)
        total_events = sum(len(outcome_events(o)) for o in outcomes) / len(outcomes)
        mass = sum(
            matrix.values[i, j] * sizes[i]
            for i in range(len(names))
            for j in range(len(names))
        )
        assert mass == pytest.approx(total_events, abs=1e-9)


def outcome_start(outcome, records):
    return float(records.board.min())


# -- 6 --------------------------------------------------------------------


def test_criterion_6_desk_scale_reproduction():
    with criterion(6, "10k-passenger qualitative reproduction (groups, receptions, d_t difference)"):
        started = time.perf_counter()
        cfg = te.SynthConfig()  # 10,000 passengers, 30 days
        _, records = te.synthesize(cfg)
        records = te.filter_by_min_trips(records, 15)
        population = records.cards

        mobility = te.mobility_table(records)
        result = te.classify_population(mobility)
        sizes = dict(zip(te.GROUP_NAMES, te.group_sizes(result.assignments).tolist()))

        # (a) every group populated
        assert all(sizes[name] > 0 for name in te.GROUP_NAMES), sizes

        # (b) near-uniform receptions once the giant component covers >= 95%
        components = te.connected_components(records)
        giant_share = components[0] / len(population)
        assert giant_share >= 0.95, f"giant component only {giant_share:.3f}"
        sim_cfg = te.SimConfig(beta=1.0, d_t=0.0, n_seeds=50, n_runs=20, master_seed=0)
        outcomes0 = te.run_ensemble(records, sim_cfg)
        summary = te.per_group_summary(outcomes0, result.assignments, mobility.cards, mobility.encounters)
        for name, receptions in zip(te.GROUP_NAMES, summary.per_individual(summary.received).tolist()):
            assert 0.85 <= receptions <= 1.05, f"{name}: receptions {receptions:.3f}"

        # (c) suspension-time difference matrix exists and is antisymmetric
        log30 = te.build_exposure_log(records, 30 * 60.0)
        sim_cfg30 = te.SimConfig(beta=1.0, d_t=30 * 60.0, n_seeds=50, n_runs=20, master_seed=0)
        outcomes30 = te.run_ensemble(records, sim_cfg30, exposures=log30)
        m0 = te.group_flow_matrix(outcomes0, result.assignments)
        m30 = te.group_flow_matrix(outcomes30, result.assignments)
        diff = te.difference_matrix(m0, m30)
        anti = te.difference_matrix(m30, m0)
        assert np.array_equal(diff.values, -anti.values)
        assert diff.values.shape == (8, 8)

        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"criterion 6 took {elapsed:.1f}s"


# -- 7 --------------------------------------------------------------------


def test_criterion_7_sweep_determinism(tmp_path):
    with criterion(7, "two identical sweep invocations produce byte-identical artifacts"):
        synth = tmp_path / "synth.json"
        synth.write_text(json.dumps({
            "n_passengers": 300, "n_routes": 8, "stops_per_route": 12,
            "days": 14, "rng_seed": 9,
        }))
        trips = tmp_path / "trips.csv"
        assert cli_main(["generate", "--out", str(trips), "--synth-config", str(synth)]) == 0
        dirs = [tmp_path / "s1", tmp_path / "s2"]
        for d in dirs:
            code = cli_main([
                "sweep", "--input", str(trips), "--beta-grid", "0.5,1",
                "--dt-grid-minutes", "0,15", "--seeds", "5", "--runs", "3",
                "--min-trips", "10", "--master-seed", "4", "--out-dir", str(d),
            ])
            assert code == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        assert names, "sweep produced no artifacts"
        for name in names:
            a = (dirs[0] / name).read_bytes()
            b = (dirs[1] / name).read_bytes()
            assert a == b, f"artifact {name} differs between runs"


# -- 8 --------------------------------------------------------------------


def test_criterion_8_round_trips(tmp_path):
    with criterion(8, "chord export rescale round-trip; synthetic data re-ingests cleanly"):
        rng = np.random.default_rng(88)
        for _ in range(20):
            matrix = GroupMatrix(values=rng.random((8, 8)) * rng.uniform(0.1, 3.0))
            payload = te.chord_export(matrix)
            back = te.chord_import(payload)
            assert np.max(np.abs(back.values - matrix.values)) <= 0.0005

        cfg = te.SynthConfig(n_passengers=400, n_routes=8, stops_per_route=12, days=14, rng_seed=21)
        _, records = te.synthesize(cfg)
        out = tmp_path / "synth-trips.csv"
        te.write_trip_csv(records, out)
        back, report = te.parse_trip_records(out)
        assert report.rejected == 0
        assert report.accepted == len(records)
        assert same_table(back, records)
