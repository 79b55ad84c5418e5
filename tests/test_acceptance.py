"""Release checklist: nine end-to-end criteria, one test each.

Every test prints a single `ACCEPTANCE <n> PASS|FAIL` line on the terminal
(bypassing capture) before asserting, so a verbose run doubles as the
checklist.  The heavyweight fixtures (the 10-seed policy comparison) are
shared between criteria 6, 7 and 8.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from p2pbackup import redundancy, report, sched, sim, trace

from conftest import allocate_rows, link_loads, recorded_allocations
from oracles import (binomial_tail_ge, matching_max_fragments, matching_min_completion,
                     minimal_redundancy)

MIB = 1 << 20
DAY = 86400.0


@pytest.fixture
def verdict(capsys):
    def emit(criterion: int, ok: bool, detail: str = ""):
        line = f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        with capsys.disabled():
            print(f"\n{line}")
        assert ok, line
    return emit


# -- 1: fixed-redundancy design value ------------------------------------

def test_criterion_1_fixed_redundancy_design_value(verdict):
    """The paper's coding shape must get the minimal n of the availability rule.

    A 10 GiB object in 160 MiB fragments gives k = 64; with peer availability
    a = 0.36 and target 0.99, fixed_redundancy_n must return the smallest
    n >= k with P[Bin(n, a) >= k] >= target.  The expected value comes from
    the exact-rational oracle (tests/oracles.py), which gives 222, and the
    221/222 bracket is checked in exact rationals, so a search that is off
    by one or padded fails.  An earlier statement of this criterion gave
    228, which exceeds the minimum under this rule; PAPER.md does not say
    where that value came from.
    """
    k = (10 << 30) // (160 * MIB)
    a, target = Fraction(36, 100), Fraction(99, 100)
    want = minimal_redundancy(k, a, target)
    n = redundancy.fixed_redundancy_n(k, 0.36, 0.99)
    ok = (
        k == 64
        and want == 222
        and binomial_tail_ge(want - 1, k, a) < target <= binomial_tail_ge(want, k, a)
        and n == want
    )
    verdict(1, ok, f"smallest n with P[Bin(n, 0.36) >= {k}] >= 0.99: "
                   f"fixed_redundancy_n = {n} (rate n/k = {n / k:.4f}), "
                   f"exact-rational oracle {want}; the earlier stated 228 exceeds it")


# -- 2: worked scheduling instance ---------------------------------------

def test_criterion_2_worked_instance(verdict, fig_problem):
    res = sched.optimal_completion(fig_problem)
    quoted = sched.Schedule([(1, 1), (2, 7), (3, 3)])
    problems = sched.validate_schedule(fig_problem, quoted)
    ok = (
        res.feasible
        and res.completion == 3
        and sched.validate_schedule(fig_problem, res.schedule) == []
        and problems == []
        and sched.completion_time(quoted) == 7
    )
    verdict(2, ok, f"optimal completion {res.completion} (want 3), "
                   f"quoted slow schedule completes at {sched.completion_time(quoted)} (want 7)")


# -- 3: solver equals brute-force oracle ---------------------------------

def _check_instance(bits) -> int:
    """Mismatches between the flow solver and the matching oracle on one
    matrix: F(T) plus O(x) for x = 1..4."""
    P, T = bits.shape
    candidates = list(range(1, P))
    matrix = trace.AvailabilityMatrix(bits=bits)
    mism = 0
    problem = sched.TransferProblem(matrix=matrix, owner=0, direction=sched.BACKUP, x=1)
    best, _ = sched.max_fragments(problem, T)
    if best != matching_max_fragments(bits, 0, candidates, T):
        mism += 1
    for x in range(1, 5):
        res = sched.optimal_completion(
            sched.TransferProblem(matrix=matrix, owner=0, direction=sched.BACKUP, x=x))
        want = matching_min_completion(bits, 0, candidates, x, T)
        if want is None:
            mism += res.feasible
        else:
            mism += (not res.feasible) or res.completion != want
    return mism


def test_criterion_3_oracle_equivalence(verdict):
    mismatches = 0
    # exhaustive: every 3-peer, 3-slot availability matrix
    for code in range(512):
        bits = np.array([[(code >> (3 * r + c)) & 1 for c in range(3)]
                         for r in range(3)], dtype=np.uint8)
        mismatches += _check_instance(bits)
    # random instances up to 5 peers and 6 slots
    rng = np.random.default_rng(2024)
    for _ in range(500):
        P = int(rng.integers(2, 6))
        T = int(rng.integers(1, 7))
        bits = rng.integers(0, 2, size=(P, T), dtype=np.uint8)
        mismatches += _check_instance(bits)
    verdict(3, mismatches == 0, f"{mismatches} mismatches over 1012 instances x 5 queries")


# -- 4: randomized scheduling approaches optimal with candidate slack ----

def _grid_point(bits, slot_seconds, rng, x: int, ratio: float, trials: int):
    P, T = bits.shape
    opt_acc, rand_acc = [], []
    for _ in range(trials):
        owner = int(rng.integers(P))
        others = [i for i in range(P) if i != owner]
        chosen = rng.choice(len(others), size=int(round(ratio * x)), replace=False)
        picked = [others[i] for i in sorted(chosen.tolist())]
        start = int(rng.integers(1, max(2, T // 2)))
        sub = trace.AvailabilityMatrix(bits=bits[[owner] + picked, start - 1:],
                                       slot_seconds=slot_seconds)
        problem = sched.TransferProblem(matrix=sub, owner=0, direction=sched.BACKUP, x=x)
        opt = sched.optimal_completion(problem)
        rnd = sched.random_schedule(problem, rng)
        if opt.feasible and rnd.feasible:
            opt_acc.append(opt.completion)
            rand_acc.append(rnd.completion)
    return float(np.mean(rand_acc) / np.mean(opt_acc))


def test_criterion_4_random_vs_optimal_convergence(verdict):
    ratios = (1.1, 1.25, 1.5, 1.75, 2.0)
    failures = []
    summary = []
    for seed in (1, 2, 3):
        matrix = trace.synth_trace(200, 504, availability=(0.2, 0.9), seed=seed)
        rng = np.random.default_rng(seed)
        for x in (40, 60):
            vals = {r: _grid_point(matrix.bits, matrix.slot_seconds, rng, x, r, 200)
                    for r in ratios}
            if any(v < 1.0 - 1e-12 for v in vals.values()):
                failures.append(f"seed {seed} x={x}: ratio below 1")
            if not vals[2.0] < vals[1.1]:
                failures.append(f"seed {seed} x={x}: no improvement with candidate slack")
            summary.append(f"s{seed}/x{x}: {vals[1.1]:.4f}->{vals[2.0]:.4f}")
    verdict(4, not failures, "; ".join(failures) if failures else ", ".join(summary))


# -- 5: data-loss probability behaves ------------------------------------

MC_POINTS = [(1, 1, 7.0), (16, 16, 7.0), (24, 16, 14.0), (20, 16, 7.0), (70, 64, 1.0)]


def test_criterion_5_loss_model(verdict):
    mean = 90.0
    violations = 0
    for k in (1, 16, 64):
        ts = (0.0, 1.0, 7.0, 14.0, 56.0)
        ns = range(k, 4 * k + 1)
        grid = {(n, t): redundancy.data_loss_probability(n, k, t, mean)
                for n in ns for t in ts}
        for n in ns:
            for lo, hi in zip(ts, ts[1:]):
                violations += grid[(n, hi)] < grid[(n, lo)]
        for t in ts:
            for n in ns:
                if n + 1 in ns:
                    violations += grid[(n + 1, t)] > grid[(n, t)]
    mc_misses = 0
    rng = np.random.default_rng(7)
    for n, k, t in MC_POINTS:
        p = redundancy.data_loss_probability(n, k, t, mean)
        survivors = (rng.exponential(mean, size=(100_000, n)) > t).sum(axis=1)
        hat = float((survivors < k).mean())
        mc_misses += abs(hat - p) > 3 * math.sqrt(p * (1 - p) / 100_000)
    ratio = (redundancy.data_loss_probability(96, 64, 14.0, mean)
             / redundancy.data_loss_probability(192, 64, 14.0, mean))
    ok = violations == 0 and mc_misses == 0 and ratio > 1e3
    verdict(5, ok, f"{violations} monotonicity violations, {mc_misses} MC misses, "
                   f"rate-1.5/rate-3.0 ratio {ratio:.3g}")


# -- 6/7/8 shared fixture: the 10-seed policy comparison ------------------

FRAG = 160 * MIB


@dataclass
class DeskRun:
    policy: str
    seed: int
    sim: sim.Simulation
    report: sim.SimReport
    allocations: list  # recorded (specs, grants) per slot with traffic


def _desk_config(policy: str, seed: int, cdf_path: str) -> sim.SimConfig:
    return sim.SimConfig.from_mapping(dict(
        object_size=8 * FRAG, fragment_size=FRAG, storage_quota=40 * FRAG,
        mean_lifetime_days=90.0, redundancy_policy=policy,
        fixed_target=0.99, loss_cap=1e-4, w_days=14.0,
        response="immediate",
        bandwidth_source="file", bandwidth_file=cdf_path,
        seed=seed,
    ))


@pytest.fixture(scope="module")
def desk_runs(spread_cdf_file):
    runs = []
    for seed in range(10):
        matrix = trace.synth_trace(100, 672, availability=(0.3, 0.7), seed=1000 + seed)
        for policy in ("fixed", "adaptive"):
            simulation = sim.Simulation(_desk_config(policy, seed, spread_cdf_file), matrix)
            with recorded_allocations() as calls:
                result = simulation.run()
            runs.append(DeskRun(policy, seed, simulation, result, calls))
    return runs


def _pooled(runs, policy: str):
    ttb, ttr, ettr = [], [], []
    for run in runs:
        if run.policy != policy:
            continue
        norm = report.normalized_ratios(run.report)
        ttb.extend(norm.ttb)
        ttr.extend(norm.ttr)
        ettr.extend(norm.ettr)
    return ttb, ttr, ettr


def test_criterion_6_policy_comparison(verdict, desk_runs):
    adaptive_red = np.mean([r.report.avg_redundancy for r in desk_runs
                            if r.policy == "adaptive"])
    fixed_nk = np.mean([r.report.fixed_n / r.report.config.k for r in desk_runs
                        if r.policy == "fixed"])
    f_ttb, f_ttr, _ = _pooled(desk_runs, "fixed")
    a_ttb, a_ttr, _ = _pooled(desk_runs, "adaptive")
    containment = all(
        not (c.unavoidable and not c.unfinished)
        for run in desk_runs for c in run.report.crashes
    )
    checks = {
        "adaptive redundancy below fixed": adaptive_red < fixed_nk,
        "adaptive backs up faster": np.median(a_ttb) <= np.median(f_ttb),
        "fixed restores faster": np.median(f_ttr) <= np.median(a_ttr),
        "unavoidable only when unfinished": containment,
    }
    failed = [name for name, ok in checks.items() if not ok]
    verdict(6, not failed,
            f"adaptive red {adaptive_red:.2f} vs fixed {fixed_nk:.2f}; "
            f"median TTB/minTTB {np.median(a_ttb):.2f} vs {np.median(f_ttb):.2f}; "
            f"median TTR/minTTR {np.median(f_ttr):.2f} vs {np.median(a_ttr):.2f}"
            + (f"; FAILED: {failed}" if failed else ""))


def _audit_violations(run: DeskRun) -> list[str]:
    """Byte-level invariants of one run's recorded allocation calls."""
    out = []
    s = run.sim
    slot = s.slot
    up, down = s.uplink * slot, s.downlink * slot
    total_sent = total_received = 0.0
    for call, (specs, grants) in enumerate(run.allocations):
        sent, received = link_loads(specs, grants, s.P)
        if np.any(sent > up * (1 + 1e-9) + 1e-6):
            out.append(f"call {call}: uplink budget exceeded")
        if np.any(received > down * (1 + 1e-9) + 1e-6):
            out.append(f"call {call}: downlink budget exceeded")
        total_sent += sent.sum()
        total_received += received.sum()
        restore = np.array([spec[3] for spec in specs])
        if restore.any() and not restore.all():
            replay = allocate_rows([spec for spec in specs if spec[3]], up.copy(), down.copy())
            if not np.allclose(replay, grants[restore], rtol=1e-9, atol=1e-3):
                out.append(f"call {call}: restore grants depend on competing traffic")
    # conservation over the whole run: immediate response means no server legs
    if abs(total_sent - total_received) > 1e-3:
        out.append("total sent != total received")
    return out


def _placement_violations(run: DeskRun) -> list[str]:
    out = []
    s = run.sim
    stored = np.zeros(s.P, dtype=int)
    for owner, row in enumerate(s.placed.tolist()):
        holders = [holder for holder, cell in enumerate(row) if cell >= 0]
        frags = [row[holder] for holder in holders]
        if len(set(frags)) != len(frags):
            out.append(f"peer {owner}: one fragment on two holders")
        if row[owner] != sim.EMPTY:
            out.append(f"peer {owner}: stores its own fragment or uploads to itself")
        if s.placed_count[owner] != len(holders):
            out.append(f"peer {owner}: placement count out of sync")
        stored[holders] += 1
    if not np.array_equal(s.stored_count, stored):
        out.append("stored fragment counts out of sync with the placements")
    return out


def test_criterion_7_run_invariants(verdict, desk_runs, spread_cdf_file, tmp_path):
    failures = []
    for run in desk_runs:
        tag = f"{run.policy}/{run.seed}"
        failures += [f"{tag}: {v}" for v in _audit_violations(run)]
        failures += [f"{tag}: {v}" for v in _placement_violations(run)]
        for rec in run.report.peers:
            if math.isfinite(rec.ttb) and rec.ttb < rec.min_ttb - 1e-6:
                failures.append(f"{tag}: peer {rec.peer} TTB below its lower bound")
            if math.isfinite(rec.ttr) and rec.ttr < rec.min_ttr - 1e-6:
                failures.append(f"{tag}: peer {rec.peer} TTR below its lower bound")
    # same seed, same inputs => byte-identical CSV outputs
    matrix = trace.synth_trace(100, 672, availability=(0.3, 0.7), seed=1000)
    for d in ("a", "b"):
        result = sim.run(_desk_config("fixed", 0, spread_cdf_file), matrix)
        report.write_report_csvs(result, tmp_path / d)
    for name in ("peers.csv", "crashes.csv", "server.csv", "summary.csv"):
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes():
            failures.append(f"rerun: {name} not byte-identical")
    verdict(7, not failures,
            failures[0] + f" (+{len(failures) - 1} more)" if failures
            else f"{len(desk_runs)} recorded runs clean, rerun byte-identical")


def test_criterion_8_restore_estimator_band(verdict, desk_runs):
    medians = {}
    for policy in ("fixed", "adaptive"):
        _, _, ettr = _pooled(desk_runs, policy)
        medians[policy] = float(np.median(ettr))
    ok = all(0.3 <= m <= 3.0 for m in medians.values())
    verdict(8, ok, f"median estimated/actual TTR: fixed {medians['fixed']:.2f}, "
                   f"adaptive {medians['adaptive']:.2f} (band 0.3..3)")


# -- 9: repair-server byte accounting ------------------------------------

def _assisted_report(policy: str, seed: int, cdf_path: str) -> sim.SimReport:
    config = sim.SimConfig.from_mapping(dict(
        object_size=4 * MIB, fragment_size=MIB, storage_quota=64 * MIB,
        mean_lifetime_days=30.0, redundancy_policy=policy,
        fixed_target=0.99, loss_cap=1e-2, w_days=7.0,
        response="delayed_assisted", delay_mean_days=80.0,
        repair_timeout_days=0.5,
        bandwidth_source="file", bandwidth_file=cdf_path,
        seed=seed,
    ))
    matrix = trace.synth_trace(24, 504, availability=(0.3, 0.7), seed=100 + seed)
    return sim.run(config, matrix)


def test_criterion_9_server_accounting(verdict, flat_cdf_file):
    f = float(MIB)
    failures = []
    totals = {}
    for seed in (0, 1, 2):
        for policy in ("fixed", "adaptive"):
            rep = _assisted_report(policy, seed, flat_cdf_file)
            for name, series in [("outbound", rep.server_outbound),
                                 ("inbound", rep.server_inbound)]:
                if np.any(series % f != 0.0):
                    failures.append(f"{policy}/{seed}: fractional {name} fragment")
            totals[(policy, seed)] = rep.server_outbound.sum()
        if totals[("fixed", seed)] > totals[("adaptive", seed)]:
            failures.append(f"seed {seed}: fixed policy caused more repair traffic")
    if not any(totals[("adaptive", s)] > 0 for s in (0, 1, 2)):
        failures.append("no repair traffic at all; accounting untested")
    frags = {k: int(v / f) for k, v in totals.items()}
    verdict(9, not failures,
            "; ".join(failures) if failures
            else "fragments out per seed fixed/adaptive: "
                 + ", ".join(f"{frags[('fixed', s)]}/{frags[('adaptive', s)]}" for s in (0, 1, 2)))
