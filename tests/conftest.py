import math
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from p2pbackup import sim, trace
from p2pbackup.sched import BACKUP, RESTORE, TransferProblem
from p2pbackup.trace import AvailabilityMatrix


def tool_output(script, *args):
    """The standard output lines of tests/<script> run with args, the
    package on its PYTHONPATH; asserts that the script exited 0."""
    src = Path(sim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(Path(__file__).with_name(script)), *args],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    return result.stdout.splitlines()


def make_matrix(rows, slot_seconds=3600.0, peer_ids=None):
    """Build an availability matrix from '0'/'1' strings, one row per peer."""
    bits = np.array([[int(c) for c in row] for row in rows], dtype=np.uint8)
    return AvailabilityMatrix(bits=bits, slot_seconds=slot_seconds, peer_ids=peer_ids)


# the bit generators a Generator can wrap, by name; each takes a seed
BIT_GENERATORS = {
    "pcg64": np.random.default_rng,
    "mt19937": lambda seed: np.random.Generator(np.random.MT19937(seed)),
    "philox": lambda seed: np.random.Generator(np.random.Philox(seed)),
}


def generator_state(rng):
    """rng.bit_generator.state with its arrays as lists, so that two states
    compare with ==."""
    def plain(value):
        return {k: plain(v) for k, v in value.items()} if isinstance(value, dict) else np.asarray(value).tolist()
    return plain(rng.bit_generator.state)


def event_tuples(events):
    """The events of a trace.EventLog as (peer_id, timestamp, kind) tuples in
    log order, kind "login" or "logoff": the form the loop oracles take."""
    kinds = (trace.LOGIN, trace.LOGOFF)
    return [(events.peer_ids[p], t, kinds[k])
            for p, t, k in zip(events.peer.tolist(), events.timestamp.tolist(), events.kind.tolist())]


def synth_event_log(peers, slots, seed, slot_seconds=3600.0):
    """(lines, bits): a login/logoff log, in time order, whose slotization is
    exactly bits, a synth_trace matrix with diurnal correlation.

    Each run of online slots is one session that starts up to a quarter slot
    late and ends up to a quarter slot early; one login in 20 is logged
    twice, and one offline slot in 10 gets a blip shorter than half a slot.
    """
    bits = trace.synth_trace(peers, slots, availability=(0.3, 0.7), diurnal_amplitude=0.5, weekend_factor=0.8,
                             slot_seconds=slot_seconds, seed=seed).bits
    rng = np.random.default_rng(seed)
    events = []
    for i, row in enumerate(bits):
        pid = f"peer{i:04d}"
        edges = np.flatnonzero(np.diff(np.concatenate(([0], row, [0])).astype(np.int8)))
        for a, b in zip(edges[::2].tolist(), edges[1::2].tolist()):
            start = (a + 0.25 * rng.random()) * slot_seconds
            events.append((start, pid, "login"))
            if rng.random() < 0.05:
                events.append((start + 1.0, pid, "login"))
            events.append(((b - 0.25 * rng.random()) * slot_seconds, pid, "logoff"))
        for t in np.flatnonzero(row == 0).tolist():
            if rng.random() < 0.1:
                start = (t + 0.1 + 0.3 * rng.random()) * slot_seconds
                events += [(start, pid, "login"), (start + 0.3 * slot_seconds, pid, "logoff")]
    events.sort()
    lines = ["# peer_id,timestamp_seconds,kind\n"] + [f"{pid},{ts:.3f},{kind}\n" for ts, pid, kind in events]
    return lines, np.array(bits)


def cut_problems(matrix, rng, count, xs, ratios, restore_every, restore_rates):
    """count problems cut from one trace the way sched-mixed cuts them: an
    owner, a sorted random pick of ratio * x other peers and a start in the
    first half; every restore_every-th is a restore from about half as many
    holders with restore_rates (owner_rate, per_peer_cap)."""
    P, T = matrix.bits.shape
    pairs = [(x, r) for x in xs for r in ratios]
    problems = []
    for i in range(count):
        x, ratio = pairs[i % len(pairs)]
        restore = i % restore_every == restore_every - 1
        owner = int(rng.integers(P))
        others = np.array([p for p in range(P) if p != owner])
        size = math.ceil(ratio * x / 2) if restore else int(round(ratio * x))
        picked = sorted(others[rng.choice(len(others), size=size, replace=False)].tolist())
        start = int(rng.integers(1, T // 2))
        sub = trace.AvailabilityMatrix(bits=matrix.bits[[owner] + picked, start - 1:],
                                       slot_seconds=matrix.slot_seconds)
        if restore:
            owner_rate, cap = restore_rates
            problems.append(TransferProblem(matrix=sub, owner=0, direction=RESTORE, x=x, owner_rate=owner_rate,
                                            per_peer_cap=cap, storage_set=frozenset(range(1, size + 1))))
        else:
            problems.append(TransferProblem(matrix=sub, owner=0, direction=BACKUP, x=x))
    return problems


def allocate_rows(rows, up_budget, down_budget):
    """sim.allocate_slot_transfers on (src, dst, demand, is_restore) rows,
    split into its columns."""
    src, dst, demand, restore = zip(*rows) if rows else ((),) * 4
    return sim.allocate_slot_transfers(np.array(src, dtype=int), np.array(dst, dtype=int), np.array(demand, dtype=float),
                                       np.array(restore, dtype=bool), up_budget, down_budget)


@contextmanager
def recorded_allocations():
    """Record every allocate_slot_transfers call the simulator makes while
    the context is open, as (specs, grants) pairs: specs are the
    (src, dst, demand, is_restore) rows passed in, built from the columns,
    grants the bytes returned.  The simulator makes one call per slot that
    has traffic."""
    calls = []
    allocate = sim.allocate_slot_transfers

    def recording(src, dst, demand, restore, up_budget, down_budget):
        grants = allocate(src, dst, demand, restore, up_budget, down_budget)
        rows = zip(np.asarray(src).tolist(), np.asarray(dst).tolist(), np.asarray(demand).tolist(),
                   np.asarray(restore).tolist())
        calls.append((list(rows), grants.copy()))
        return grants

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "allocate_slot_transfers", recording)
        yield calls


def link_loads(specs, grants, num_peers):
    """Bytes each peer sent and received in one recorded call; server
    (negative) endpoints are skipped."""
    src = np.array([s[0] for s in specs], dtype=int)
    dst = np.array([s[1] for s in specs], dtype=int)
    sent = np.bincount(src[src >= 0], weights=grants[src >= 0], minlength=num_peers)
    received = np.bincount(dst[dst >= 0], weights=grants[dst >= 0], minlength=num_peers)
    return sent, received


# Worked example used throughout: the owner p0 backs up to three peers whose
# sessions barely overlap, so the optimum needs three distinct overlap slots.
FIG_ROWS = (
    "11100111",  # p0, the data owner
    "11000000",  # p1
    "10000010",  # p2
    "00100000",  # p3
)


@pytest.fixture
def fig_matrix():
    return make_matrix(FIG_ROWS)


@pytest.fixture
def fig_problem(fig_matrix):
    return TransferProblem(matrix=fig_matrix, owner=0, direction=BACKUP, x=3)


@pytest.fixture(scope="session")
def flat_cdf_file(tmp_path_factory):
    """Degenerate one-point bandwidth table: every peer uploads at 100 kB/s."""
    path = tmp_path_factory.mktemp("bw") / "flat.csv"
    path.write_text("0.5,100000\n")
    return str(path)


@pytest.fixture(scope="session")
def spread_cdf_file(tmp_path_factory):
    """Moderate empirical bandwidth table (quantile, uplink bytes/s)."""
    path = tmp_path_factory.mktemp("bw") / "spread.csv"
    path.write_text(
        "0.05,30000\n"
        "0.25,55000\n"
        "0.5,77000\n"
        "0.75,120000\n"
        "0.95,250000\n"
    )
    return str(path)
