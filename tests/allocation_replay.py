"""Replay every allocation call of one simulation against the allocator and
its oracle: the per-call timing of ``sim.allocate_slot_transfers``.

    PYTHONPATH=src python tests/allocation_replay.py [PEERS SLOTS]

Runs one PEERS x SLOTS simulation (default 200 x 336) shaped like the
sim-fixed-assisted benchmark workload (lognormal bandwidth, k = 8, a
40-fragment quota, fixed policy, delayed_assisted response) and records the
arguments of every ``allocate_slot_transfers`` call, one per slot with
traffic.  Then it replays the calls:

- through ``progressive_filling_reference``, once per priority class with
  traffic (restores, then the rest, on the leftover budgets), tallying the
  rounds by kind (grant, freeze, and exit for a grant round in which a
  demand runs out) and checking that the grants are bit-identical and that
  the call left both budget arrays as they were;
- through ``sim.allocate_slot_transfers``, REPEATS times, keeping each
  call's best time, and prints the median and total microseconds per call.

Not collected by pytest: the file name has no test_ prefix.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import numpy as np

from p2pbackup import sim, trace
from oracles import progressive_filling_reference

PEERS, SLOTS = 200, 336
TRACE_SEED, CONFIG_SEED = 1, 2
REPEATS = 5
FRAG = 160 << 20
CONFIG = dict(object_size=8 * FRAG, fragment_size=FRAG, storage_quota=40 * FRAG, bandwidth_source="lognormal",
              redundancy_policy="fixed", response="delayed_assisted", mean_lifetime_days=30.0,
              repair_timeout_days=1.0, seed=CONFIG_SEED)


def record_calls(peers: int, slots: int) -> list[tuple]:
    """(src, dst, demand, restore, up_budget, down_budget) of every
    allocate_slot_transfers call of one run."""
    matrix = trace.synth_trace(peers, slots, availability=(0.3, 0.7), diurnal_amplitude=0.5,
                               weekend_factor=0.8, seed=TRACE_SEED)
    calls = []
    allocate = sim.allocate_slot_transfers

    def recording(*args):
        calls.append(tuple(np.array(a, copy=True) for a in args))
        return allocate(*args)

    sim.allocate_slot_transfers = recording
    try:
        sim.Simulation(sim.SimConfig(**CONFIG), matrix).run()
    finally:
        sim.allocate_slot_transfers = allocate
    return calls


def reference(src, dst, demand, restore, up, down, rounds) -> tuple[np.ndarray, int]:
    """The reference's grants, one class at a time on shared residual
    budgets, and the number of classes with traffic."""
    res_up, res_down = up.copy(), down.copy()
    grants = np.zeros(len(src))
    classes = 0
    for mask in (restore, ~restore):
        if mask.any():
            classes += 1
            grants[mask] = progressive_filling_reference(src[mask], dst[mask], demand[mask], res_up, res_down,
                                                         sim._EPS, rounds)
    return grants, classes


def main(argv: list[str]) -> int:
    peers, slots = (int(a) for a in argv) if argv else (PEERS, SLOTS)
    calls = record_calls(peers, slots)
    if not calls:
        print(f"{peers} peers x {slots} slots: the run made no allocation call")
        return 1
    rounds = Counter()
    mismatches = classes = 0
    for src, dst, demand, restore, up, down in calls:
        expect, used = reference(src, dst, demand, restore, up, down, rounds)
        classes += used
        got_up, got_down = up.copy(), down.copy()
        grants = sim.allocate_slot_transfers(src, dst, demand, restore, got_up, got_down)
        mismatches += not (np.array_equal(grants, expect) and np.array_equal(got_up, up)
                           and np.array_equal(got_down, down))
    best = np.full(len(calls), np.inf)
    for _ in range(REPEATS):
        for i, args in enumerate(calls):
            t0 = time.perf_counter()
            sim.allocate_slot_transfers(*args)
            best[i] = min(best[i], time.perf_counter() - t0)
    sizes = [len(c[0]) for c in calls]
    print(f"{peers} peers x {slots} slots: {len(calls)} allocation calls, {classes} priority classes with "
          f"traffic, median call of {int(np.median(sizes))} transfers")
    print(f"rounds: {sum(rounds.values())} = {rounds['grant']} grant + {rounds['freeze']} freeze "
          f"+ {rounds['exit']} demand exit")
    print(f"allocate_slot_transfers: median {np.median(best) * 1e6:.1f} us per call, {best.sum():.3f} s in all "
          f"(best of {REPEATS})")
    print("grants bit-identical to the reference, budgets unchanged:",
          "yes" if mismatches == 0 else f"NO, {mismatches} calls differ")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
