"""Replay every allocator call of one simulation against the allocator and
its oracle: the per-call timing of ``sim._waterfill``.

    PYTHONPATH=src python tests/allocation_replay.py

Runs one 200-peer x 336-slot simulation shaped like the sim-fixed-assisted
benchmark workload (lognormal bandwidth, k = 8, a 40-fragment quota, fixed
policy, delayed_assisted response) and records the arguments of every
``_waterfill`` call that ``allocate_slot_transfers`` makes, one per priority
class with traffic.  Then it replays the calls:

- through ``progressive_filling_reference``, tallying the rounds by kind
  (grant, freeze, and exit for a grant round in which a demand runs out) and
  checking that the grants and both residual budget arrays are bit-identical;
- through ``sim._waterfill``, REPEATS times, keeping each call's best time,
  and prints the median and total microseconds per call.

Not collected by pytest: the file name has no test_ prefix.
"""

from __future__ import annotations

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


def record_calls() -> tuple[list[tuple], int]:
    """(src, dst, demand, res_up, res_down) of every _waterfill call of one
    run, budgets as they were on entry; and the number of allocation calls."""
    matrix = trace.synth_trace(PEERS, SLOTS, availability=(0.3, 0.7), diurnal_amplitude=0.5,
                               weekend_factor=0.8, seed=TRACE_SEED)
    calls, slots = [], []
    waterfill, allocate = sim._waterfill, sim.allocate_slot_transfers

    def recording_waterfill(src, dst, demand, res_up, res_down):
        calls.append((src.copy(), dst.copy(), demand.copy(), res_up.copy(), res_down.copy()))
        return waterfill(src, dst, demand, res_up, res_down)

    def counting_allocate(*args):
        slots.append(1)
        return allocate(*args)

    sim._waterfill, sim.allocate_slot_transfers = recording_waterfill, counting_allocate
    try:
        sim.Simulation(sim.SimConfig(**CONFIG), matrix).run()
    finally:
        sim._waterfill, sim.allocate_slot_transfers = waterfill, allocate
    return calls, len(slots)


def main() -> int:
    calls, allocations = record_calls()
    rounds = Counter()
    mismatches = 0
    for src, dst, demand, up, down in calls:
        ref_up, ref_down, got_up, got_down = up.copy(), down.copy(), up.copy(), down.copy()
        expect = progressive_filling_reference(src, dst, demand, ref_up, ref_down, sim._EPS, rounds)
        grants = sim._waterfill(src, dst, demand, got_up, got_down)
        same = (np.array_equal(grants, expect) and np.array_equal(got_up, ref_up)
                and np.array_equal(got_down, ref_down))
        mismatches += not same
    best = np.full(len(calls), np.inf)
    for _ in range(REPEATS):
        for i, (src, dst, demand, up, down) in enumerate(calls):
            up, down = up.copy(), down.copy()
            t0 = time.perf_counter()
            sim._waterfill(src, dst, demand, up, down)
            best[i] = min(best[i], time.perf_counter() - t0)
    sizes = [len(c[0]) for c in calls]
    print(f"{PEERS} peers x {SLOTS} slots: {allocations} allocation calls, {len(calls)} _waterfill calls, "
          f"median class of {int(np.median(sizes))} transfers")
    print(f"rounds: {sum(rounds.values())} = {rounds['grant']} grant + {rounds['freeze']} freeze "
          f"+ {rounds['exit']} demand exit")
    print(f"_waterfill: median {np.median(best) * 1e6:.1f} us per call, {best.sum():.3f} s in all "
          f"(best of {REPEATS})")
    print("grants and budgets bit-identical to the reference:",
          "yes" if mismatches == 0 else f"NO, {mismatches} calls differ")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
