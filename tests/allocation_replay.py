"""Replay every allocation call of one simulation against the allocator and
its oracle: the per-call timing of ``sim.allocate_slot_transfers``.

    PYTHONPATH=src python tests/allocation_replay.py [PEERS SLOTS]

Runs one PEERS x SLOTS simulation (default 200 x 336) shaped like the
sim-fixed-assisted benchmark workload (lognormal bandwidth, k = 8, a
40-fragment quota, fixed policy, delayed_assisted response) and records the
arguments of every ``allocate_slot_transfers`` call, one per slot with
traffic.  Then it replays the calls:

- through ``two_class_reference`` (``progressive_filling_reference`` on the
  restores, then on the rest with the leftover budgets), tallying the rounds
  by kind (grant, freeze, and exit for a grant round in which a demand runs
  out) and checking that the grants are bit-identical and that the call left
  both budget arrays as they were;
- through ``sim.allocate_slot_transfers``, REPEATS times, keeping each
  call's best time, and prints the median, p95 and mean microseconds per
  call and their total.

The last line is one JSON object: the run's shape and call count, the
rounds by kind, the per-call median, p95 and mean best time in us and the
total in s, and the agreement flag.

Not collected by pytest: the file name has no test_ prefix.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import numpy as np

from p2pbackup import sim, trace
from conftest import recorded_allocations
from oracles import two_class_reference

PEERS, SLOTS = 200, 336
TRACE_SEED, CONFIG_SEED = 1, 2
REPEATS = 5
FRAG = 160 << 20
CONFIG = dict(object_size=8 * FRAG, fragment_size=FRAG, storage_quota=40 * FRAG, bandwidth_source="lognormal",
              redundancy_policy="fixed", response="delayed_assisted", mean_lifetime_days=30.0,
              repair_timeout_days=1.0, seed=CONFIG_SEED)


def record_calls(peers: int, slots: int) -> list:
    """The recorded allocate_slot_transfers calls of one run."""
    matrix = trace.synth_trace(peers, slots, availability=(0.3, 0.7), diurnal_amplitude=0.5,
                               weekend_factor=0.8, seed=TRACE_SEED)
    with recorded_allocations() as calls:
        sim.Simulation(sim.SimConfig(**CONFIG), matrix).run()
    return calls


def main(argv: list[str]) -> int:
    peers, slots = (int(a) for a in argv) if argv else (PEERS, SLOTS)
    calls = record_calls(peers, slots)
    if not calls:
        print(f"{peers} peers x {slots} slots: the run made no allocation call")
        return 1
    rounds = Counter()
    mismatches = classes = 0
    for call in calls:
        classes += int(call.restore.any()) + int(not call.restore.all())
        expect = two_class_reference(*call.args, sim._EPS, rounds)
        up, down = call.up_budget.copy(), call.down_budget.copy()
        grants = sim.allocate_slot_transfers(call.src, call.dst, call.demand, call.restore, up, down)
        mismatches += not (np.array_equal(grants, expect) and np.array_equal(up, call.up_budget)
                           and np.array_equal(down, call.down_budget))
    best = np.full(len(calls), np.inf)
    for _ in range(REPEATS):
        for i, call in enumerate(calls):
            t0 = time.perf_counter()
            sim.allocate_slot_transfers(*call.args)
            best[i] = min(best[i], time.perf_counter() - t0)
    sizes = [len(call.src) for call in calls]
    us = best * 1e6
    timing = {"median_us": float(np.median(us)), "p95_us": float(np.percentile(us, 95)), "mean_us": float(us.mean()),
              "total_s": float(best.sum())}
    print(f"{peers} peers x {slots} slots: {len(calls)} allocation calls, {classes} priority classes with "
          f"traffic, median call of {int(np.median(sizes))} transfers")
    print(f"rounds: {sum(rounds.values())} = {rounds['grant']} grant + {rounds['freeze']} freeze "
          f"+ {rounds['exit']} demand exit")
    print(f"allocate_slot_transfers: median {timing['median_us']:.1f} us per call, p95 {timing['p95_us']:.1f}, "
          f"mean {timing['mean_us']:.1f}, {timing['total_s']:.3f} s in all (best of {REPEATS})")
    print("grants bit-identical to the reference, budgets unchanged:",
          "yes" if mismatches == 0 else f"NO, {mismatches} calls differ")
    print(json.dumps({"peers": peers, "slots": slots, "calls": len(calls), "classes": classes, "repeats": REPEATS,
                      "rounds": {kind: rounds[kind] for kind in ("grant", "freeze", "exit")},
                      "allocate_slot_transfers": timing, "identical_to_reference": mismatches == 0}))
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
