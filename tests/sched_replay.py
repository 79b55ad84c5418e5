"""Time ``sched.optimal_completion`` on problems shaped like the sched-mixed
benchmark's, and check every outcome against scipy's max flow alone.

    PYTHONPATH=src python tests/sched_replay.py [GROUPS]

Builds GROUPS (default 3) synthetic 200 x 504 traces and cuts 72 problems
from each the way sched-mixed does: backups from ratio * x peers, and every
fourth a restore from about half as many holders with owner_rate 2 and
per_peer_cap 2.  Then, per direction, it:

- times ``optimal_completion`` REPEATS times per problem and prints the
  median, p95 and mean of each problem's best time;
- counts the problems whose first probe, at the owner-capacity bound,
  first fit certifies, and those where it leaves a slot short, so that
  the later Dinic phases run;
- checks each outcome against ``flow_max_fragments``: a feasible O(x) must
  reach x at its completion and not one slot earlier, with the same
  fragment count and witness entries; an infeasible one must report
  F(horizon).

Not collected by pytest: the file name has no test_ prefix.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from p2pbackup import sched, trace
from conftest import cut_problems
from oracles import flow_max_fragments

PEERS, SLOTS, PER_GROUP = 200, 504, 72
XS, RATIOS = (40, 60, 80), (1.1, 1.5, 2.0)
RESTORE_RATES = (2, 1, 2)  # owner_rate, peer_rate, per_peer_cap
SEED = 27
REPEATS = 5


def build_problems(groups: int) -> list[sched.TransferProblem]:
    problems = []
    for group in range(groups):
        matrix = trace.synth_trace(PEERS, SLOTS, availability=(0.2, 0.9), diurnal_amplitude=0.3,
                                   weekend_factor=0.8, seed=[SEED, group])
        rng = np.random.default_rng([SEED, group])
        problems += cut_problems(matrix, rng, PER_GROUP, XS, RATIOS, 4, RESTORE_RATES)
    return problems


def certified(problem) -> bool:
    """True when first fit fills every slot at the first probe."""
    lower = sched.ideal_baseline(problem.matrix.bits[problem.owner], problem.x, problem.owner_rate)
    return not sched._first_fit(problem, lower or problem.matrix.num_slots)[-1]


def mismatch(problem, out) -> str | None:
    """Why out is not the O(x) outcome scipy's max flow gives, or None."""
    if not out.feasible:
        value, _ = flow_max_fragments(problem, problem.matrix.num_slots)
        return None if value == out.fragments < problem.x else "infeasible outcome differs"
    value, entries = flow_max_fragments(problem, out.completion)
    if (value, entries) != (out.fragments, list(out.schedule.entries)) or value < problem.x:
        return f"F({out.completion}) or its witness differs"
    if out.completion > 1 and flow_max_fragments(problem, out.completion - 1)[0] >= problem.x:
        return f"x already fits by slot {out.completion - 1}"
    return None


def main(argv: list[str]) -> int:
    problems = build_problems(int(argv[0]) if argv else 3)
    best = np.full(len(problems), np.inf)
    for _ in range(REPEATS):
        for i, p in enumerate(problems):
            t0 = time.perf_counter()
            sched.optimal_completion(p)
            best[i] = min(best[i], time.perf_counter() - t0)
    first_fit = np.array([certified(p) for p in problems])
    errors = [(i, why) for i, p in enumerate(problems) if (why := mismatch(p, sched.optimal_completion(p)))]
    restore = np.array([p.direction == sched.RESTORE for p in problems])
    print(f"{len(problems)} problems on {PEERS} x {SLOTS} traces; optimal_completion best of {REPEATS}, in us")
    for name, rows in (("all", np.ones_like(restore)), ("backup", ~restore), ("restore", restore)):
        us, n = best[rows] * 1e6, int(rows.sum())
        done = int(first_fit[rows].sum())
        print(f"{name:>7}: {n} problems, median {np.median(us):.0f}, p95 {np.percentile(us, 95):.0f}, "
              f"mean {us.mean():.0f}; certified by first fit {done} ({done / n:.1%}), "
              f"later phases {n - done} ({1 - done / n:.1%})")
    for i, why in errors[:5]:
        print(f"problem {i}: {why}")
    print("outcomes identical to scipy's max flow alone:", "yes" if not errors else f"NO, {len(errors)} differ")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
