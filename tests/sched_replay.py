"""Time ``sched.optimal_completion`` and ``sched.random_schedule`` on
problems shaped like the sched-mixed benchmark's, and check every outcome:
O(x) against scipy's max flow alone, each witness for validity, and the
randomized rule against the per-pick loop.

    PYTHONPATH=src python tests/sched_replay.py [GROUPS]

Builds GROUPS (default 3) synthetic 200 x 504 traces and cuts 72 problems
from each the way sched-mixed does: backups from ratio * x peers, and every
fourth a restore from about half as many holders with owner_rate 2 and
per_peer_cap 2.  Then, per direction, it:

- times ``optimal_completion`` and ``random_schedule`` REPEATS times per
  problem and prints the median, p95 and mean of each problem's best time;
  ``random_schedule`` gets a fresh generator seeded [SEED, problem index]
  each time, made outside the timed call;
- counts the problems whose first probe, at the owner-capacity bound,
  first fit certifies, and those where it leaves a slot short, so that
  augmenting paths run;
- prints the mean and max number of augmenting paths over the probes of
  ``optimal_completion`` where first fit leaves a slot short: F(T) less
  first fit's fragments;
- checks each outcome against ``flow_max_fragments``: a feasible O(x) must
  reach x at its completion and not one slot earlier, with the same
  fragment count, and its witness must be a valid schedule of that many
  fragments completing at O(x); an infeasible one must report F(horizon);
- checks each ``random_schedule`` outcome against ``loop_random_schedule``
  from the same seed, and the generator's final state against the loop's,
  which makes one ``rng.integers`` call per pick.

The last line is one JSON object: the problem count and repeats; per
direction (all, backup, restore) the median, p95 and mean best time in us
of each timed call and first fit's certified and augmented counts; the
augmenting paths per short probe; and the two agreement flags.

Not collected by pytest: the file name has no test_ prefix.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from p2pbackup import sched, trace
from conftest import cut_problems, generator_state
from oracles import flow_max_fragments, loop_random_schedule

PEERS, SLOTS, PER_GROUP = 200, 504, 72
XS, RATIOS = (40, 60, 80), (1.1, 1.5, 2.0)
RESTORE_RATES = (2, 2)  # owner_rate, per_peer_cap
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


def augmenting_paths(problem) -> list[int]:
    """The augmenting paths of each probe optimal_completion(problem) makes
    where first fit leaves a slot short: F(T) less first fit's fragments."""
    paths, solve = [], sched.max_fragments

    def probe(p, T):
        value, schedule = solve(p, T)
        *_, entries, _, short = sched._first_fit(p, T)
        if short:
            paths.append(value - len(entries))
        return value, schedule

    sched.max_fragments = probe
    try:
        sched.optimal_completion(problem)
    finally:
        sched.max_fragments = solve
    return paths


def mismatch(problem, out) -> str | None:
    """Why out is not the O(x) outcome scipy's max flow gives, or its
    witness not a valid schedule of F(O(x)) fragments completing at O(x),
    or None."""
    if not out.feasible:
        value, _ = flow_max_fragments(problem, problem.matrix.num_slots)
        return None if value == out.fragments < problem.x else "infeasible outcome differs"
    value, _ = flow_max_fragments(problem, out.completion)
    if value != out.fragments or value < problem.x:
        return f"F({out.completion}) differs"
    if (len(out.schedule) != value or sched.validate_schedule(problem, out.schedule)
            or sched.completion_time(out.schedule) != out.completion):
        return f"the witness at {out.completion} is not a valid schedule of F({out.completion}) fragments"
    if out.completion > 1 and flow_max_fragments(problem, out.completion - 1)[0] >= problem.x:
        return f"x already fits by slot {out.completion - 1}"
    return None


def random_mismatch(problem, seed) -> str | None:
    """Why random_schedule from seed differs from the per-pick loop, in
    its outcome or in the generator's final state, or None."""
    rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    out = sched.random_schedule(problem, rng)
    entries = loop_random_schedule(problem.matrix.bits.tolist(), problem.owner, problem.candidates, problem.x,
                                   problem.owner_rate, problem.per_peer_cap, loop_rng)
    if len(entries) == problem.x:
        expected = (True, tuple(entries), max(s for _, s in entries), problem.x)
    else:
        expected = (False, None, 0, len(entries))
    if (out.feasible, out.schedule, out.completion, out.fragments) != expected:
        return "random_schedule outcome differs from the per-pick loop"
    if generator_state(rng) != generator_state(loop_rng):
        return "random_schedule leaves the generator in another state than the per-pick loop"
    return None


def report(name: str, best: np.ndarray, directions: dict, notes=None) -> dict:
    """Print the median, p95 and mean of best (in us) for each direction's
    rows, each row followed by its note when notes are given; returns them
    by direction."""
    print(f"{name} best of {REPEATS}, in us")
    summary = {}
    for direction, rows in directions.items():
        us, n = best[rows] * 1e6, int(rows.sum())
        summary[direction] = {"problems": n, "median_us": float(np.median(us)),
                              "p95_us": float(np.percentile(us, 95)), "mean_us": float(us.mean())}
        note = f"; {notes(rows)}" if notes else ""
        print(f"{direction:>7}: {n} problems, median {np.median(us):.0f}, p95 {np.percentile(us, 95):.0f}, "
              f"mean {us.mean():.0f}{note}")
    return summary


def main(argv: list[str]) -> int:
    problems = build_problems(int(argv[0]) if argv else 3)
    best_optimal = np.full(len(problems), np.inf)
    best_random = np.full(len(problems), np.inf)
    for _ in range(REPEATS):
        for i, p in enumerate(problems):
            t0 = time.perf_counter()
            sched.optimal_completion(p)
            best_optimal[i] = min(best_optimal[i], time.perf_counter() - t0)
            rng = np.random.default_rng([SEED, i])
            t0 = time.perf_counter()
            sched.random_schedule(p, rng)
            best_random[i] = min(best_random[i], time.perf_counter() - t0)
    first_fit = np.array([certified(p) for p in problems])
    paths = [n for p in problems for n in augmenting_paths(p)]
    errors = [(i, why) for i, p in enumerate(problems) if (why := mismatch(p, sched.optimal_completion(p)))]
    random_errors = [(i, why) for i, p in enumerate(problems) if (why := random_mismatch(p, [SEED, i]))]
    restore = np.array([p.direction == sched.RESTORE for p in problems])
    directions = {"all": np.ones_like(restore), "backup": ~restore, "restore": restore}

    def certified_share(rows):
        n, done = int(rows.sum()), int(first_fit[rows].sum())
        return (f"certified by first fit {done} ({done / n:.1%}), "
                f"augmented {n - done} ({1 - done / n:.1%})")

    print(f"{len(problems)} problems on {PEERS} x {SLOTS} traces")
    summary = {"problems": len(problems), "repeats": REPEATS,
               "optimal_completion": report("optimal_completion", best_optimal, directions, certified_share),
               "random_schedule": report("random_schedule", best_random, directions),
               "first_fit": {direction: {"certified": int(first_fit[rows].sum()),
                                         "augmented": int((~first_fit[rows]).sum())}
                             for direction, rows in directions.items()},
               "augmenting_paths": {"short_probes": len(paths), "mean": float(np.mean(paths)) if paths else 0.0,
                                    "max": max(paths, default=0)}}
    if paths:
        print(f"augmenting paths per short probe: mean {np.mean(paths):.2f}, max {max(paths)}, "
              f"over {len(paths)} short probes")
    for i, why in (errors + random_errors)[:5]:
        print(f"problem {i}: {why}")
    print("outcomes agree with scipy's max flow alone, witnesses valid:",
          "yes" if not errors else f"NO, {len(errors)} differ")
    print("random_schedule identical to the per-pick loop:",
          "yes" if not random_errors else f"NO, {len(random_errors)} differ")
    summary["agrees_with_scipy"], summary["random_identical_to_loop"] = not errors, not random_errors
    print(json.dumps(summary))
    return 1 if errors or random_errors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
