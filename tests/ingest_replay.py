"""Time and trace the ingestion of one generated event log: the per-call cost
and peak memory of ``trace.parse_events`` and ``trace.slotize``.

    PYTHONPATH=src python tests/ingest_replay.py [PEERS SLOTS]

Generates a PEERS x SLOTS log (default 100 x 672, about 35k events, the
shape of the sim-adaptive benchmark input) whose slotization is a known
matrix, then:

- parses and slotizes it REPEATS times and prints each step's best,
  median, p95 and mean time;
- runs each step once more under ``tracemalloc`` and prints its peak, per
  line for parse_events, next to the bytes of the event columns it returns,
  and per event beyond the float coverage matrix for slotize;
- checks the events and warnings against ``loop_parse_events`` and the
  matrix against ``loop_slotize`` and the generated bits, both through
  ``event_tuples``.

The last line is one JSON object: the log's shape, per step the best,
median, p95 and mean time in ms and the traced peak in MiB, and the two
agreement flags.

Not collected by pytest: the file name has no test_ prefix.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

import numpy as np

from p2pbackup import trace
from conftest import event_tuples, synth_event_log
from oracles import loop_parse_events, loop_slotize

PEERS, SLOTS = 100, 672
SEED = 5
REPEATS = 5
SLOT_SECONDS = 3600.0


def traced(step, *args):
    """(result, bytes the result holds, peak bytes) of one traced call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = step(*args)
        held, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return result, held, peak


def main(argv: list[str]) -> int:
    peers, slots = (int(a) for a in argv) if argv else (PEERS, SLOTS)
    lines, bits = synth_event_log(peers, slots, SEED, SLOT_SECONDS)
    samples = np.empty((REPEATS, 2))  # seconds per repeat: parse_events, slotize
    for r in range(REPEATS):
        t0 = time.perf_counter()
        events, warnings = trace.parse_events(lines)
        t1 = time.perf_counter()
        matrix = trace.slotize(events, SLOT_SECONDS, slots)
        t2 = time.perf_counter()
        samples[r] = t1 - t0, t2 - t1
    del events, matrix
    ms = samples * 1e3
    timing = {step: {"best_ms": float(ms[:, i].min()), "median_ms": float(np.median(ms[:, i])),
                     "p95_ms": float(np.percentile(ms[:, i], 95)), "mean_ms": float(ms[:, i].mean())}
              for i, step in enumerate(("parse_events", "slotize"))}
    (events, warnings), _, parse_peak = traced(trace.parse_events, lines)
    matrix, _, slotize_peak = traced(trace.slotize, events, SLOT_SECONDS, slots)
    mb = 1 / 2**20
    count = len(events.timestamp)
    columns = events.peer.nbytes + events.timestamp.nbytes + events.kind.nbytes
    print(f"{peers} peers x {slots} slots: {len(lines)} lines, {count} events, batches of {trace._BATCH}")
    timing["parse_events"]["traced_peak_mib"] = parse_peak * mb
    timing["slotize"]["traced_peak_mib"] = slotize_peak * mb
    for step, t in timing.items():
        print(f"{step}: {t['best_ms']:.1f} ms (best of {REPEATS}; median {t['median_ms']:.1f}, "
              f"p95 {t['p95_ms']:.1f}, mean {t['mean_ms']:.1f}), traced peak {t['traced_peak_mib']:.2f} MiB")
    print(f"parse_events: {parse_peak / len(lines):.0f} bytes per line at its peak; returns {columns * mb:.2f} MiB "
          f"of event columns")
    print(f"slotize: {(slotize_peak - 8 * bits.size) / count:.0f} bytes per event at its peak beyond the float "
          f"coverage matrix")
    expected, expected_warnings = loop_parse_events(lines)
    got = event_tuples(events)
    same_events = warnings == expected_warnings and [(p, t.hex(), k) for p, t, k in got] == [
        (p, t.hex(), k) for p, t, k in expected]
    oracle_bits, peer_ids = loop_slotize(got, SLOT_SECONDS, slots)
    same_matrix = (matrix.peer_ids == peer_ids and np.array_equal(matrix.bits, oracle_bits)
                   and np.array_equal(matrix.bits, bits))
    print("events and warnings identical to loop_parse_events:", "yes" if same_events else "NO")
    print("matrix identical to loop_slotize and the generated bits:", "yes" if same_matrix else "NO")
    print(json.dumps({"peers": peers, "slots": slots, "lines": len(lines), "events": count, "repeats": REPEATS,
                      **timing, "events_identical": same_events, "matrix_identical": same_matrix}))
    return 0 if same_events and same_matrix else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
