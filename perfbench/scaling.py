"""Peer-scaling side report, not gated: sim-fixed-assisted settings at 100,
200 and 400 peers x 168 slots, one simulation of input group 0 each.

    python3 perfbench/scaling.py

Prints seconds per simulation and the fitted exponent of time against peer
count, and writes perfbench/out/scaling.json.  Bookkeeping that scans every
peer for every transfer makes the exponent close to 2.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import sys

import run

PEERS = (100, 200, 400)
SLOTS = 168


def main() -> int:
    if not run.bootstrap():
        return 2
    import workloads
    from gauge import HostGauge, slowdown

    base = workloads.WORKLOADS["sim-fixed-assisted"]
    rows = []
    for peers in PEERS:
        workload = dataclasses.replace(base, peers=peers, slots=SLOTS, pool=1)
        workdir = run.OUT / f"scaling-{peers}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            items, errors = workload.prepare([workload.make_group(0, workdir)])
            gauge = HostGauge()
            op = workload.run_op(items[0], workdir, gauge)
            workload.verify(op)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        rows.append({"peers": peers, "slots": SLOTS, "seconds": op.seconds,
                     "host_slowdown": slowdown(gauge.chunk_s, gauge.chunks),
                     "peer_slots_per_s": op.cells / op.seconds, "errors": errors + op.errors})
        print(f"{peers:5d} peers x {SLOTS} slots: {op.seconds:8.3f} s", flush=True)
    first, last = rows[0], rows[-1]
    exponent = math.log(last["seconds"] / first["seconds"]) / math.log(last["peers"] / first["peers"])
    print(f"time ~ peers^{exponent:.2f}")
    report = {"versions": run.versions(), "rows": rows, "exponent": exponent}
    (run.OUT / "scaling.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 1 if any(r["errors"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
