"""p2pbackup benchmark: one workload per invocation, one process, one thread.

    python3 perfbench/run.py --workload sim-adaptive --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each exists):

- ``sim-adaptive``: 100 peers x 672 hourly slots, adaptive policy.
- ``sim-fixed-assisted``: 200 peers x 336 slots, fixed policy,
  delayed_assisted response, four simulations per group.
- ``sched-mixed``: scheduling problems, 72 per 200 x 504 trace.

The seed and the length pick the run's input groups (see workloads.py); the
library sees only the generated files, and every operation runs once.
``--trace 0`` measures the end-to-end metrics with no instrumentation.
Throughput is the median over the run's groups of each group's totals;
solve latencies are percentiles over every solve of the run.  Both are at
nominal host speed: a fixed reference chunk (gauge.py) runs about every
10 ms among the operations, off their clock, and each group's times are
divided by how much slower than nominal its chunks ran.  The result file
also keeps the unscaled throughput and each group's slowdown.  Set-up
times are not scaled.  ``--trace 1``
wraps the library's public functions and reports per-layer metrics, per
operation, plus the traced run's time against an untraced run of the same
inputs in a child process.  Every operation's output fingerprint is compared
with ``golden/<workload>.json``.

Results go to ``perfbench/out/``; the last line of standard output is the
JSON summary.  ``--smoke`` runs toy sizes; ``--write-golden`` records
fingerprints for the listed groups instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden"
SPEC_PATH = ROOT / "BENCHMARK.json"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3
MODULES = ("trace", "sched", "redundancy", "sim", "report")
WORKLOAD_NAMES = ("sim-adaptive", "sim-fixed-assisted", "sched-mixed")


def import_seconds() -> list[float]:
    """Seconds to import p2pbackup in each of SETUP_REPEATS fresh
    interpreters."""
    code = ("import time; t = time.perf_counter(); import p2pbackup; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}


def golden_path(workload: str, smoke: bool) -> Path:
    return GOLDEN / f"{workload}{'.smoke' if smoke else ''}.json"


def load_golden(path: Path) -> dict:
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    return {"versions": {}, "fingerprints": {}}


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    data = sorted(values)
    rank = max(1, -(-len(data) * pct // 100))
    return data[int(rank) - 1]


def fingerprint_diff(expected, actual) -> str:
    if isinstance(expected, dict) and isinstance(actual, dict):
        files = sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))
        return "differs in " + ", ".join(files)
    return f"fingerprint {actual} != {expected}"


class Runner:
    """Runs operations, checks them against the golden fingerprints and
    records which failed."""

    def __init__(self, workload, workdir: Path, golden: dict, gauge):
        self.workload = workload
        self.workdir = workdir
        self.gauge = gauge
        self.golden = golden  # group -> fingerprint per operation
        self.attempted = 0
        self.failures: list[str] = []

    def setup(self, prepared_errors) -> None:
        self.attempted += 1
        if prepared_errors:
            self.failures.append("set-up: " + "; ".join(prepared_errors))

    def op(self, item, recorder=None, op_id: int = 0):
        """Run and check one operation; None if it raised.  An item starts
        with its group and its index in the group."""
        group, index = item[0], item[1]
        gauge = self.gauge
        self.attempted += 1
        try:
            chunk_s, chunks = gauge.chunk_s, gauge.chunks
            gauge.pace()
            with recorder.recording(op_id) if recorder is not None else nullcontext():
                result = self.workload.run_op(item, self.workdir, gauge)
            result.group = group
            result.chunk_s, result.chunks = gauge.chunk_s - chunk_s, gauge.chunks - chunks
            self.workload.verify(result)
            result.outputs = None
        except Exception as exc:  # an operation that raises counts as failed
            self.failures.append(f"group {group} item {index}: raised {exc!r}")
            return None
        errors = list(result.errors)
        pinned = self.golden.get(str(group), [])
        if index >= len(pinned):
            errors.append("no golden fingerprint")
        elif pinned[index] != result.fingerprint:
            errors.append(f"golden mismatch: {fingerprint_diff(pinned[index], result.fingerprint)}")
        if errors:
            self.failures.append(f"group {group} item {index}: " + "; ".join(errors))
        return result


def untraced_reference(args) -> dict:
    """The result line of an untraced run of the same inputs, in a child
    process, so that no input runs twice in one process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []), capture_output=True,
                          text=True, timeout=150, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def group_slowdowns(done, groups) -> dict[int, float]:
    """The host's slowdown over each group's operations, from the reference
    chunks run among them."""
    from gauge import slowdown

    return {group: slowdown(sum(r.chunk_s for r in done if r.group == group),
                            sum(r.chunks for r in done if r.group == group)) for group in groups}


def end_to_end_metrics(done, groups, factor: dict, import_s: float, setup_samples) -> dict:
    """Throughput as the median over groups of each group's totals, solve
    latency over every solve of the run, all at nominal host speed: each
    group's times are divided by factor[group], the host's slowdown over
    that group."""
    per_group = []
    for group in groups:
        ops = [r for r in done if r.group == group]
        if ops:
            seconds = sum(r.seconds for r in ops) / factor[group]
            per_group.append((sum(r.cells for r in ops) / seconds, len(ops) / seconds))
    latencies = [x / factor[r.group] for r in done for x in r.latencies]
    return {
        "setup_s": import_s + statistics.median(setup_samples),
        "peer_slots_per_s": statistics.median(p[0] for p in per_group) if per_group else 0.0,
        "solves_per_s": statistics.median(p[1] for p in per_group) if per_group else 0.0,
        "solve_p50_ms": 1000 * percentile(latencies, 50) if latencies else 0.0,
        "solve_p95_ms": 1000 * percentile(latencies, 95) if latencies else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(spec_layers, recorder, tables, ops: int, overhead: float) -> dict:
    """Each per-layer metric BENCHMARK.json names.  A name <span>.<field>
    with field calls, s or self_s reads the span table: per set-up when its
    unit is s/setup, per operation otherwise.  The rest are derived here."""
    op_rows = tables["op"]
    counters = recorder.counters
    bc_calls = op_rows.get("redundancy.backup_complete", {}).get("calls", 0.0) * ops
    derived = {
        "redundancy.backup_complete.distinct_frac":
            counters["redundancy.backup_complete.distinct"] / bc_calls if bc_calls else 0.0,
        "sim.allocate_slot_transfers.transfers": counters["sim.allocate_slot_transfers.transfers"] / ops,
        "sched.build_flow_network.arcs": counters["sched.build_flow_network.arcs"] / ops,
        "sched.flow_solves_per_problem": op_rows.get("sched.max_flow", {}).get("calls", 0.0),
        "tracing_overhead_frac": overhead,
    }
    metrics = {}
    for m in spec_layers:
        name = m["name"]
        if name in derived:
            metrics[name] = derived[name]
        else:
            span, _, fld = name.rpartition(".")
            rows = tables["setup"] if m["unit"] == "s/setup" else op_rows
            metrics[name] = rows.get(span, {}).get(fld, 0.0)
    return metrics


def measure(args, spec) -> dict:
    import p2pbackup
    import workloads
    from gauge import HostGauge
    from spans import SETUP_OP, SpanRecorder

    workload = (workloads.SMOKE if args.smoke else workloads.WORKLOADS)[args.workload]
    golden = load_golden(golden_path(args.workload, args.smoke))
    groups = workloads.run_groups(workload, args.seed, args.seconds)
    reference = untraced_reference(args) if args.trace else None

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    recorder = None
    gauge = HostGauge()
    try:
        inputs = [workload.make_group(g, workdir) for g in groups]
        runner = Runner(workload, workdir, golden["fingerprints"], gauge)
        if args.trace:
            recorder = SpanRecorder(clock=gauge.clock)
            recorder.instrument(p2pbackup, MODULES)
            runner.attempted += 1
            if not reference["correct"]:
                runner.failures.append(f"untraced reference run failed {reference['failed']} operations")
        import_samples = [0.0] if args.trace else import_seconds()  # setup_s is not reported traced
        setup_samples = []
        for _ in range(SETUP_REPEATS):
            with recorder.recording(SETUP_OP) if recorder is not None else nullcontext():
                t0 = gauge.clock()
                items, setup_errors = workload.prepare(inputs)
                setup_samples.append(gauge.clock() - t0)
            runner.setup(setup_errors)
        results = [runner.op(item, recorder, op_id) for op_id, item in enumerate(items)]
    finally:
        if recorder is not None:
            recorder.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    done = [r for r in results if r is not None]
    latencies = [x for r in done for x in r.latencies]
    failed = len(runner.failures)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "groups": groups,
        "versions": versions(),
        "golden_versions": golden.get("versions", {}),
        "reference_chunks": gauge.chunks,
        "attempted": runner.attempted,
        "failed": failed,
        "failed_frac": failed / runner.attempted,
        "failures": runner.failures[:50],
        "setup": {"import_s": import_samples, "prepare_s": setup_samples},
        "samples": {"op_seconds": [r.seconds for r in done],  # as measured, not scaled
                    "op_groups": [r.group for r in done],
                    "solves": len(latencies),
                    "solve_s": [round(x, 7) for x in latencies]},
    }
    factor = group_slowdowns(done, groups)
    import_s = statistics.median(import_samples)
    e2e = end_to_end_metrics(done, groups, factor, import_s, setup_samples)
    unscaled = end_to_end_metrics(done, groups, dict.fromkeys(groups, 1.0), import_s, setup_samples)
    summary["unscaled_throughput"] = {k: unscaled[k] for k in ("peer_slots_per_s", "solves_per_s")}
    if recorder is None:
        summary["metrics"] = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    else:
        ops = max(len(done), 1)
        untraced_rate = reference["metrics"]["peer_slots_per_s"]["value"]
        overhead = untraced_rate / e2e["peer_slots_per_s"] - 1 if e2e["peer_slots_per_s"] else 0.0
        # span times at nominal host speed, like the end-to-end metrics
        op_scale = {op_id: 1 / factor[item[0]] for op_id, item in enumerate(items)}
        tables = recorder.table(num_ops=ops, num_setups=SETUP_REPEATS, op_scale=op_scale)
        summary["metrics"] = layer_metrics(spec["per_layer"], recorder, tables, ops, overhead)
        op_seconds = sum(r.seconds / factor[r.group] for r in done) / ops
        summary["op_seconds"] = op_seconds
        summary["layers"] = {
            phase: {name: row | {"share": row["self_s"] / op_seconds if phase == "op" and op_seconds else None}
                    for name, row in sorted(rows.items())}
            for phase, rows in tables.items()
        }
        summary["module_share"] = {
            module: sum(row["share"] for name, row in summary["layers"]["op"].items()
                        if name.startswith(module + "."))
            for module in MODULES
        }
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(recorder.spans_json()), encoding="utf-8")
        summary["spans_file"] = str(spans_path.relative_to(ROOT))
    summary["host_slowdown"] = {str(g): f for g, f in factor.items()}
    summary["correct"] = failed == 0
    return summary


def write_golden(args) -> None:
    """Record the fingerprint of every operation in the given groups."""
    import workloads
    from gauge import HostGauge

    workload = (workloads.SMOKE if args.smoke else workloads.WORKLOADS)[args.workload]
    path = golden_path(args.workload, args.smoke)
    golden = load_golden(path)
    golden["versions"] = versions()
    written = {}
    for group in args.golden_groups:
        workdir = OUT / f"golden-{args.workload}-{group}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            items, errors = workload.prepare([workload.make_group(group, workdir)])
            if errors:
                raise SystemExit(f"group {group}: {errors}")
            prints = []
            for item in items:
                result = workload.run_op(item, workdir, HostGauge())
                workload.verify(result)
                if result.errors:
                    raise SystemExit(f"group {group} item {item[1]}: {result.errors}")
                prints.append(result.fingerprint)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        written[str(group)] = prints
        print(f"{path.name} group {group}: {len(prints)} fingerprints", flush=True)
    per_group = {**load_golden(path)["fingerprints"], **written}  # keep groups written meanwhile
    golden["fingerprints"] = dict(sorted(per_group.items(), key=lambda kv: int(kv[0])))
    GOLDEN.mkdir(exist_ok=True)
    path.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


def parse_groups(text: str) -> list[int]:
    groups = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        groups.extend(range(int(lo), int(hi or lo) + 1))
    return groups


def bootstrap() -> bool:
    """Pin BLAS threads to one and import p2pbackup from this checkout only."""
    if not (SRC / "p2pbackup" / "__init__.py").is_file():
        print(f"error: no p2pbackup source tree at {SRC}", file=sys.stderr)
        return False
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the smoke test")
    parser.add_argument("--write-golden", dest="golden_groups", type=parse_groups, default=None,
                        metavar="GROUPS", help="record fingerprints for groups such as 0-9,20")
    args = parser.parse_args(argv)

    if not bootstrap():
        return 2

    if args.golden_groups is not None:
        write_golden(args)
        return 0

    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    summary = measure(args, spec)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    (OUT / f"result-{tag}.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} groups={summary['groups']} "
          f"host_slowdown={summary['host_slowdown']}")
    print(f"failed_frac = {summary['failed_frac']!r} ({summary['failed']}/{summary['attempted']})")
    for line in summary["failures"][:10]:
        print(f"FAILED {line}")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name, value in summary["metrics"].items():
        print(f"{name} = {value!r} {units[name]}")
    if not args.trace:
        print(f"solve samples = {summary['samples']['solves']}")
    else:
        print("module share of the timed section: " + ", ".join(
            f"{module} {100 * share:.2f}%" for module, share in summary["module_share"].items()))
        print("layer share of the timed section (self time per operation):")
        for name, row in sorted(summary["layers"]["op"].items(), key=lambda kv: -kv[1]["share"]):
            if row["share"] >= 0.001:
                print(f"  {name:42s} {100 * row['share']:6.2f}%  {row['calls']:10.1f} calls/op")
    result = {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in summary["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
