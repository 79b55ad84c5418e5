"""Command-line front end for trace analysis, scheduling comparisons,
redundancy planning, and full simulation runs.

Every subcommand takes --seed (default 0) and --out-dir.  Its cmd_*
function writes its outputs into the out dir and returns its own manifest
fields; once they are written, main adds a run-manifest.json that echoes the
subcommand, the seed and those fields, and exits 0.  Outputs are
deterministic functions of the manifest.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__, redundancy, report, sched, sim, trace


def _write_manifest(out: Path, payload: dict) -> None:
    with open(out / "run-manifest.json", "w", encoding="utf-8") as fh:
        json.dump({**payload, "version": __version__}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_matrix(args, seed: int) -> tuple[trace.AvailabilityMatrix, dict]:
    """Resolve the trace source shared by several subcommands; a synthesized
    trace is drawn from seed."""
    if getattr(args, "matrix", None):
        matrix = trace.read_matrix_file(args.matrix)
        source = {"matrix": str(args.matrix)}
    elif getattr(args, "events", None):
        events, warnings = trace.read_event_file(args.events)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        matrix = trace.slotize(events, args.slot_seconds)
        source = {"events": str(args.events), "slot_seconds": args.slot_seconds}
    else:
        matrix = trace.synth_trace(
            args.synth_peers,
            args.synth_slots,
            availability=(args.avail_low, args.avail_high),
            seed=seed,
        )
        source = {
            "synth_peers": args.synth_peers,
            "synth_slots": args.synth_slots,
            "avail_low": args.avail_low,
            "avail_high": args.avail_high,
        }
    return matrix, source


def _add_matrix_flags(parser, synth_default_peers=100, synth_default_slots=672):
    parser.add_argument("--matrix", help="availability matrix file")
    parser.add_argument("--synth-peers", type=int, default=synth_default_peers,
                        help="synthesize a trace with this many peers when no --matrix")
    parser.add_argument("--synth-slots", type=int, default=synth_default_slots,
                        help="slots for the synthesized trace")
    parser.add_argument("--avail-low", type=float, default=0.2,
                        help="lower bound of per-peer availability for synthesis")
    parser.add_argument("--avail-high", type=float, default=0.9,
                        help="upper bound of per-peer availability for synthesis")


# -- trace-stats ---------------------------------------------------------

def cmd_trace_stats(args, out: Path) -> dict:
    if not args.matrix and not args.events:
        raise SystemExit("trace-stats: provide --matrix or --events")
    matrix, source = _load_matrix(args, args.seed)
    ids = matrix.peer_ids if matrix.peer_ids is not None else range(matrix.num_peers)
    if args.min_uptime is not None:  # the kept rows' peer ids, or their indices in the unfiltered matrix
        matrix, ids = trace.filter_min_uptime(matrix, args.min_uptime)
    stats = trace.availability_stats(matrix)
    report.write_csv(out / "trace-stats.csv", ["peer_id", "availability"], zip(ids, stats.per_peer.tolist()))
    print(f"{matrix.num_peers} peers, {matrix.num_slots} slots, "
          f"system availability {stats.system:.4f}"
          + (f" ({len(ids)} kept by uptime filter)" if args.min_uptime is not None else ""))
    return {
        "source": source,
        "min_uptime": args.min_uptime,
        "peers": matrix.num_peers,
        "slots": matrix.num_slots,
        "system_availability": stats.system,
    }


# -- trace-synth ---------------------------------------------------------

def cmd_trace_synth(args, out: Path) -> dict:
    matrix = trace.synth_trace(
        args.peers,
        args.slots,
        availability=(args.avail_low, args.avail_high),
        diurnal_amplitude=args.diurnal,
        weekend_factor=args.weekend,
        slot_seconds=args.slot_seconds,
        seed=args.seed,
    )
    path = out / args.name
    trace.write_matrix_file(matrix, path)
    print(f"wrote {path} ({args.peers} peers x {args.slots} slots)")
    return {
        "peers": args.peers,
        "slots": args.slots,
        "avail_low": args.avail_low,
        "avail_high": args.avail_high,
        "diurnal": args.diurnal,
        "weekend": args.weekend,
        "slot_seconds": args.slot_seconds,
        "output": str(path),
    }


# -- sched-compare -------------------------------------------------------

def _parse_list(text: str, cast) -> list:
    return [cast(tok) for tok in text.split(",") if tok.strip()]


def cmd_sched_compare(args, out: Path) -> dict:
    matrix, source = _load_matrix(args, args.seed)
    xs = _parse_list(args.x, int)
    ratios = _parse_list(args.ratios, float)
    if any(r <= 1 for r in ratios):
        raise SystemExit("sched-compare: ratios must be > 1")
    rng = np.random.default_rng(args.seed)
    bits = matrix.bits
    P, T = matrix.num_peers, matrix.num_slots
    rows = []
    for x in xs:
        for ratio in ratios:
            candidates_n = int(round(ratio * x))
            if x > P - 1 or candidates_n > P - 1:
                rows.append({
                    "x": x, "ratio": ratio, "candidates": candidates_n,
                    "trials": args.trials, "trials_used": 0,
                    "note": "skipped: more peers needed than the trace has",
                })
                continue
            opt_acc, rand_acc, base_acc = [], [], []
            for _ in range(args.trials):
                owner = int(rng.integers(P))
                others = [i for i in range(P) if i != owner]
                chosen = rng.choice(len(others), size=candidates_n, replace=False)
                picked = [others[i] for i in sorted(chosen.tolist())]
                start = int(rng.integers(1, max(2, T // 2)))
                sub = trace.AvailabilityMatrix(
                    bits=bits[[owner] + picked, start - 1:],
                    slot_seconds=matrix.slot_seconds,
                )
                problem = sched.TransferProblem(matrix=sub, owner=0, direction=sched.BACKUP, x=x)
                baseline = sched.ideal_baseline(sub.bits[0], x, 1, start_slot=1)
                optimal = sched.optimal_completion(problem)
                randomized = sched.random_schedule(problem, rng)
                if baseline is None or not optimal.feasible or not randomized.feasible:
                    continue
                opt_acc.append(optimal.completion)
                rand_acc.append(randomized.completion)
                base_acc.append(baseline)
            used = len(opt_acc)
            row = {
                "x": x, "ratio": ratio, "candidates": candidates_n,
                "trials": args.trials, "trials_used": used, "note": "",
            }
            if used:
                mo, mr, mb = np.mean(opt_acc), np.mean(rand_acc), np.mean(base_acc)
                row.update({
                    "mean_optimal": float(mo),
                    "mean_random": float(mr),
                    "mean_baseline": float(mb),
                    "mean_optimal_norm": float(np.mean(np.array(opt_acc) / np.array(base_acc))),
                    "mean_random_norm": float(np.mean(np.array(rand_acc) / np.array(base_acc))),
                })
            else:
                row["note"] = "no feasible trials"
            rows.append(row)
    fieldnames = ["x", "ratio", "candidates", "trials", "trials_used",
                  "mean_optimal", "mean_random", "mean_baseline",
                  "mean_optimal_norm", "mean_random_norm", "note"]
    report.write_csv(out / "sched-compare.csv", fieldnames, ([row.get(name) for name in fieldnames] for row in rows))
    print(f"wrote {out / 'sched-compare.csv'} ({len(rows)} grid points)")
    return {"source": source, "x": xs, "ratios": ratios, "trials": args.trials}


# -- plan ----------------------------------------------------------------

def _field(row: dict, name: str, cast):
    """row[name] as an int or float; the ValueError names a missing or malformed field."""
    value = row.get(name)
    if value is None or value == "":
        raise ValueError(f"missing {name}")
    try:
        return cast(value)
    except ValueError:
        raise ValueError(f"{name} must be {'an integer' if cast is int else 'a number'}, got {value!r}") from None


def _plan_n(row: dict) -> dict:
    k, a, target = _field(row, "k", int), _field(row, "a", float), _field(row, "target", float)
    n = redundancy.fixed_redundancy_n(k, a, target)
    return {"mode": "n", "k": k, "a": a, "target": target, "n": n}


def _plan_loss(row: dict) -> dict:
    n, k = _field(row, "n", int), _field(row, "k", int)
    t_days, lifetime = _field(row, "t_days", float), _field(row, "mean_lifetime_days", float)
    p = redundancy.data_loss_probability(n, k, t_days, lifetime)
    return {"mode": "loss", "n": n, "k": k, "t_days": t_days,
            "mean_lifetime_days": lifetime, "probability": p}


def cmd_plan(args, out: Path) -> dict:
    results = []
    if args.batch:
        with open(args.batch, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)  # a short row reads None for each field it lacks
            for row in reader:
                mode = (row.get("mode") or "").strip() or ("loss" if row.get("t_days") else "n")
                try:
                    if mode not in ("n", "loss"):
                        raise ValueError(f"mode must be n or loss, got {mode!r}")
                    results.append(_plan_loss(row) if mode == "loss" else _plan_n(row))
                except ValueError as exc:
                    raise ValueError(f"{args.batch}: line {reader.line_num}: {exc}") from None
    elif args.loss:
        if args.n is None or args.k is None or args.t_days is None:
            raise SystemExit("plan --loss requires --n, --k and --t-days")
        results.append(_plan_loss({
            "n": args.n, "k": args.k, "t_days": args.t_days,
            "mean_lifetime_days": args.lifetime,
        }))
    else:
        if args.k is None or args.a is None or args.target is None:
            raise SystemExit("plan requires --k, --a and --target (or --loss / --batch)")
        results.append(_plan_n({"k": args.k, "a": args.a, "target": args.target}))
    fieldnames = ["mode", "k", "a", "target", "n", "t_days", "mean_lifetime_days", "probability"]
    report.write_csv(out / "plan.csv", fieldnames, ([res.get(name) for name in fieldnames] for res in results))
    for res in results:
        if res["mode"] == "n":
            print(f"k={res['k']} a={res['a']} target={res['target']} -> n={res['n']}")
        else:
            print(f"n={res['n']} k={res['k']} t_days={res['t_days']} "
                  f"lifetime={res['mean_lifetime_days']} -> p={res['probability']}")
    return {"batch": str(args.batch) if args.batch else None, "queries": len(results)}


# -- simulate ------------------------------------------------------------

# every SimConfig field is a simulate flag, --field-name unless renamed
# here; flags override config-file keys, and --seed is a common flag
_SIM_FLAG_NAMES = {"redundancy_policy": "--policy"}


def _average_summaries(rows: list[dict]) -> dict:
    """Mean of numeric fields across runs, skipping NaN entries; text fields
    keep the first run's value.  Rows are summary_row output: every cell is a
    number (NaN when undefined) or text, such as the adaptive policy's fixed_n."""
    merged: dict = {}
    for key, first in rows[0].items():
        if isinstance(first, str):
            merged[key] = first
            continue
        values = [float(row[key]) for row in rows if not math.isnan(row[key])]
        merged[key] = float(np.mean(values)) if values else math.nan
    return merged


def cmd_simulate(args, out: Path) -> dict:
    mapping: dict = {}
    if args.config:
        mapping.update(sim.load_config(args.config))
    for f in fields(sim.SimConfig):
        value = getattr(args, f.name)
        if value is not None:
            mapping[f.name] = value
    config = sim.SimConfig.from_mapping(mapping)
    matrix, source = _load_matrix(args, config.seed)
    if args.runs < 1:
        raise SystemExit("simulate: --runs must be >= 1")
    # an owner needs fixed n (or at least k) holders, all distinct other
    # peers, and a holder needs room for one fragment
    max_holders = matrix.num_peers - 1
    summaries = []
    for i in range(args.runs):
        run_config = replace(config, seed=config.seed + i)
        simulation = sim.Simulation(run_config, matrix)
        if i == 0:  # fixed n depends on the trace, not on the seed
            name, need = ("k", config.k) if simulation.fixed_n is None else ("fixed n", simulation.fixed_n)
            if config.storage_quota < config.fragment_size:
                problem = (f"storage_quota = {config.storage_quota} is below one "
                           f"fragment of {config.fragment_size} bytes")
            elif need > max_holders:
                problem = f"{name} = {need} needs more holders than the {max_holders} other peers"
            else:
                problem = None
            target_reachable = problem is None
            if problem:
                print(f"warning: {problem}", file=sys.stderr)
        result = simulation.run()
        report.write_report_csvs(result, out / f"run-{i}")
        summaries.append(report.summary_row(result))
    merged = _average_summaries(summaries)
    merged["runs"] = args.runs
    report.write_summary_row(merged, out / "summary.csv")
    print(f"{args.runs} run(s) complete; averaged summary at {out / 'summary.csv'}")
    return {
        "seed": config.seed,  # the resolved seed: a config file can set it
        "runs": args.runs,
        "source": source,
        "config": config.to_mapping(),
        "max_holders": max_holders,
        "target_reachable": target_reachable,
    }


# -- parser --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p2pbackup",
        description="Trace-driven peer-to-peer backup: scheduling, redundancy planning, simulation.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="random seed (default 0)")
    common.add_argument("--out-dir", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace-stats", parents=[common],
                       help="availability statistics of a trace")
    p.add_argument("--matrix", help="availability matrix file")
    p.add_argument("--events", help="login/logoff event file")
    p.add_argument("--slot-seconds", type=float, default=trace.DEFAULT_SLOT_SECONDS)
    p.add_argument("--min-uptime", type=float, default=None,
                   help="drop peers below this availability fraction")
    p.set_defaults(func=cmd_trace_stats)

    p = sub.add_parser("trace-synth", parents=[common], help="synthesize an availability trace")
    p.add_argument("--peers", type=int, required=True)
    p.add_argument("--slots", type=int, required=True)
    p.add_argument("--avail-low", type=float, default=0.2)
    p.add_argument("--avail-high", type=float, default=0.9)
    p.add_argument("--diurnal", type=float, default=0.3, help="diurnal modulation amplitude")
    p.add_argument("--weekend", type=float, default=1.0, help="weekend availability factor")
    p.add_argument("--slot-seconds", type=float, default=trace.DEFAULT_SLOT_SECONDS)
    p.add_argument("--name", default="trace.txt", help="output file name inside --out-dir")
    p.set_defaults(func=cmd_trace_synth)

    p = sub.add_parser("sched-compare", parents=[common],
                       help="optimal vs random transfer scheduling over a trace")
    _add_matrix_flags(p, synth_default_peers=200, synth_default_slots=504)
    p.add_argument("--x", default="40,60,80", help="fragment counts, comma separated")
    p.add_argument("--ratios", default="1.1,1.25,1.5,1.75,2.0",
                   help="candidate-to-fragment ratios I/x, comma separated")
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(func=cmd_sched_compare)

    p = sub.add_parser("plan", parents=[common], help="redundancy planning calculations")
    p.add_argument("--k", type=int)
    p.add_argument("--a", type=float, help="average peer availability")
    p.add_argument("--target", type=float, help="fragment availability target")
    p.add_argument("--loss", action="store_true", help="compute data-loss probability instead")
    p.add_argument("--n", type=int)
    p.add_argument("--t-days", type=float)
    p.add_argument("--lifetime", type=float, default=90.0, dest="lifetime",
                   help="mean peer lifetime in days")
    p.add_argument("--batch", help="CSV of queries (mode,k,a,target,n,t_days,mean_lifetime_days)")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", parents=[common], help="full system simulation")
    _add_matrix_flags(p)
    p.add_argument("--config", help="key=value config file; flags override")
    p.add_argument("--runs", type=int, default=1,
                   help="average this many runs over seeds seed..seed+N-1")
    for f in fields(sim.SimConfig):
        if f.name != "seed":
            flag = _SIM_FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
            cast = {"int": int, "float": float}.get(f.type, str)
            p.add_argument(flag, dest=f.name, type=cast, default=None)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is None and args.command != "simulate":
        args.seed = 0
    try:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_manifest(out, {"subcommand": args.command, "seed": args.seed, **args.func(args, out)})
        return 0
    except SystemExit:
        raise
    except (OSError, ValueError, redundancy.SearchCeilingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
