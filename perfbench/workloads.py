"""Benchmark workloads: seeded inputs, set-up, and one operation each.

Every workload is a closed loop with one client: the next operation starts
only when the previous one has finished.  An operation is one simulation
(``Simulation.run`` plus ``write_report_csvs``) for the sim workloads and one
scheduling problem (``ideal_baseline``, ``optimal_completion`` and
``random_schedule``) for sched-mixed.  The library receives only the files
generated here: an event log per simulation input, a matrix file for the
scheduling trace.

Inputs come in groups.  Group g of a workload is generated from the seed
(key, g) alone, and ``golden/<workload>.json`` pins the output fingerprint of
every operation in groups 0 to catalogue - 1.  A run takes
round(seconds / group_seconds) consecutive groups, starting at a place the
run's seed picks, and runs each operation once, so a run never repeats an
input and every run of the same seed and length does the same work.
Import this module only after p2pbackup is importable.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from p2pbackup import report, sched, sim, trace

MIB = 1 << 20
FRAG = 160 * MIB
SLOT_SECONDS = 3600.0


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@dataclass
class OpResult:
    """What one operation produced: timed seconds, solver latencies, trace
    cells covered and the raw outputs; verify() fills in the output
    fingerprint and any failed checks."""

    seconds: float
    cells: int
    latencies: list[float]
    outputs: object
    group: int = 0
    chunk_s: float = 0.0  # reference chunks run during the operation
    chunks: int = 0
    fingerprint: object = None
    errors: list[str] = field(default_factory=list)


# -- generated input files ------------------------------------------------

def _synth_bits(peers: int, slots: int, availability, diurnal: float, seed: int) -> np.ndarray:
    matrix = trace.synth_trace(peers, slots, availability=availability,
                               diurnal_amplitude=diurnal, weekend_factor=0.8, seed=seed)
    return np.array(matrix.bits, dtype=np.uint8)


def write_event_log(path: Path, bits: np.ndarray, rng: np.random.Generator) -> None:
    """A login/logoff log whose slotization is exactly bits.

    Each run of online slots becomes one session that starts up to a quarter
    slot late and ends up to a quarter slot early; some offline slots get a
    blip shorter than half a slot, and some logins are logged twice, so
    parsing and slotizing have real work to do.
    """
    events = []
    peers, slots = bits.shape
    for i in range(peers):
        pid = f"peer{i:04d}"
        row = np.concatenate(([0], bits[i], [0])).astype(np.int8)
        edges = np.flatnonzero(np.diff(row))
        for a, b in zip(edges[::2], edges[1::2]):
            start = (a + 0.25 * rng.random()) * SLOT_SECONDS
            end = (b - 0.25 * rng.random()) * SLOT_SECONDS
            events.append((start, pid, "login"))
            if rng.random() < 0.05:
                events.append((start + 1.0, pid, "login"))
            events.append((end, pid, "logoff"))
        for t in np.flatnonzero(bits[i] == 0):
            if rng.random() < 0.1:
                start = (t + 0.1 + 0.3 * rng.random()) * SLOT_SECONDS
                events.append((start, pid, "login"))
                events.append((start + 0.3 * SLOT_SECONDS, pid, "logoff"))
    events.sort()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# peer_id,timestamp_seconds,kind\n")
        for ts, pid, kind in events:
            fh.write(f"{pid},{ts:.3f},{kind}\n")


def write_matrix(path: Path, bits: np.ndarray) -> None:
    """The matrix-file format, written independently of the library."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"peers={bits.shape[0]} slots={bits.shape[1]} slot_seconds={SLOT_SECONDS:g}\n")
        for row in bits:
            fh.write("".join("1" if b else "0" for b in row) + "\n")


def run_groups(workload, seed: int, seconds: float) -> list[int]:
    """The groups a run of this seed and length takes, none twice."""
    count = min(workload.catalogue, max(1, round(seconds / workload.group_seconds)))
    return [(seed * count + k) % workload.catalogue for k in range(count)]


# -- simulation workloads -------------------------------------------------

@dataclass(frozen=True)
class SimWorkload:
    """A group is pool seeded event logs, each with its own config seed.
    Per-slot latencies come from timing the gaps between the per-slot calls
    of Simulation.assisted_repair_check, where the host gauge also runs its
    reference chunks; a simulation that does not make them gives one
    latency sample, its whole run."""

    name: str
    key: int
    peers: int
    slots: int
    pool: int
    config: dict
    catalogue: int  # groups 0 .. catalogue - 1 have golden fingerprints
    group_seconds: float  # nominal seconds of one group's operations

    def make_group(self, group: int, workdir: Path) -> list[dict]:
        rng = _rng(self.key, group)
        inputs = []
        for i in range(self.pool):
            bits = _synth_bits(self.peers, self.slots, (0.3, 0.7), 0.5, int(rng.integers(2**31)))
            path = workdir / f"events-{group}-{i}.log"
            write_event_log(path, bits, rng)
            inputs.append({"group": group, "path": path, "bits": bits, "config_seed": int(rng.integers(2**31))})
        return inputs

    def prepare(self, groups: list[list[dict]]) -> tuple[list, list[str]]:
        """Set-up: ingest each event log and build its Simulation.  Each
        item is (group, index in group, config, matrix, Simulation)."""
        items, errors = [], []
        for group_items in groups:
            for i, spec in enumerate(group_items):
                with open(spec["path"], encoding="utf-8") as fh:
                    events, _warnings = trace.parse_events(fh)
                matrix = trace.slotize(events, SLOT_SECONDS, num_slots=self.slots)
                if not np.array_equal(matrix.bits, spec["bits"]):
                    errors.append(f"{spec['path'].name}: slotized events differ from the generated trace")
                config = sim.SimConfig.from_mapping({**self.config, "seed": spec["config_seed"]})
                items.append((spec["group"], i, config, matrix, sim.Simulation(config, matrix)))
        return items, errors

    def run_op(self, item, workdir: Path, gauge) -> OpResult:
        group, index, config, matrix, simulation = item
        out = workdir / f"report-{group}-{index}"
        clock = gauge.clock
        stamps = []
        per_slot = getattr(simulation, "assisted_repair_check", None)
        if per_slot is not None:
            def stamped(*args, **kwargs):
                stamps.append(clock())
                gauge.pace()
                return per_slot(*args, **kwargs)

            simulation.assisted_repair_check = stamped
        t0 = clock()
        result = simulation.run()
        t_run = clock()
        paths = report.write_report_csvs(result, out)
        seconds = clock() - t0
        if len(stamps) == matrix.num_slots:
            # run() calls assisted_repair_check once per slot, so the gaps
            # between calls are the per-slot step latencies
            marks = [t0, *stamps, t_run]
            latencies = [b - a for a, b in zip(marks, marks[1:])]
        else:
            latencies = [seconds]
        return OpResult(seconds, matrix.num_peers * matrix.num_slots, latencies, (result, paths, config, matrix))

    @staticmethod
    def verify(op: OpResult) -> None:
        """Hash the report CSVs and check a few report invariants."""
        result, paths, config, matrix = op.outputs
        op.fingerprint = {Path(p).name: _sha(Path(p).read_bytes()) for p in paths}
        errors = op.errors
        if len(result.peers) != matrix.num_peers:
            errors.append(f"{len(result.peers)} peer records for {matrix.num_peers} peers")
        f = float(config.fragment_size)
        for name in ("server_outbound", "server_inbound"):
            series = getattr(result, name)
            if np.any(series < 0) or np.any(series % f != 0.0):
                errors.append(f"{name} is not a whole number of fragments")
        bad = {c.outcome for c in result.crashes} - {"restored", "lost", "pending"}
        if bad:
            errors.append(f"unknown crash outcomes {sorted(bad)}")


# -- scheduling workload --------------------------------------------------

XS = (40, 60, 80)
RATIOS = (1.1, 1.5, 2.0)


@dataclass(frozen=True)
class SchedWorkload:
    """A group is one trace and its problems: per (x, ratio) pair, per_pair
    problems, every fourth a restore."""

    name: str
    key: int
    peers: int
    slots: int
    per_pair: int  # problems per (x, ratio) pair; a quarter are restores
    catalogue: int
    group_seconds: float
    xs: tuple = XS

    def make_group(self, group: int, workdir: Path) -> dict:
        rng = _rng(self.key, group)
        bits = _synth_bits(self.peers, self.slots, (0.2, 0.9), 0.3, int(rng.integers(2**31)))
        path = workdir / f"trace-{group}.matrix"
        write_matrix(path, bits)
        pairs = [(x, r) for x in self.xs for r in RATIOS]
        specs = []
        for i in range(self.per_pair * len(pairs)):
            x, ratio = pairs[i % len(pairs)]
            restore = i % 4 == 3
            owner = int(rng.integers(self.peers))
            others = np.array([p for p in range(self.peers) if p != owner])
            size = math.ceil(ratio * x / 2) if restore else int(round(ratio * x))
            picked = sorted(others[rng.choice(len(others), size=size, replace=False)].tolist())
            start = int(rng.integers(1, self.slots // 2))
            specs.append({"owner": owner, "picked": picked, "start": start, "x": x,
                          "restore": restore, "rng_seed": [self.key, group, i]})
        return {"group": group, "path": path, "bits": bits, "specs": specs}

    def prepare(self, groups: list[dict]) -> tuple[list, list[str]]:
        """Set-up: read each matrix file and build every problem.  Each item
        is (group, index in group, problem, random_schedule seed)."""
        items, errors = [], []
        for inputs in groups:
            matrix = trace.read_matrix_file(inputs["path"])
            if not np.array_equal(matrix.bits, inputs["bits"]):
                errors.append(f"{inputs['path'].name} reads back different bits")
            for i, p in enumerate(inputs["specs"]):
                sub = trace.AvailabilityMatrix(bits=matrix.bits[[p["owner"]] + p["picked"], p["start"] - 1:],
                                               slot_seconds=matrix.slot_seconds)
                if p["restore"]:
                    problem = sched.TransferProblem(
                        matrix=sub, owner=0, direction=sched.RESTORE, x=p["x"], owner_rate=2,
                        per_peer_cap=2, storage_set=frozenset(range(1, len(p["picked"]) + 1)))
                else:
                    problem = sched.TransferProblem(matrix=sub, owner=0, direction=sched.BACKUP, x=p["x"])
                items.append((inputs["group"], i, problem, p["rng_seed"]))
        return items, errors

    def run_op(self, item, workdir: Path, gauge) -> OpResult:
        _group, _index, problem, rng_seed = item
        clock = gauge.clock
        t0 = clock()
        baseline = sched.ideal_baseline(problem.matrix.bits[problem.owner], problem.x, problem.owner_rate)
        t1 = clock()
        optimal = sched.optimal_completion(problem)
        t2 = clock()
        randomized = sched.random_schedule(problem, np.random.default_rng(rng_seed))
        t3 = clock()
        cells = problem.matrix.num_peers * problem.matrix.num_slots
        return OpResult(t3 - t0, cells, [t2 - t1], (problem, baseline, optimal, randomized))

    @staticmethod
    def verify(op: OpResult) -> None:
        """Hash (feasible, completion, fragments) of both schedulers and check
        the witness schedule and the ordering baseline <= O(x) <= random."""
        problem, baseline, optimal, randomized = op.outputs
        outcome = [(o.feasible, o.completion, o.fragments) for o in (optimal, randomized)]
        op.fingerprint = _sha(repr(outcome).encode())
        errors = op.errors
        if optimal.feasible:
            violations = sched.validate_schedule(problem, optimal.schedule)
            if violations:
                errors.append(f"witness schedule invalid: {violations[0]}")
            if len(optimal.schedule) < problem.x or sched.completion_time(optimal.schedule) != optimal.completion:
                errors.append("witness schedule does not carry x fragments by O(x)")
            if baseline is not None and optimal.completion < baseline:
                errors.append(f"O(x) = {optimal.completion} below the ideal baseline {baseline}")
            if randomized.feasible and randomized.completion < optimal.completion:
                errors.append(f"random completion {randomized.completion} below O(x) = {optimal.completion}")
        elif randomized.feasible:
            errors.append("random schedule feasible where O(x) says infeasible")


# -- registry -------------------------------------------------------------

_SIM_BASE = dict(object_size=8 * FRAG, fragment_size=FRAG, storage_quota=40 * FRAG,
                 bandwidth_source="lognormal")

ADAPTIVE = dict(_SIM_BASE, redundancy_policy="adaptive", response="immediate", mean_lifetime_days=90.0)
FIXED_ASSISTED = dict(_SIM_BASE, redundancy_policy="fixed", response="delayed_assisted",
                      mean_lifetime_days=30.0, repair_timeout_days=1.0)

# One sim-fixed-assisted simulation can cost a third more than another,
# depending on its crashes and slow peers, so its groups hold four.
# group_seconds were measured on a 2-core x86-64 host.
WORKLOADS = {
    "sim-adaptive": SimWorkload("sim-adaptive", 1, 100, 672, 1, ADAPTIVE, 64, 5.8),
    "sim-fixed-assisted": SimWorkload("sim-fixed-assisted", 2, 200, 336, 4, FIXED_ASSISTED, 32, 29.3),
    "sched-mixed": SchedWorkload("sched-mixed", 3, 200, 504, 8, 64, 2.1),
}

SMOKE = {
    "sim-adaptive": SimWorkload("sim-adaptive", 1, 12, 96, 1, ADAPTIVE, 1, 1.0),
    "sim-fixed-assisted": SimWorkload("sim-fixed-assisted", 2, 16, 96, 2, FIXED_ASSISTED, 1, 1.0),
    "sched-mixed": SchedWorkload("sched-mixed", 3, 40, 96, 1, 1, 1.0, xs=(8, 12, 16)),
}
