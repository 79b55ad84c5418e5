"""Transfer scheduling for backup and restore.

A transfer problem asks how to move x fragments between a data owner and a set
of remote peers over a slotted availability trace, moving at most owner_rate
fragments per slot, at most peer_rate per remote peer per slot, and at most
per_peer_cap fragments per remote peer overall.  The optimal completion time
is found by reducing "how many fragments fit in the first T slots" (F(T)) to a
max-flow problem and searching for the smallest T with F(T) >= x; a randomized
scheduler and the ideal always-on baseline are provided for comparison.

Slots are numbered from 1 in schedules and problem files; slot s corresponds
to matrix column s - 1.  Peers are matrix row indices.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .trace import AvailabilityMatrix, read_matrix_file, write_matrix_file

BACKUP = "backup"
RESTORE = "restore"


class ProblemFormatError(ValueError):
    """Raised for malformed problem instance files."""


@dataclass(frozen=True)
class TransferProblem:
    """One backup or restore task over an availability matrix.

    owner_rate is u_0 for backups and d_0 for restores, in fragments per slot;
    peer_rate bounds each remote peer per slot; per_peer_cap (m) bounds the
    total fragments a single remote peer may hold or serve.  For restores,
    storage_set lists the rows holding fragments.
    """

    matrix: AvailabilityMatrix
    owner: int
    direction: str
    x: int
    owner_rate: int = 1
    peer_rate: int = 1
    per_peer_cap: int = 1
    storage_set: frozenset[int] | None = None

    def __post_init__(self):
        if self.direction not in (BACKUP, RESTORE):
            raise ValueError(f"direction must be {BACKUP!r} or {RESTORE!r}")
        if self.x < 1:
            raise ValueError("x must be at least 1")
        if min(self.owner_rate, self.peer_rate, self.per_peer_cap) < 1:
            raise ValueError("rates and per_peer_cap must be at least 1")
        if not 0 <= self.owner < self.matrix.num_peers:
            raise ValueError("owner index out of range")
        if self.direction == RESTORE:
            if not self.storage_set:
                raise ValueError("restore problems need a non-empty storage_set")
            storage = frozenset(int(i) for i in self.storage_set)
            if self.owner in storage:
                raise ValueError("owner cannot be in the storage_set")
            if any(i < 0 or i >= self.matrix.num_peers for i in storage):
                raise ValueError("storage_set index out of range")
            object.__setattr__(self, "storage_set", storage)
        elif self.storage_set is not None:
            raise ValueError("storage_set only applies to restore problems")

    @property
    def candidates(self) -> tuple[int, ...]:
        """Remote peers this problem may transfer with, in index order."""
        if self.direction == RESTORE:
            return tuple(sorted(self.storage_set))
        return tuple(i for i in range(self.matrix.num_peers) if i != self.owner)


@dataclass(frozen=True)
class Schedule:
    """Transfer decisions as a sorted multiset of (peer, slot) pairs.

    With per_peer_cap = 1 all pairs are distinct and this is the plain set of
    decisions; with a larger cap the same pair may appear once per fragment.
    """

    entries: tuple[tuple[int, int], ...]

    def __init__(self, entries=()):
        object.__setattr__(self, "entries", tuple(sorted((int(p), int(s)) for p, s in entries)))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)


@dataclass(frozen=True)
class ScheduleOutcome:
    """Result of a scheduling attempt.

    feasible is False when the horizon cannot carry x fragments; then schedule
    is None, completion is 0, and fragments reports the best achievable count
    (F(num_slots) for the optimal scheduler, fragments actually placed for the
    randomized one).
    """

    feasible: bool
    schedule: Schedule | None
    completion: int
    fragments: int


def completion_time(schedule: Schedule) -> int:
    """C(S): the last slot in which a transfer is performed; 0 for an empty schedule."""
    if not schedule:
        return 0
    return max(s for _, s in schedule)


def validate_schedule(problem: TransferProblem, schedule: Schedule) -> list[str]:
    """Check a schedule against the validity clauses; empty list means valid.

    Out-of-range peer or slot indices raise ValueError (a malformed argument,
    not a validity violation).
    """
    bits = problem.matrix.bits
    num_peers, num_slots = bits.shape
    for peer, slot in schedule:
        if not 0 <= peer < num_peers:
            raise ValueError(f"peer index {peer} out of range")
        if not 1 <= slot <= num_slots:
            raise ValueError(f"slot index {slot} out of range")

    violations = []
    per_slot: dict[int, int] = {}
    per_peer: dict[int, int] = {}
    for peer, slot in schedule:
        per_slot[slot] = per_slot.get(slot, 0) + 1
        per_peer[peer] = per_peer.get(peer, 0) + 1
        if peer == problem.owner:
            violations.append(f"entry ({peer}, {slot}): transfer targets the owner")
            continue
        if not bits[problem.owner, slot - 1]:
            violations.append(f"entry ({peer}, {slot}): owner offline in slot {slot}")
        if not bits[peer, slot - 1]:
            violations.append(f"entry ({peer}, {slot}): peer {peer} offline in slot {slot}")
        if problem.direction == RESTORE and peer not in problem.storage_set:
            violations.append(f"entry ({peer}, {slot}): peer {peer} not in the storage set")
    for slot, count in sorted(per_slot.items()):
        if count > problem.owner_rate:
            violations.append(f"slot {slot}: {count} transfers exceed the owner rate {problem.owner_rate}")
    for peer, count in sorted(per_peer.items()):
        if count > problem.per_peer_cap:
            violations.append(f"peer {peer}: {count} fragments exceed the per-peer cap {problem.per_peer_cap}")
    return violations


def build_flow_network(problem: TransferProblem, T: int) -> csr_matrix:
    """Capacity matrix of the flow network, restricted to slots 1..T, whose
    max flow equals F(T).

    Nodes: source = 0, slot s = s, the j-th candidate peer = T + 1 + j, sink
    last.  Arcs: source->slot (capacity owner_rate) where the owner is online;
    slot->peer (capacity peer_rate) where the remote peer is online too;
    peer->sink (capacity per_peer_cap).  For restores the peer nodes are the
    storage set.
    """
    if not 1 <= T <= problem.matrix.num_slots:
        raise ValueError(f"T must be in [1, {problem.matrix.num_slots}]")
    bits = problem.matrix.bits
    candidates = list(problem.candidates)
    n = len(candidates)
    owner_row = bits[problem.owner, :T]
    slots = np.flatnonzero(owner_row) + 1
    peer_pos, slot_col = np.nonzero(bits[candidates, :T] & owner_row)
    rows = np.concatenate([np.zeros(len(slots), dtype=np.intp), slot_col + 1, np.arange(T + 1, T + 1 + n)])
    cols = np.concatenate([slots, peer_pos + T + 1, np.full(n, T + n + 1)])
    caps = np.repeat(
        np.array([problem.owner_rate, problem.peer_rate, problem.per_peer_cap], dtype=np.int32),
        [len(slots), len(peer_pos), n],
    )
    return csr_matrix((caps, (rows, cols)), shape=(T + n + 2, T + n + 2))


def max_flow(graph: csr_matrix) -> tuple[int, csr_matrix]:
    """Maximum source->sink flow value plus an integral flow matrix, whose
    (u, v) entry is the flow on arc u->v (negated on the reverse entry).

    Backed by scipy's blocking-flow (Dinic) solver, O(V^2 E) worst case;
    instances here are small bipartite graphs, far from that bound.
    """
    result = maximum_flow(graph, 0, graph.shape[0] - 1)
    return int(result.flow_value), result.flow


def max_fragments(problem: TransferProblem, T: int) -> tuple[int, Schedule]:
    """F(T): the most fragments transferable within slots 1..T, with a witness schedule."""
    value, flow = max_flow(build_flow_network(problem, T))
    block = flow[1:T + 1, T + 1:-1].tocoo()  # slot x candidate; flows are >= 0 here
    peers = np.repeat(np.array(problem.candidates, dtype=np.intp)[block.col], block.data)
    slots = np.repeat(block.row + 1, block.data)
    return value, Schedule(zip(peers, slots))


def optimal_completion(problem: TransferProblem) -> ScheduleOutcome:
    """O(x) = min{t : F(t) >= x}, by doubling T from a capacity lower bound and
    then binary searching the bracket.  Infeasibility (F(horizon) < x) is a
    first-class outcome carrying F(horizon), not an exception."""
    horizon = problem.matrix.num_slots
    lower = ideal_baseline(problem.matrix.bits[problem.owner], problem.x, problem.owner_rate)
    if lower is None:
        value, _ = max_fragments(problem, horizon)
        return ScheduleOutcome(False, None, 0, value)

    # Doubling: F(t) < x for all t < lower by the owner-capacity bound.
    below = lower - 1
    T = lower
    while True:
        value, _ = max_fragments(problem, T)
        if value >= problem.x:
            break
        if T == horizon:
            return ScheduleOutcome(False, None, 0, value)
        below = T
        T = min(2 * T, horizon)

    lo, hi = below + 1, T
    while lo < hi:
        mid = (lo + hi) // 2
        value, _ = max_fragments(problem, mid)
        if value >= problem.x:
            hi = mid
        else:
            lo = mid + 1

    value, schedule = max_fragments(problem, lo)
    return ScheduleOutcome(True, schedule, lo, value)


def random_schedule(problem: TransferProblem, seed=None) -> ScheduleOutcome:
    """Randomized policy: scan slots in order; whenever the owner is online,
    pick up to owner_rate targets uniformly at random among eligible peers
    (online, under per_peer_cap, under peer_rate for this slot, in the storage
    set for restores); stop exactly when x fragments are placed."""
    rng = np.random.default_rng(seed)
    bits = problem.matrix.bits
    candidates = problem.candidates
    online = bits[list(candidates)].astype(bool)
    usage = np.zeros(len(candidates), dtype=np.intp)
    entries: list[tuple[int, int]] = []
    placed = 0
    for col in np.flatnonzero(bits[problem.owner]):
        if placed == problem.x:
            break
        slot_used = np.zeros(len(candidates), dtype=np.intp)
        for _ in range(problem.owner_rate):
            if placed == problem.x:
                break
            eligible = np.flatnonzero(
                online[:, col] & (usage < problem.per_peer_cap) & (slot_used < problem.peer_rate)
            )
            if not len(eligible):
                break
            j = eligible[int(rng.integers(len(eligible)))]
            entries.append((candidates[j], col + 1))
            usage[j] += 1
            slot_used[j] += 1
            placed += 1
    schedule = Schedule(entries)
    if placed < problem.x:
        return ScheduleOutcome(False, None, 0, placed)
    return ScheduleOutcome(True, schedule, completion_time(schedule), placed)


def ideal_baseline(owner_row, amount_fragments: int, rate_per_slot: int, start_slot: int = 1) -> int | None:
    """Elapsed slots until the owner has accumulated ceil(amount/rate) online
    slots from start_slot, counting both endpoints (an always-on unbounded
    remote store).  Implements the ideal lower bounds minTTB (rate = u_0) and
    minTTR (rate = d_0).  Returns None when the horizon has too few online
    slots."""
    row = np.asarray(owner_row).ravel()
    if rate_per_slot < 1:
        raise ValueError("rate_per_slot must be at least 1")
    if not 1 <= start_slot <= len(row):
        raise ValueError("start_slot out of range")
    if amount_fragments <= 0:
        return 0
    needed = math.ceil(amount_fragments / rate_per_slot)
    count = 0
    for col in range(start_slot - 1, len(row)):
        if row[col]:
            count += 1
            if count == needed:
                return col + 2 - start_slot
    return None


def write_problem_file(problem: TransferProblem, path, matrix_path) -> None:
    """Write a problem instance file plus its matrix file.

    The instance references the matrix by path relative to its own directory.
    """
    write_matrix_file(problem.matrix, matrix_path)
    rel = os.path.relpath(matrix_path, os.path.dirname(os.path.abspath(path)))
    parts = [
        f"matrix={rel}",
        f"owner={problem.owner}",
        f"direction={problem.direction}",
        f"x={problem.x}",
        f"u0={problem.owner_rate}",
        f"m={problem.per_peer_cap}",
    ]
    if problem.peer_rate != 1:
        parts.append(f"peer_rate={problem.peer_rate}")
    if problem.storage_set:
        parts.append("storage=" + ",".join(str(i) for i in sorted(problem.storage_set)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(parts) + "\n")


def read_problem_file(path) -> TransferProblem:
    """Read a problem instance file: whitespace-separated key=value tokens,
    # comments allowed; the matrix= path is resolved relative to the file."""
    pairs: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            for token in text.split():
                if "=" not in token:
                    raise ProblemFormatError(f"line {lineno}: expected key=value, got {token!r}")
                key, value = token.split("=", 1)
                pairs[key] = value
    required = {"matrix", "owner", "direction", "x", "u0"}
    missing = required - pairs.keys()
    if missing:
        raise ProblemFormatError(f"missing keys: {', '.join(sorted(missing))}")
    matrix_path = os.path.join(os.path.dirname(os.path.abspath(path)), pairs["matrix"])
    matrix = read_matrix_file(matrix_path)
    storage = None
    if "storage" in pairs and pairs["storage"]:
        storage = frozenset(int(tok) for tok in pairs["storage"].split(","))
    try:
        return TransferProblem(
            matrix=matrix,
            owner=int(pairs["owner"]),
            direction=pairs["direction"],
            x=int(pairs["x"]),
            owner_rate=int(pairs["u0"]),
            peer_rate=int(pairs.get("peer_rate", 1)),
            per_peer_cap=int(pairs.get("m", 1)),
            storage_set=storage,
        )
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from exc


def write_schedule_csv(schedule: Schedule, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("peer,slot\n")
        for peer, slot in schedule:
            fh.write(f"{peer},{slot}\n")


def read_schedule_csv(path) -> Schedule:
    entries = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "peer,slot":
            raise ProblemFormatError(f"line 1: expected header peer,slot, got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            text = line.strip()
            if not text:
                continue
            try:
                peer, slot = text.split(",")
                entries.append((int(peer), int(slot)))
            except ValueError:
                raise ProblemFormatError(f"line {lineno}: bad schedule row {text!r}") from None
    return Schedule(entries)
