"""Transfer scheduling for backup and restore.

A transfer problem asks how to move x fragments between a data owner and a set
of remote peers over a slotted availability trace, moving at most owner_rate
fragments per slot, at most one per remote peer per slot, and at most
per_peer_cap fragments per remote peer overall.  The optimal completion time
is found by reducing "how many fragments fit in the first T slots" (F(T)) to a
max-flow problem and searching for the smallest T with F(T) >= x.  The F(T)
network's nodes are source = 0, slot s = s for s in 1..T, the j-th candidate
peer = T + 1 + j and the sink last; its arcs are source->slot (capacity
owner_rate) where the owner is online, slot->peer (capacity 1) where the
remote peer is online too, and peer->sink (capacity per_peer_cap).  A
first-fit walk of the owner-online slots finds a flow that alone settles
most F(T); where it leaves a slot short, shortest augmenting paths raise it
to a maximum flow.  F(T) is the value scipy's maximum_flow finds on that
network, and the witness schedule is a valid maximum flow, not necessarily
scipy's.  A randomized scheduler and the ideal always-on baseline are
provided for comparison.

Slots are numbered from 1 in schedules; slot s corresponds to matrix column
s - 1.  Peers are matrix row indices.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .trace import AvailabilityMatrix

BACKUP = "backup"
RESTORE = "restore"


def _integral(value) -> bool:
    """True for a finite real number with no fractional part."""
    return isinstance(value, numbers.Real) and math.isfinite(value) and value == int(value)


@dataclass(frozen=True)
class TransferProblem:
    """One backup or restore task over an availability matrix.

    owner_rate is u_0 for backups and d_0 for restores, in fragments per slot;
    per_peer_cap (m) bounds the total fragments a single remote peer may hold
    or serve.  A remote peer moves at most one fragment per slot, so the
    (peer, slot) pairs of a valid schedule are distinct.  For restores,
    storage_set lists the rows holding fragments.
    """

    matrix: AvailabilityMatrix
    owner: int
    direction: str
    x: int
    owner_rate: int = 1
    per_peer_cap: int = 1
    storage_set: frozenset[int] | None = None

    def __post_init__(self):
        for name in ("owner", "x", "owner_rate", "per_peer_cap"):
            value = getattr(self, name)
            if not _integral(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if name != "owner" and value < 1:
                raise ValueError(f"{name} must be at least 1")
            object.__setattr__(self, name, int(value))
        if self.direction not in (BACKUP, RESTORE):
            raise ValueError(f"direction must be {BACKUP!r} or {RESTORE!r}")
        if not 0 <= self.owner < self.matrix.num_peers:
            raise ValueError("owner index out of range")
        if self.direction == RESTORE:
            if not self.storage_set:
                raise ValueError(f"direction {RESTORE!r} needs a non-empty storage_set")
            bad = [i for i in self.storage_set if not _integral(i)]
            if bad:
                raise ValueError(f"storage_set must hold integers, got {bad[0]!r}")
            storage = frozenset(int(i) for i in self.storage_set)
            if self.owner in storage:
                raise ValueError("storage_set cannot hold the owner")
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
        return (*range(self.owner), *range(self.owner + 1, self.matrix.num_peers))


# Transfer decisions as a sorted tuple of (peer, slot) int pairs, one per
# fragment.  In a valid schedule the pairs are distinct: a remote peer moves
# at most one fragment per slot.
Schedule = tuple[tuple[int, int], ...]


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


def completion_time(schedule) -> int:
    """C(S): the last slot in which a transfer is performed; 0 for an empty schedule."""
    if not schedule:
        return 0
    return max(s for _, s in schedule)


def validate_schedule(problem: TransferProblem, schedule) -> list[str]:
    """Check a sequence of (peer, slot) pairs against the validity clauses;
    empty list means valid.

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
    per_pair: dict[tuple[int, int], int] = {}
    for peer, slot in schedule:
        per_slot[slot] = per_slot.get(slot, 0) + 1
        per_peer[peer] = per_peer.get(peer, 0) + 1
        per_pair[peer, slot] = per_pair.get((peer, slot), 0) + 1
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
    for (peer, slot), count in sorted(per_pair.items()):
        if count > 1:
            violations.append(f"entry ({peer}, {slot}): {count} transfers exceed one per peer per slot")
    for peer, count in sorted(per_peer.items()):
        if count > problem.per_peer_cap:
            violations.append(f"peer {peer}: {count} fragments exceed the per-peer cap {problem.per_peer_cap}")
    return violations


def _first_fit(problem: TransferProblem, T: int) -> tuple[list[int], list[int], list[tuple[int, int]], list[int], bool]:
    """A first flow on the F(T) network (see the module docstring).

    First fit walks the owner-online slots 1..T in order, and each slot sends
    one fragment to each of its online candidates under their cap, in index
    order, until it has sent owner_rate.  That is the path order of the
    depth-first search in the first phase of scipy's maximum_flow (Dinic's
    algorithm, each node's arcs in CSR order), so it is the flow that phase
    pushes.  When every slot sends its full owner_rate the flow fills every
    source arc, so it is already maximum (max-flow min-cut) and it is
    scipy's witness; otherwise _augment raises it to a maximum flow.

    The walk reads only the matrix's first T slots, unpacked once by
    matrix.rows.  The masks come from one pass over those slots' columns,
    packed one row per slot: each row is one void item, so a single
    tolist() yields every slot's bytes for int.from_bytes.  With
    owner_rate == per_peer_cap == 1 (every problem of
    sched-compare, and sched-mixed's backups) a slot sends at most one
    fragment and its peer is then at its cap, so each slot takes one mask
    step, the lowest set bit of online & under_cap, and the cap left is set
    from the entries after the walk.

    Returns the owner-online slot numbers, each one's online peers as a bit
    mask by row index, the (peer, slot) entries sent, the cap left per peer,
    and whether some slot fell short of owner_rate.  Candidates come in row
    order and only their bits are ever set in under_cap.
    """
    bits = problem.matrix.rows(slots=T)
    cols = np.flatnonzero(bits[problem.owner])
    # one little-endian mask per owner-online slot, bit p set when peer p is online
    packed = np.packbits(bits.T[cols], axis=1, bitorder="little")
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()
    masks = list(map(int.from_bytes, rows, repeat("little")))
    if problem.direction == RESTORE:
        under_cap = sum(1 << p for p in problem.storage_set)
    else:
        under_cap = ((1 << problem.matrix.num_peers) - 1) ^ (1 << problem.owner)
    owner_rate, cap = problem.owner_rate, problem.per_peer_cap
    slots = (cols + 1).tolist()
    entries: list[tuple[int, int]] = []
    short = False
    if owner_rate == cap == 1:
        for slot, online in zip(slots, masks):
            online &= under_cap
            if online:
                low = online & -online
                under_cap ^= low
                entries.append((low.bit_length() - 1, slot))
            else:
                short = True
        left = [1] * problem.matrix.num_peers
        for peer, _ in entries:
            left[peer] = 0
        return slots, masks, entries, left, short
    left = [cap] * problem.matrix.num_peers
    for slot, online in zip(slots, masks):
        want = owner_rate
        online &= under_cap
        while want and online:
            low = online & -online  # the lowest-index candidate online and under its cap
            peer = low.bit_length() - 1
            entries.append((peer, slot))
            want -= 1
            left[peer] -= 1
            if not left[peer]:
                under_cap ^= low
            online ^= low
        short = short or want > 0
    return slots, masks, entries, left, short


def _bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _augment(problem: TransferProblem, slots, masks, entries, left) -> list[tuple[int, int]]:
    """Raise first fit's flow to a maximum flow of the F(T) network (see the
    module docstring) by shortest augmenting paths, one fragment per path;
    returns the entries of that flow.

    A path starts at a slot with owner capacity left.  It alternates a slot
    -> peer arc the slot does not use yet with a step back to a slot that
    already sends to that peer, and it ends at a peer under its cap.  Each
    search runs breadth first from every slot with capacity left, so the
    path it finds is a shortest one; when no path is left the flow is
    maximum (max-flow min-cut).  Slots are bits by their index in slots,
    peers by row index.
    """
    candidates = sum(1 << p for p in problem.candidates)
    masks = [m & candidates for m in masks]  # per slot, the peers it may send to
    index = {slot: i for i, slot in enumerate(slots)}
    sent = [0] * len(slots)  # per slot, the peers it sends to
    backward = [0] * len(left)  # per peer, the slots that send to it
    for peer, slot in entries:
        i = index[slot]
        sent[i] |= 1 << peer
        backward[peer] |= 1 << i
    room = [problem.owner_rate - s.bit_count() for s in sent]
    while True:
        # via: each slot reached -> the peer it was reached through, -1 at
        # the start; came: each peer reached -> the slot it came from
        queue = [i for i, r in enumerate(room) if r]
        via = dict.fromkeys(queue, -1)
        came, reached, end = {}, 0, -1
        for i in queue:  # queue grows as the search reaches slots
            peers = masks[i] & ~sent[i] & ~reached
            reached |= peers
            for peer in _bits(peers):
                came[peer] = i
                if left[peer]:
                    end = peer
                    break
                for j in _bits(backward[peer]):
                    if j not in via:
                        via[j] = peer
                        queue.append(j)
            if end >= 0:
                break
        else:
            return [(peer, slot) for slot, s in zip(slots, sent) for peer in _bits(s)]

        # Push one fragment from the path's end back to its start: each slot
        # sends to the peer after it and stops sending to the one before it.
        left[end] -= 1
        peer = end
        while peer >= 0:
            i = came[peer]
            sent[i] ^= 1 << peer
            backward[peer] ^= 1 << i
            peer = via[i]
            if peer >= 0:
                sent[i] ^= 1 << peer
                backward[peer] ^= 1 << i
        room[i] -= 1


def max_fragments(problem: TransferProblem, T: int) -> tuple[int, Schedule]:
    """F(T): the most fragments transferable within slots 1..T, with a witness
    schedule.  F(T) is the max flow value scipy's maximum_flow finds on the
    F(T) network of the module docstring.  The witness is first fit's flow
    when no slot falls short, which is scipy's too; otherwise it is the
    maximum flow _augment reaches from first fit, valid but not necessarily
    scipy's."""
    if not 1 <= T <= problem.matrix.num_slots:
        raise ValueError(f"T must be in [1, {problem.matrix.num_slots}]")
    slots, masks, entries, left, short = _first_fit(problem, T)
    if short:
        entries = _augment(problem, slots, masks, entries, left)
    return len(entries), tuple(sorted(entries))


def optimal_completion(problem: TransferProblem) -> ScheduleOutcome:
    """O(x) = min{t : F(t) >= x}, by doubling T from a capacity lower bound and
    then binary searching the bracket.  Infeasibility (F(horizon) < x) is a
    first-class outcome carrying F(horizon), not an exception."""
    horizon = problem.matrix.num_slots
    lower = ideal_baseline(problem.matrix.rows(problem.owner), problem.x, problem.owner_rate)
    if lower is None:
        return ScheduleOutcome(False, None, 0, max_fragments(problem, horizon)[0] if horizon else 0)

    # Doubling: F(t) < x for all t < lower by the owner-capacity bound.
    below, T = lower - 1, lower
    while True:
        value, schedule = max_fragments(problem, T)
        if value >= problem.x:
            break
        if T == horizon:
            return ScheduleOutcome(False, None, 0, value)
        below, T = T, min(2 * T, horizon)

    # hi always holds a passing T, and (value, schedule) is its probe's
    # answer, so the search ends on the answer without solving it again.
    lo, hi = below + 1, T
    while lo < hi:
        mid = (lo + hi) // 2
        probe = max_fragments(problem, mid)
        if probe[0] >= problem.x:
            hi = mid
            value, schedule = probe
        else:
            lo = mid + 1

    return ScheduleOutcome(True, schedule, hi, value)


class _WordDraws:
    """rng.integers(n), one n at a time, from blocks of 32-bit words.

    For 1 < n <= 2**32, numpy's Generator.integers(n) draws one next_uint32
    per try and reduces it by Lemire's method, as its
    buffered_bounded_lemire_uint32 does: m = word * n, drawn again while
    the low 32 bits of m are below (2**32 - n) % n, and the pick is m >> 32.
    n == 1 takes no word.  Here the words come a block at a time from
    rng.integers(0, 2**32, dtype=uint32), which takes one next_uint32 per
    word, so the picks are the same.  finish() leaves rng where per-pick
    calls leave it: when the last block has words left over, it restores the
    state saved before that block and draws only the words used.
    """

    __slots__ = ("rng", "block", "words", "used", "saved")

    def __init__(self, rng: np.random.Generator, block: int):
        self.rng, self.block = rng, max(block, 1)
        self.words: list[int] = []
        self.used = 0
        self.saved = None

    def below(self, n: int) -> int:
        if n == 1:
            return 0
        threshold = (0x100000000 - n) % n
        while True:
            if self.used == len(self.words):
                self.saved = self.rng.bit_generator.state
                self.words = self.rng.integers(0, 1 << 32, size=self.block, dtype=np.uint32).tolist()
                self.used = 0
            m = self.words[self.used] * n
            self.used += 1
            if (m & 0xFFFFFFFF) >= threshold:
                return m >> 32

    def finish(self) -> None:
        if self.used < len(self.words):
            self.rng.bit_generator.state = self.saved
            self.rng.integers(0, 1 << 32, size=self.used, dtype=np.uint32)


def random_schedule(problem: TransferProblem, seed=None) -> ScheduleOutcome:
    """Randomized policy: scan slots in order; whenever the owner is online,
    pick up to owner_rate targets uniformly at random among eligible peers
    (online, under per_peer_cap, not yet picked in this slot, in the storage
    set for restores); stop exactly when x fragments are placed.  Each pick
    is the one rng.integers(len(eligible)) would make, and a Generator passed
    as seed ends in the state those calls would leave it in."""
    rng = np.random.default_rng(seed)
    candidates = problem.candidates
    cols = np.flatnonzero(problem.matrix.rows(problem.owner)).tolist()
    # one row per candidate, cleared once the candidate reaches its cap
    online = problem.matrix.rows(candidates).view(bool)
    x, owner_rate, cap = problem.x, problem.owner_rate, problem.per_peer_cap
    # no more words than picks, bar the rare redraw
    draws = _WordDraws(rng, min(x, owner_rate * len(cols), cap * len(candidates)))
    usage = [0] * len(candidates)
    entries: list[tuple[int, int]] = []
    for col in cols:
        if len(entries) == x:
            break
        eligible = online[:, col].nonzero()[0].tolist()  # in index order, as picks remove them
        slot = col + 1
        for _ in range(owner_rate):
            if len(entries) == x or not eligible:
                break
            j = eligible.pop(draws.below(len(eligible)))
            entries.append((candidates[j], slot))
            usage[j] += 1
            if usage[j] == cap:
                online[j] = False
    draws.finish()
    if len(entries) < x:
        return ScheduleOutcome(False, None, 0, len(entries))
    # slots are drawn in order, so the last entry drawn completes the schedule
    return ScheduleOutcome(True, tuple(sorted(entries)), entries[-1][1], x)


def ideal_baseline(owner_row, amount_fragments: int, rate_per_slot: int) -> int | None:
    """Elapsed slots until the owner has accumulated ceil(amount/rate) online
    slots from the row's first slot, counting both endpoints (an always-on
    unbounded remote store); a later start is a slice of the row.  Implements
    the ideal lower bounds minTTB (rate = u_0) and minTTR (rate = d_0).
    Returns None when the horizon has too few online slots."""
    row = np.asarray(owner_row).ravel()
    if rate_per_slot < 1:
        raise ValueError("rate_per_slot must be at least 1")
    if amount_fragments <= 0:
        return 0
    needed = math.ceil(amount_fragments / rate_per_slot)
    online = np.flatnonzero(row)
    return int(online[needed - 1]) + 1 if needed <= online.size else None
