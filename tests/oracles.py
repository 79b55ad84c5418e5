"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: exhaustive search, exact rational
arithmetic, direct summation.  Nothing depends on p2pbackup but
holder_rule's loss tail, redundancy.loss_risk, which test_redundancy checks
against exact rationals and Monte Carlo, so agreement between the two is
evidence, not tautology.
"""

import math
import statistics
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from p2pbackup.redundancy import loss_risk


def matching_max_fragments(bits, owner, candidates, T):
    """Most fragments movable in slots 1..T with unit rates and per-peer cap 1.

    Under those caps each slot carries at most one fragment and each remote
    peer at most one overall, so the problem is a maximum bipartite matching
    between slots and peers, solved by memoized search over used-peer masks.
    """
    cands = tuple(candidates)

    @lru_cache(maxsize=None)
    def best(s, used_mask):
        if s > T:
            return 0
        value = best(s + 1, used_mask)
        if bits[owner][s - 1]:
            for j, p in enumerate(cands):
                if used_mask >> j & 1 or not bits[p][s - 1]:
                    continue
                value = max(value, 1 + best(s + 1, used_mask | (1 << j)))
        return value

    result = best(1, 0)
    best.cache_clear()
    return result


def matching_min_completion(bits, owner, candidates, x, num_slots):
    """Smallest T with matching_max_fragments >= x; None when infeasible."""
    for T in range(1, num_slots + 1):
        if matching_max_fragments(bits, owner, candidates, T) >= x:
            return T
    return None


def brute_max_fragments(bits, owner, candidates, T, owner_rate, cap):
    """Most fragments movable in slots 1..T under any owner rate and
    per-peer cap, at most one per remote peer per slot.

    Exhaustive: in each owner-online slot try every split of at most
    owner_rate fragments among the online candidates, at most one to each
    and never past a peer's remaining cap; memoized on (slot, remaining cap
    per candidate).
    """
    cands = tuple(candidates)

    def splits(s, j, budget, remaining):
        """(fragments sent, remaining caps after) for each split of the
        budget among candidates j.. in slot s."""
        if j == len(cands):
            yield 0, remaining
            return
        top = min(1, remaining[j], budget) if bits[cands[j]][s - 1] else 0
        for k in range(top + 1):
            rest = remaining[:j] + (remaining[j] - k,) + remaining[j + 1:]
            for sent, after in splits(s, j + 1, budget - k, rest):
                yield sent + k, after

    @lru_cache(maxsize=None)
    def best(s, remaining):
        if s > T:
            return 0
        if not bits[owner][s - 1]:
            return best(s + 1, remaining)
        return max(sent + best(s + 1, after) for sent, after in splits(s, 0, owner_rate, remaining))

    result = best(1, (cap,) * len(cands))
    best.cache_clear()
    return result


def coo_flow_network(problem, T):
    """Capacity matrix of the flow network, restricted to slots 1..T, whose
    max flow equals F(T), built as a coordinate list handed to scipy's
    COO->CSR conversion.

    Nodes: source = 0, slot s = s, the j-th candidate peer = T + 1 + j, sink
    last.  Arcs: source->slot (capacity owner_rate) where the owner is online;
    slot->peer (capacity 1) where the remote peer is online too;
    peer->sink (capacity per_peer_cap).  For restores the peer nodes are the
    storage set.  This is the network the ``sched`` module docstring
    describes and its first fit and augmenting paths walk as bit masks.
    """
    bits = problem.matrix.bits
    candidates = list(problem.candidates)
    n = len(candidates)
    owner_row = bits[problem.owner, :T]
    slots = np.flatnonzero(owner_row) + 1
    peer_pos, slot_col = np.nonzero(bits[candidates, :T] & owner_row)
    rows = np.concatenate([np.zeros(len(slots), dtype=np.intp), slot_col + 1, np.arange(T + 1, T + 1 + n)])
    cols = np.concatenate([slots, peer_pos + T + 1, np.full(n, T + n + 1)])
    caps = np.repeat(
        np.array([problem.owner_rate, 1, problem.per_peer_cap], dtype=np.int32),
        [len(slots), len(peer_pos), n],
    )
    return csr_matrix((caps, (rows, cols)), shape=(T + n + 2, T + n + 2))


def slice_witness(problem, T, flow):
    """Sorted (peer, slot) entries of the slot x candidate block of a flow
    matrix over the coo_flow_network node layout, each repeated by its flow."""
    block = flow[1:T + 1, T + 1:-1].tocoo()  # flows are >= 0 in this block
    peers = np.repeat(np.array(problem.candidates, dtype=np.intp)[block.col], block.data)
    slots = np.repeat(block.row + 1, block.data)
    return sorted(zip(peers.tolist(), slots.tolist()))


def flow_max_fragments(problem, T):
    """F(T) and its sorted witness entries by scipy's max flow alone: the
    coo_flow_network solve, read by slice_witness.  ``sched.max_fragments``
    must give the same value at every T, and a witness that is a valid
    maximum flow; it is this one wherever first fit leaves no slot short."""
    graph = coo_flow_network(problem, T)
    result = maximum_flow(graph, 0, graph.shape[0] - 1)
    return int(result.flow_value), slice_witness(problem, T, result.flow)


def loop_random_schedule(bits, owner, candidates, x, owner_rate, cap, rng):
    """The randomized policy as a plain slot loop; returns its sorted entries.

    In each owner-online slot, up to owner_rate times, pick with
    rng.integers among the candidates, in the given order, that are online,
    under cap overall and not yet picked in this slot; stop at x fragments.
    """
    usage = dict.fromkeys(candidates, 0)
    entries = []
    for s in range(1, len(bits[owner]) + 1):
        if len(entries) == x:
            break
        if not bits[owner][s - 1]:
            continue
        picked = set()
        for _ in range(owner_rate):
            if len(entries) == x:
                break
            eligible = [i for i in candidates if bits[i][s - 1] and usage[i] < cap and i not in picked]
            if not eligible:
                break
            pick = eligible[int(rng.integers(len(eligible)))]
            entries.append((pick, s))
            usage[pick] += 1
            picked.add(pick)
    return sorted(entries)


def loop_ideal_seconds(row, need, slot_seconds):
    """Elapsed seconds from slot 0 until the row has been online for need
    seconds, walking the slots one at a time; inf if the horizon is too
    short."""
    acc = 0.0
    for col, bit in enumerate(row):
        if bit:
            if acc + slot_seconds >= need:
                return col * slot_seconds + (need - acc)
            acc += slot_seconds
    return float("inf")


def holder_rule(o, d0, min_ttr, holders, k, thresholds):
    """The adaptive stopping rule for an owner whose fragments sit on
    holders, a list of (availability, uplink bytes/s) pairs, in plain
    Python floats: (l, eTTR in seconds, complete).

    l is thresholds.parallel, or min(k, max(1, floor(d0 / median uplink))),
    1 with no holders.  eTTR is max(o / d0, o / (l * r)) with r the k-th
    best a * u: inf when r is 0, nan below k holders.  The backup is
    complete from k holders on, when eTTR is at most
    max(ttr_floor_days in seconds, ttr_factor * min_ttr) and the loss risk
    over w + eTTR is at most loss_cap.
    """
    uplinks = [u for _, u in holders]
    l = thresholds.parallel or (min(k, max(1, int(d0 // statistics.median(uplinks)))) if uplinks else 1)
    n = len(holders)
    if n < k:
        return l, math.nan, False
    r = sorted(a * u for a, u in holders)[n - k]
    ettr = math.inf if r == 0 else max(o / d0, o / (l * r))
    cap = max(thresholds.ttr_floor_days * 86400.0, thresholds.ttr_factor * min_ttr)
    return l, ettr, ettr <= cap and loss_risk(n, k, ettr, thresholds) <= thresholds.loss_cap


def binomial_tail_ge(n, k, p: Fraction) -> Fraction:
    """P[Bin(n, p) >= k] in exact rational arithmetic."""
    q = 1 - p
    return sum((comb(n, i) * p**i * q ** (n - i) for i in range(k, n + 1)), Fraction(0))


def minimal_redundancy(k, a: Fraction, target: Fraction, ceiling=100000):
    """Smallest n >= k with an exact binomial availability tail >= target."""
    for n in range(k, ceiling + 1):
        if binomial_tail_ge(n, k, a) >= target:
            return n
    raise AssertionError("ceiling reached")


def maxmin_violations(transfers, grants, up, down, eps):
    """Check a two-class strict-priority fluid allocation against the max-min
    fairness certificate (Bertsekas & Gallager, Data Networks, §6.5.2).

    transfers are (src, dst, demand, is_restore) rows; a negative endpoint
    (the server) is unconstrained.  Restores share the per-peer byte budgets
    up/down; every other transfer shares only what the restores left.
    Within a class the allocation is max-min fair iff it is feasible and
    every transfer is fully served (within eps) or crosses a bottleneck: an
    endpoint whose budget is saturated and through which no transfer of the
    class gets more.  One freeze round can strand up to eps per transfer, so
    an endpoint is saturated when its leftover is at most eps times the
    number of the class's transfers through it.  Returns one line per
    violation.
    """
    out = []
    residual = {"up": [float(b) for b in up], "down": [float(b) for b in down]}
    for restore in (True, False):
        label = "restore" if restore else "other"
        members = [i for i, t in enumerate(transfers) if bool(t[3]) == restore]
        through = {}  # (side, peer) -> indices of the class's transfers using it
        for i in members:
            src, dst = transfers[i][0], transfers[i][1]
            if src >= 0:
                through.setdefault(("up", src), []).append(i)
            if dst >= 0:
                through.setdefault(("down", dst), []).append(i)
        load = {end: sum(float(grants[i]) for i in idxs) for end, idxs in through.items()}
        for i in members:
            if not -eps <= grants[i] <= transfers[i][2] + eps:
                out.append(f"{label} transfer {i}: grant {grants[i]} outside [0, {transfers[i][2]}]")
        for (side, peer), total in load.items():
            if total > residual[side][peer] + eps:
                out.append(f"{label}: {side}link of peer {peer} carries {total} > {residual[side][peer]}")

        def bottleneck(end, i):
            idxs = through[end]
            saturated = residual[end[0]][end[1]] - load[end] <= eps * len(idxs)
            return saturated and all(grants[j] <= grants[i] + eps for j in idxs)

        for i in members:
            src, dst, demand, _ = transfers[i]
            if grants[i] >= demand - eps:
                continue
            ends = [end for end in (("up", src), ("down", dst)) if end[1] >= 0]
            if not any(bottleneck(end, i) for end in ends):
                out.append(f"{label} transfer {i}: unserved ({grants[i]} of {demand}) with no bottleneck")
        for (side, peer), total in load.items():
            residual[side][peer] = max(residual[side][peer] - total, 0.0)
    return out


def progressive_filling_reference(src, dst, demand, res_up, res_down, eps, rounds=None):
    """Progressive filling for one priority class, as a plain loop over
    boolean masks of the whole transfer list with fresh endpoint counts
    every round.

    Same contract as the simulator's allocator: src/dst are peer indices or
    -1 for the server, which has no budget; res_up/res_down are per-peer
    byte budgets, mutated in place; the per-transfer grants are returned.
    A round grants every active transfer the smallest fair share or
    remaining demand, or, when that is at most eps, freezes the transfers
    whose share is at most eps.  Budgets shrink by one subtraction per
    transfer and are clipped at zero.  These floats are the ones the
    simulator must reproduce bit for bit.  A Counter passed as rounds
    tallies the rounds by kind: "freeze", "grant", and "exit" for a grant
    round in which some transfer's demand runs out.
    """
    n = len(demand)
    alloc = np.zeros(n)
    if n == 0:
        return alloc
    src = np.asarray(src)
    dst = np.asarray(dst)
    remaining = np.asarray(demand, dtype=float).copy()
    num_peers = len(res_up)
    active = remaining > eps
    while np.any(active):
        s, d = src[active], dst[active]
        up_count = np.bincount(s[s >= 0], minlength=num_peers)
        down_count = np.bincount(d[d >= 0], minlength=num_peers)
        share = np.full(n, np.inf)
        has_src = active & (src >= 0)
        has_dst = active & (dst >= 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            share[has_src] = res_up[src[has_src]] / up_count[src[has_src]]
            share[has_dst] = np.minimum(
                share[has_dst], res_down[dst[has_dst]] / down_count[dst[has_dst]]
            )
        step = np.minimum(share, remaining)
        lam = step[active].min()
        if lam <= eps:
            starved = active & (step <= eps)
            active &= ~starved
            if rounds is not None:
                rounds["freeze"] += 1
            continue
        grant = np.where(active, lam, 0.0)
        alloc += grant
        remaining -= grant
        np.subtract.at(res_up, src[active & (src >= 0)], lam)
        np.subtract.at(res_down, dst[active & (dst >= 0)], lam)
        np.maximum(res_up, 0.0, out=res_up)
        np.maximum(res_down, 0.0, out=res_down)
        if rounds is not None:
            rounds["exit" if np.any(active & (remaining <= eps)) else "grant"] += 1
        active &= remaining > eps
    return alloc


def two_class_reference(src, dst, demand, restore, up, down, eps, rounds=None):
    """The simulator's slot allocation by the reference: progressive filling
    of the restore rows, then of the rest on the budgets the restores left.
    up/down are read, not changed; the per-transfer grants are returned.  A
    Counter passed as rounds tallies both classes' rounds, as in
    progressive_filling_reference."""
    src, dst, demand = (np.asarray(column) for column in (src, dst, demand))
    restore = np.asarray(restore, dtype=bool)
    res_up, res_down = np.array(up, dtype=float), np.array(down, dtype=float)
    grants = np.zeros(len(demand))
    for mask in (restore, ~restore):
        grants[mask] = progressive_filling_reference(src[mask], dst[mask], demand[mask], res_up, res_down, eps,
                                                     rounds)
    return grants


class LoopFormatError(ValueError):
    """What loop_parse_events raises for a malformed record."""


def loop_parse_events(lines):
    """parse_events as one pass per record: returns ((peer_id, timestamp,
    kind) tuples, warnings), or raises LoopFormatError with the library's
    message for the first malformed line."""
    raw = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split(",")
        if len(parts) != 3:
            raise LoopFormatError(f"line {lineno}: expected 3 comma-separated fields, got {len(parts)}")
        peer_id, ts_text, kind = (p.strip() for p in parts)
        if not peer_id:
            raise LoopFormatError(f"line {lineno}: empty peer id")
        if kind not in ("login", "logoff"):
            raise LoopFormatError(f"line {lineno}: kind must be login or logoff, got {kind!r}")
        try:
            timestamp = float(ts_text)
        except ValueError:
            raise LoopFormatError(f"line {lineno}: bad timestamp {ts_text!r}") from None
        if not math.isfinite(timestamp):
            raise LoopFormatError(f"line {lineno}: non-finite timestamp {ts_text}")
        if timestamp < 0:
            raise LoopFormatError(f"line {lineno}: negative timestamp {ts_text}")
        raw.append((peer_id, timestamp, kind))

    raw.sort(key=lambda e: (e[1], e[0]))

    events, warnings = [], []
    last_kind = {}
    for peer_id, timestamp, kind in raw:
        prev = last_kind.get(peer_id)
        if prev is None and kind == "logoff":
            warnings.append(f"peer {peer_id}: logoff at {timestamp:g} before any login; assuming login at epoch")
            events.append((peer_id, 0.0, "login"))
            last_kind[peer_id] = prev = "login"
        if kind == prev:
            continue  # duplicate same-kind event, first wins
        events.append((peer_id, timestamp, kind))
        last_kind[peer_id] = kind

    events.sort(key=lambda e: (e[1], e[0]))
    return events, warnings


def loop_slotize(events, slot_seconds, num_slots=None):
    """slotize by walking each peer's sessions slot by slot; events must
    alternate per peer.  Returns (bits, sorted peer ids)."""
    if num_slots is None:
        num_slots = max(1, math.ceil(max(e[1] for e in events) / slot_seconds))
    horizon = num_slots * slot_seconds
    peer_ids = tuple(sorted({e[0] for e in events}))
    index = {pid: i for i, pid in enumerate(peer_ids)}
    spans = {}
    for peer_id, timestamp, kind in events:
        if kind == "login":
            spans.setdefault(peer_id, []).append([timestamp, None])
        else:
            spans[peer_id][-1][1] = timestamp
    coverage = np.zeros((len(peer_ids), num_slots), dtype=float)
    for peer_id, sessions in spans.items():
        i = index[peer_id]
        for start, end in sessions:
            stop = horizon if end is None else min(end, horizon)
            if stop <= start:
                continue
            first = int(start // slot_seconds)
            last = min(num_slots - 1, int(math.ceil(stop / slot_seconds)) - 1)
            for t in range(first, last + 1):
                lo = max(start, t * slot_seconds)
                hi = min(stop, (t + 1) * slot_seconds)
                if hi > lo:
                    coverage[i, t] += hi - lo
    return (coverage >= slot_seconds / 2).astype(np.uint8), peer_ids
