"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: exhaustive search, exact rational
arithmetic, direct summation.  Nothing imports from p2pbackup, so agreement
between the two is evidence, not tautology.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb


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


def brute_max_fragments(bits, owner, candidates, T, owner_rate, peer_rate, cap):
    """Most fragments movable in slots 1..T under any owner rate, per-slot
    peer rate and per-peer cap.

    Exhaustive: in each owner-online slot try every split of at most
    owner_rate fragments among the online candidates, at most peer_rate to
    each and never past a peer's remaining cap; memoized on (slot, remaining
    cap per candidate).
    """
    cands = tuple(candidates)

    def splits(s, j, budget, remaining):
        """(fragments sent, remaining caps after) for each split of the
        budget among candidates j.. in slot s."""
        if j == len(cands):
            yield 0, remaining
            return
        top = min(peer_rate, remaining[j], budget) if bits[cands[j]][s - 1] else 0
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


def loop_random_schedule(bits, owner, candidates, x, owner_rate, peer_rate, cap, rng):
    """The randomized policy as a plain slot loop; returns its sorted entries.

    In each owner-online slot, up to owner_rate times, pick with
    rng.integers among the candidates, in the given order, that are online,
    under cap overall and under peer_rate in this slot; stop at x fragments.
    """
    usage = dict.fromkeys(candidates, 0)
    entries = []
    for s in range(1, len(bits[owner]) + 1):
        if len(entries) == x:
            break
        if not bits[owner][s - 1]:
            continue
        slot_used = dict.fromkeys(candidates, 0)
        for _ in range(owner_rate):
            if len(entries) == x:
                break
            eligible = [i for i in candidates if bits[i][s - 1] and usage[i] < cap and slot_used[i] < peer_rate]
            if not eligible:
                break
            pick = eligible[int(rng.integers(len(eligible)))]
            entries.append((pick, s))
            usage[pick] += 1
            slot_used[pick] += 1
    return sorted(entries)


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
