"""Redundancy planning.

Given k original fragments, how many encoded fragments n should exist?  The
fixed policy solves a binomial availability target for a system-wide n.  The
adaptive policy instead stops uploading once two per-peer estimates pass: the
estimated time to restore (eTTR) and the probability of losing data while the
owner is away (exponential peer lifetimes, at least n - k + 1 holder crashes).
A tail's value is one private helper, _binom_sf, which evaluates the
regularized incomplete beta function directly (scipy.special.betainc), or
for a tail below 1e-200 that betainc gets wrong a short pmf sum, and
imports scipy.special at its first call.  Only data_loss_probability and
loss_risk, which return a tail, call it on every use.  The policies only ask
which side of a bound a tail falls on (fixed_redundancy_n's target,
within_loss_cap and loss_floor); _tail_at_most answers that from a short sum
of pmf terms (_tail_sum) in plain Python, with the same answer as
_binom_sf, and asks _binom_sf only on a close call.  So a simulation, or a
plan of n, loads scipy only at such a call, which no run of the benchmark
catalogue makes.

The eTTR formula and the stopping and risk tests are written once, over the
holders' order statistics: their count n, the k-th best expected rate
(kth_best_rate) and the download parallelism l, pinned or derived from the
median uplink (median_parallel).  rate_ettr turns those into eTTR and
caps_met is the stopping test; the simulator reads the holders'
availabilities and uplinks from its own arrays, with no per-call checks.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass

import numpy as np

SECONDS_PER_DAY = 86400.0
_TAIL_ATOL = 1e-12  # fixed_redundancy_n's allowance for the tail's last-digit noise
_FLOOR_RTOL = 1e-6  # loss_floor's allowance for the loss tail's noise as eTTR grows
_MAX_TERMS = 256  # the most pmf terms _tail_sum adds; a tail with no side this short asks _binom_sf
_DECIDE_RTOL = 1e-6  # _tail_at_most's band around a bound, relative to it, in which _binom_sf decides
_MIN_BOUND = 1e-200  # below it _binom_sf decides, checking betainc (wrong from about 1e-242 down) by _tail_sum


class SearchCeilingError(ValueError):
    """The minimal-n search exceeded its configured ceiling."""


@dataclass(frozen=True)
class AdaptiveThresholds:
    """Stopping thresholds for the adaptive policy.

    The TTR rule is eTTR <= max(ttr_floor_days, ttr_factor * minTTR); setting
    ttr_floor_days to inf disables it.  loss_cap = 1.0 disables the loss rule.
    parallel is the download parallelism l; None derives it from bandwidth
    (see median_parallel).
    """

    loss_cap: float = 1e-4
    w_days: float = 14.0
    parallel: int | None = None
    mean_lifetime_days: float = 90.0
    ttr_floor_days: float = 1.0
    ttr_factor: float = 2.0

    def __post_init__(self):
        if not 0 < self.loss_cap <= 1:
            raise ValueError("loss_cap must be in (0, 1]")
        if not self.w_days >= 0:  # negated, here and below, so that a nan fails too
            raise ValueError("w_days must be non-negative")
        if self.parallel is not None and self.parallel < 1:
            raise ValueError("parallel must be at least 1")
        if not self.mean_lifetime_days > 0:
            raise ValueError("mean_lifetime_days must be positive")
        if math.isinf(self.w_days) and math.isinf(self.mean_lifetime_days):  # the loss rule's q would be inf / inf
            raise ValueError("w_days and mean_lifetime_days cannot both be infinite")
        for name in ("ttr_floor_days", "ttr_factor"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")


def _binom_sf(j: int, n: int, p: float) -> float:
    """P[X > j] for X ~ Binomial(n, p): 1.0 below j = 0, 0.0 from j = n, and
    betainc(j + 1, n - j, p) between: bit for bit scipy's binom.sf, at a
    small fraction of its per-call cost, wherever that value is at least
    _MIN_BOUND.  Below it betainc may underflow to 0 or lose every digit
    (from about 1e-242 down), so where _tail_sum sums the upper side and
    betainc's value lies outside the sum's allowance, the sum is the value,
    accurate relative to the tail.  scipy.special is imported here, once per
    process, at the first call with 0 <= j < n: a tail value, or a
    comparison that _tail_at_most cannot decide from its sum."""
    if j < 0:
        return 1.0
    if j >= n:
        return 0.0
    from scipy.special import betainc

    value = float(betainc(j + 1, n - j, p))
    if value < _MIN_BOUND and n - j <= _MAX_TERMS and 0 < p < 1 and n < 2**53:
        estimate = _tail_sum(j, n, p)
        if estimate is not None and abs(value - estimate[0]) > estimate[1]:
            return estimate[0]
    return value


def _tail_sum(j: int, n: int, p: float) -> tuple[float, float] | None:
    """P[X > j] for X ~ Binomial(n, p), 0 <= j < n and 0 < p < 1, summed
    from pmf terms, with an absolute error allowance: (sum, allowance).
    None when neither side of the tail has at most _MAX_TERMS terms, or
    when the anchor's error alone could pass _DECIDE_RTOL.

    The upper side, terms j + 1 .. n, is summed whenever it is that short,
    so the sum stays accurate relative to the tail at any magnitude;
    otherwise the tail is 1 minus the lower side, terms 0 .. j, and the
    allowance adds an epsilon for the cancellation.  The side is anchored
    at its largest term, the binomial's mode clamped into it, as exp of its
    log from lgamma; the other terms follow outwards by the pmf's term
    ratio, so none overflows and each carries a few roundings per step.
    An anchor that underflows is off by at most 2**-1074 per term, far
    inside the band of any bound from _MIN_BOUND up.
    """
    upper = n - j <= _MAX_TERMS
    if upper:
        lo, hi = j + 1, n
    elif j < _MAX_TERMS:
        lo, hi = 0, j
    else:
        return None
    mode = min(max(int((n + 1) * p), lo), hi)
    logs = (math.lgamma(n + 1), -math.lgamma(mode + 1), -math.lgamma(n - mode + 1),
            mode * math.log(p), (n - mode) * math.log1p(-p))
    # lgamma, log and log1p err by under 2 ulps of their magnitude, each step
    # of the recurrence by under 3 epsilons, and each addition by half of one
    rel = sys.float_info.epsilon * (4 * sum(map(abs, logs)) + 8 * (hi - lo) + 16)
    if rel > _DECIDE_RTOL:
        return None
    odds = p / (1 - p)
    total = term = 1.0
    for i in range(mode, hi):  # up from the anchor: t[i + 1] = t[i] (n - i) / (i + 1) p / (1 - p)
        term *= (n - i) / (i + 1) * odds
        total += term
    term = 1.0
    for i in range(mode, lo, -1):  # and down from it
        term *= i / ((n - i + 1) * odds)
        total += term
    side = math.exp(sum(logs)) * total
    if upper:
        return side, rel * side
    return 1.0 - side, rel * side + sys.float_info.epsilon


def _tail_at_most(j: int, n: int, p: float, bound: float) -> bool:
    """_binom_sf(j, n, p) <= bound, without scipy unless it is a close call.

    _tail_sum decides when its sum lies further from the bound than
    _DECIDE_RTOL * bound plus the sum's allowance; scipy's own error (about
    1e-13 of the tail here) lies far inside that band, so the answer is
    _binom_sf's.  _binom_sf decides a close call, p of 0 or 1, an n that is
    not an exact float, a bound below _MIN_BOUND (where _binom_sf takes the
    sum in place of a betainc value that lies outside its allowance) and a
    tail _tail_sum does not sum; below j = 0 and from j = n it needs no
    scipy either.
    """
    if 0 <= j < n < 2**53 and 0 < p < 1 and bound >= _MIN_BOUND:
        estimate = _tail_sum(j, n, p)
        if estimate is not None:
            tail, allowance = estimate
            if abs(tail - bound) > _DECIDE_RTOL * bound + allowance:
                return tail < bound
    return _binom_sf(j, n, p) <= bound


def fixed_redundancy_n(k: int, a: float, target: float, ceiling: int = 100_000) -> int:
    """Minimal n >= k whose binomial availability tail meets the target.

    Finds the smallest n with P[X >= k] >= target for X ~ Binomial(n, a): the
    probability that at least k of n fragments sit on currently-online peers.
    The tail is _binom_sf(k - 1, n, a), a regularized incomplete beta
    function, stable far beyond n = 10^4; the comparison allows _TAIL_ATOL of
    last-digit noise, and _tail_at_most makes it.  The tail is nondecreasing
    in n, so one bisection over [k, ceiling] finds the first n that passes.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0 < a <= 1:
        raise ValueError("a must be in (0, 1]")
    if not 0 < target < 1:
        raise ValueError("target must be in (0, 1)")
    if ceiling < k:
        raise SearchCeilingError(f"ceiling {ceiling} is below k={k}")

    # tail >= target - _TAIL_ATOL, as "not tail <= the float just below it"
    below = math.nextafter(target - _TAIL_ATOL, -math.inf)

    def passes(n: int) -> bool:
        return not _tail_at_most(k - 1, n, a, below)

    n = k + bisect.bisect_left(range(k, ceiling + 1), True, key=passes)
    if n > ceiling:
        raise SearchCeilingError(f"no n <= {ceiling} meets target {target} at a={a}")
    return n


def kth_best_rate(avail: np.ndarray, uplink: np.ndarray, k: int) -> float:
    """The k-th best expected upload rate a_i * u_i of n >= k holders, given
    as availability and uplink arrays, as a Python float."""
    return np.sort(avail * uplink).item(avail.size - k)


def median_parallel(d0: float, uplink: np.ndarray, k: int) -> int:
    """Derived download parallelism l = min(k, max(1, floor(d0 / median))) of
    the holder uplink array; 1 with no holders.  The median is exact: the
    middle uplink, or (a + b) / 2 of the middle two, in Python floats, as
    statistics.median and np.median compute it."""
    n = uplink.size
    if n == 0:
        return 1
    ranked, mid = np.sort(uplink), n // 2
    median = ranked.item(mid) if n % 2 else (ranked.item(mid - 1) + ranked.item(mid)) / 2
    return min(k, max(1, int(d0 // median)))


def rate_ettr(o: float, d0: float, rate: float, parallel: int) -> float:
    """eTTR in seconds from the k-th best expected rate and l:
    max(o / d0, o / (l * rate)), and inf when the rate is zero."""
    if rate <= 0:
        return math.inf
    return max(o / d0, o / (parallel * rate))


def data_loss_probability(n: int, k: int, t_elapsed: float, mean_lifetime: float) -> float:
    """Probability that more than n - k of n holders crash within t_elapsed.

    Each holder's remaining lifetime is exponential with the given mean, so a
    holder crashes within t with probability q = 1 - exp(-t / mean); data is
    lost when at least n - k + 1 of n crash.  t_elapsed and mean_lifetime must
    share a unit.  The tail is _binom_sf(n - k, n, q), stable for any n used
    here (incomplete-beta evaluation).
    """
    return _binom_sf(n - k, n, _crash_probability(n, k, t_elapsed, mean_lifetime))


def _crash_probability(n: int, k: int, t_elapsed: float, mean_lifetime: float) -> float:
    """q = 1 - exp(-t_elapsed / mean_lifetime), once n, k, t_elapsed and
    mean_lifetime pass data_loss_probability's checks; the loss tests
    share it, so a bad argument raises the same error there."""
    if k < 1 or n < k:
        raise ValueError("need n >= k >= 1")
    if n > sys.float_info.max:  # the tail takes n - k + 1 and k as floats
        raise ValueError(f"n must be at most {sys.float_info.max:g}")
    if not t_elapsed >= 0:  # negated so that a nan fails too
        raise ValueError("t_elapsed must be non-negative")
    if not mean_lifetime > 0:
        raise ValueError("mean_lifetime must be positive")
    if math.isinf(t_elapsed) and math.isinf(mean_lifetime):
        raise ValueError("t_elapsed and mean_lifetime cannot both be infinite")
    return -math.expm1(-t_elapsed / mean_lifetime)


def loss_risk(n: int, k: int, ettr_seconds: float, thresholds: AdaptiveThresholds) -> float:
    """Probability of losing data over w + eTTR with n holders; 1.0 when eTTR
    is infinite, since such an object cannot be restored in any window."""
    if math.isinf(ettr_seconds):
        return 1.0
    t_days = thresholds.w_days + ettr_seconds / SECONDS_PER_DAY
    return data_loss_probability(n, k, t_days, thresholds.mean_lifetime_days)


def _risk_at_most(n: int, k: int, ettr_seconds: float, thresholds: AdaptiveThresholds, cap: float) -> bool:
    """loss_risk(n, k, ettr_seconds, thresholds) <= cap, decided by
    _tail_at_most."""
    if math.isinf(ettr_seconds):
        return 1.0 <= cap
    t_days = thresholds.w_days + ettr_seconds / SECONDS_PER_DAY
    return _tail_at_most(n - k, n, _crash_probability(n, k, t_days, thresholds.mean_lifetime_days), cap)


def within_loss_cap(n: int, k: int, ettr_seconds: float, thresholds: AdaptiveThresholds) -> bool:
    """The risk test: the loss probability over w + eTTR with n holders is at
    most loss_cap."""
    return _risk_at_most(n, k, ettr_seconds, thresholds, thresholds.loss_cap)


def loss_floor(k: int, min_ettr_seconds: float, thresholds: AdaptiveThresholds, ceiling: int) -> int:
    """The fewest holders, from k up to ceiling, that may pass the loss cap
    at an eTTR of at least min_ettr_seconds; ceiling when no fewer may.

    The loss risk rises with eTTR and falls as n grows, so every n below the
    floor fails within_loss_cap at every such eTTR, and one bisection over
    [k, ceiling) finds it.  A count passes when its risk at min_ettr_seconds
    is at most loss_cap times (1 + _FLOOR_RTOL), so that last-digit noise in
    the tail as eTTR grows cannot let a count below the floor pass.  The
    floor is k with loss_cap 1 or no crashes, and ceiling with an infinite
    w, where every holder crashes within the window.
    """
    cap = thresholds.loss_cap * (1 + _FLOOR_RTOL)

    def passes(n: int) -> bool:
        return _risk_at_most(n, k, min_ettr_seconds, thresholds, cap)

    return k + bisect.bisect_left(range(k, ceiling), True, key=passes)


def caps_met(n: int, k: int, ettr_seconds: float, min_ttr_seconds: float, thresholds: AdaptiveThresholds) -> bool:
    """The stopping test for n >= k holders: eTTR is at most
    max(ttr_floor, ttr_factor * minTTR), and then within_loss_cap."""
    cap = max(thresholds.ttr_floor_days * SECONDS_PER_DAY, thresholds.ttr_factor * min_ttr_seconds)
    return ettr_seconds <= cap and within_loss_cap(n, k, ettr_seconds, thresholds)

