"""Redundancy planning.

Given k original fragments, how many encoded fragments n should exist?  The
fixed policy solves a binomial availability target for a system-wide n.  The
adaptive policy instead stops uploading once two per-peer estimates pass: the
estimated time to restore (eTTR) and the probability of losing data while the
owner is away (exponential peer lifetimes, at least n - k + 1 holder crashes).
Both rest on one binomial tail, _binom_sf, evaluated in plain Python by
Loader's method (C. Loader, "Fast and Accurate Computation of Binomial
Probabilities", 2000; the method of R's dbinom): a saddle-point form of one
pmf term, and the rest of the tail from the pmf's term ratio.  Every rule
reads that value: the fixed rule compares it with its target, and
within_loss_cap and loss_floor compare loss_risk with the cap.

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
_N_CEILING = 100_000  # the largest n fixed_redundancy_n searches
# _stirlerr at n = 0 .. 15, to double precision (the entry at 0 is never read)
_STIRLERR = (0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
             0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
             0.009255462182712733, 0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
             0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)


class SearchCeilingError(ValueError):
    """The minimal-n search exceeded its ceiling, _N_CEILING."""


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
    """P[X > j] for X ~ Binomial(n, p): 1.0 below j = 0, 0.0 from j = n, p
    itself at p of 0 or 1, and otherwise the sum of the upper side's pmf
    terms, j + 1 .. n, so that the value is accurate relative to the tail
    at any magnitude: the tests hold it within 1e-12 of exact tails, and
    off by at most 2**-1074 per term where it falls below the normal floats.

    The sum is anchored at the side's largest term, the binomial's mode
    clamped into it, from _log_pmf; the other terms follow outwards by the
    pmf's term ratio, so none overflows and each carries a few roundings
    per step.  Each direction stops once a term falls below 2**-60 of the
    sum.  Past the anchor the terms only shrink, so what is left out stays
    below about 2**-60 sqrt(n) of the sum, and a call adds O(sqrt(n)) terms:
    about 25 ms at n = 10**9.
    """
    if j < 0:
        return 1.0
    if j >= n:
        return 0.0
    if p == 0 or p == 1:
        return float(p)
    mode = min(max(int((n + 1) * p), j + 1), n)
    odds = p / (1 - p)
    total = term = 1.0
    for i in range(mode, n):  # up from the anchor: t[i + 1] = t[i] (n - i) / (i + 1) p / (1 - p)
        term *= (n - i) / (i + 1) * odds
        total += term
        if term < total * 2.0**-60:
            break
    term = 1.0
    for i in range(mode, j + 1, -1):  # and down from it
        term *= i / ((n - i + 1) * odds)
        total += term
        if term < total * 2.0**-60:
            break
    return min(math.exp(_log_pmf(mode, n, p)) * total, 1.0)  # rounding may carry a wide sum past 1


def _log_pmf(x: int, n: int, p: float) -> float:
    """log P[X = x] for X ~ Binomial(n, p), 1 <= x <= n and 0 < p < 1, in
    Loader's saddle-point form: the Stirling errors of n, x and n - x less
    the deviances of x and n - x from their means, n p and n (1 - p), and
    less half the log of 2 pi x (n - x) / n.  Each part is accurate to a
    few ulps of itself, with no cancellation between large terms.  n, x
    and n - x (taken in integers) become floats once, here."""
    if x == n:
        return n * math.log(p)
    fn, fx, fy = float(n), float(x), float(n - x)
    return (_stirlerr(fn) - _stirlerr(fx) - _stirlerr(fy) - _bd0(fx, fn * p) - _bd0(fy, fn * (1 - p))
            - 0.5 * (math.log(fx / fn * fy) + math.log(2 * math.pi)))


def _stirlerr(n: float) -> float:
    """log(n!) - log(sqrt(2 pi n) (n / e)**n), the error of Stirling's
    formula at a whole n >= 1: from _STIRLERR up to 15, and above that from
    five terms of its asymptotic series, whose remainder is below 2e-16."""
    if n <= 15:
        return _STIRLERR[int(n)]
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """x log(x / m) + m - x, the deviance of x >= 1 from a mean m > 0.  Near
    the mean, where that form cancels, it is summed from its series in
    v = (x - m) / (x + m): (x - m) v + 2 x (v**3 / 3 + v**5 / 5 + ...)."""
    v = (x / 2 - m / 2) / (x / 2 + m / 2)  # halved, so that x + m cannot overflow
    if abs(v) >= 0.1:  # below m = 1, x / m may overflow, and log x - log m cannot cancel
        return x * (math.log(x / m) if m >= 1 else math.log(x) - math.log(m)) + (m - x)
    s, term, v2 = (x - m) * v, 2 * v * x, v * v
    for i in range(3, 99, 2):  # each term is under a hundredth of the last
        term *= v2
        if s + term / i == s:
            break
        s += term / i
    return s


def fixed_redundancy_n(k: int, a: float, target: float) -> int:
    """Minimal n >= k whose binomial availability tail meets the target.

    Finds the smallest n with P[X >= k] >= target for X ~ Binomial(n, a): the
    probability that at least k of n fragments sit on currently-online peers.
    The tail is _binom_sf(k - 1, n, a), and the comparison allows _TAIL_ATOL
    for its last-digit noise.  The tail is nondecreasing in n, so one
    bisection over [k, _N_CEILING] finds the first n that passes.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0 < a <= 1:
        raise ValueError("a must be in (0, 1]")
    if not 0 < target < 1:
        raise ValueError("target must be in (0, 1)")
    if _N_CEILING < k:
        raise SearchCeilingError(f"ceiling {_N_CEILING} is below k={k}")

    def passes(n: int) -> bool:
        return _binom_sf(k - 1, n, a) >= target - _TAIL_ATOL

    n = k + bisect.bisect_left(range(k, _N_CEILING + 1), True, key=passes)
    if n > _N_CEILING:
        raise SearchCeilingError(f"no n <= {_N_CEILING} meets target {target} at a={a}")
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
    share a unit.  The tail is _binom_sf(n - k, n, q).
    """
    if k < 1 or n < k:
        raise ValueError("need n >= k >= 1")
    if n > sys.float_info.max:  # _binom_sf takes n as a float
        raise ValueError(f"n must be at most {sys.float_info.max:g}")
    if not t_elapsed >= 0:  # negated so that a nan fails too
        raise ValueError("t_elapsed must be non-negative")
    if not mean_lifetime > 0:
        raise ValueError("mean_lifetime must be positive")
    if math.isinf(t_elapsed) and math.isinf(mean_lifetime):
        raise ValueError("t_elapsed and mean_lifetime cannot both be infinite")
    return _binom_sf(n - k, n, -math.expm1(-t_elapsed / mean_lifetime))


def loss_risk(n: int, k: int, ettr_seconds: float, thresholds: AdaptiveThresholds) -> float:
    """Probability of losing data over w + eTTR with n holders; 1.0 when eTTR
    is infinite, since such an object cannot be restored in any window."""
    if math.isinf(ettr_seconds):
        return 1.0
    t_days = thresholds.w_days + ettr_seconds / SECONDS_PER_DAY
    return data_loss_probability(n, k, t_days, thresholds.mean_lifetime_days)


def within_loss_cap(n: int, k: int, ettr_seconds: float, thresholds: AdaptiveThresholds) -> bool:
    """The risk test: the loss probability over w + eTTR with n holders is at
    most loss_cap."""
    return loss_risk(n, k, ettr_seconds, thresholds) <= thresholds.loss_cap


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
        return loss_risk(n, k, min_ettr_seconds, thresholds) <= cap

    return k + bisect.bisect_left(range(k, ceiling), True, key=passes)


def caps_met(n: int, k: int, ettr_seconds: float, min_ttr_seconds: float, thresholds: AdaptiveThresholds) -> bool:
    """The stopping test for n >= k holders: eTTR is at most
    max(ttr_floor, ttr_factor * minTTR), and then within_loss_cap."""
    cap = max(thresholds.ttr_floor_days * SECONDS_PER_DAY, thresholds.ttr_factor * min_ttr_seconds)
    return ettr_seconds <= cap and within_loss_cap(n, k, ettr_seconds, thresholds)

