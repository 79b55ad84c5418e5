"""Redundancy planning.

Given k original fragments, how many encoded fragments n should exist?  The
fixed policy solves a binomial availability target for a system-wide n.  The
adaptive policy instead stops uploading once two per-peer estimates pass: the
estimated time to restore (eTTR) and the probability of losing data while the
owner is away (exponential peer lifetimes, at least n - k + 1 holder crashes).
Both binomial tails are one private helper, _binom_sf, which evaluates the
regularized incomplete beta function directly (scipy.special.betainc).  It
imports scipy.special at the first tail it evaluates, not at import, so a
process that only schedules or reads traces never loads scipy.

The eTTR formula and the stopping and risk tests take the holders' order
statistics: their count n, the k-th best expected rate (kth_best_rate) and
the download parallelism l, pinned or derived from the median uplink
(median_parallel).  The simulator reads those from its own arrays;
backup_complete, estimate_ttr and default_parallel check (availability,
uplink) pairs and compute the same statistics from them.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass

import numpy as np

SECONDS_PER_DAY = 86400.0
_TAIL_ATOL = 1e-12  # fixed_redundancy_n's allowance for the tail's last-digit noise


class SearchCeilingError(ValueError):
    """The minimal-n search exceeded its configured ceiling."""


class InsufficientHoldersError(ValueError):
    """Fewer than k holders: the backup is not yet restorable, eTTR is undefined."""


@dataclass(frozen=True)
class AdaptiveThresholds:
    """Stopping thresholds for the adaptive policy.

    The TTR rule is eTTR <= max(ttr_floor_days, ttr_factor * minTTR); setting
    ttr_floor_days to inf disables it.  loss_cap = 1.0 disables the loss rule.
    parallel is the download parallelism l; None derives it from bandwidth
    (see default_parallel).
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


def _holder_arrays(holders) -> tuple[np.ndarray, np.ndarray]:
    pairs = list(holders)
    if not pairs:
        return np.empty(0), np.empty(0)
    avail = np.asarray([p[0] for p in pairs], dtype=float)
    uplink = np.asarray([p[1] for p in pairs], dtype=float)
    if not (avail.min() >= 0 and avail.max() <= 1):  # negated so that a nan fails too
        raise ValueError("holder availabilities must be in [0, 1]")
    if not uplink.min() > 0:
        raise ValueError("holder uplinks must be positive")
    return avail, uplink


def _binom_sf(j: int, n: int, p: float) -> float:
    """P[X > j] for X ~ Binomial(n, p): 1.0 below j = 0, 0.0 from j = n, and
    betainc(j + 1, n - j, p) between: bit for bit scipy's binom.sf, at a
    small fraction of its per-call cost.  scipy.special is imported here,
    once per process, at the first tail that needs it."""
    if j < 0:
        return 1.0
    if j >= n:
        return 0.0
    from scipy.special import betainc

    return float(betainc(j + 1, n - j, p))


def fixed_redundancy_n(k: int, a: float, target: float, ceiling: int = 100_000) -> int:
    """Minimal n >= k whose binomial availability tail meets the target.

    Finds the smallest n with P[X >= k] >= target for X ~ Binomial(n, a): the
    probability that at least k of n fragments sit on currently-online peers.
    The tail is _binom_sf(k - 1, n, a), a regularized incomplete beta
    function, stable far beyond n = 10^4; the comparison allows _TAIL_ATOL of
    last-digit noise.  The tail is nondecreasing in n, so one bisection
    over [k, ceiling] finds the first n that passes.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0 < a <= 1:
        raise ValueError("a must be in (0, 1]")
    if not 0 < target < 1:
        raise ValueError("target must be in (0, 1)")
    if ceiling < k:
        raise SearchCeilingError(f"ceiling {ceiling} is below k={k}")

    def passes(n: int) -> bool:
        return _binom_sf(k - 1, n, a) >= target - _TAIL_ATOL

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


def default_parallel(d0: float, holder_uplinks, k: int) -> int:
    """Download parallelism that roughly saturates the owner downlink:
    median_parallel over holder_uplinks, a sequence or array of bytes/s."""
    uplinks = np.asarray(holder_uplinks, dtype=float)
    if uplinks.size and not uplinks.min() > 0:  # negated so that a nan fails too
        raise ValueError("holder uplinks must be positive")
    return median_parallel(d0, uplinks, k)


def estimate_ttr(o: float, d0: float, holders, k: int, parallel: int | None = None) -> float:
    """eTTR in seconds: max(o / d0, o / (l * a_j * u_j)) with j the k-th best
    holder by expected upload rate a_i * u_i.

    Holders are (availability, uplink bytes/s) pairs for the peers currently
    storing one fragment each.  Long-run availabilities are used as-is, so
    currently-offline holders count.  Returns inf when the k-th best expected
    rate is zero.
    """
    if not (o > 0 and d0 > 0):  # negated so that a nan fails too
        raise ValueError("o and d0 must be positive")
    avail, uplink = _holder_arrays(holders)
    if len(avail) < k:
        raise InsufficientHoldersError(f"{len(avail)} holders < k={k}")
    l = parallel if parallel is not None else median_parallel(d0, uplink, k)
    return rate_ettr(o, d0, kth_best_rate(avail, uplink, k), l)


def data_loss_probability(n: int, k: int, t_elapsed: float, mean_lifetime: float) -> float:
    """Probability that more than n - k of n holders crash within t_elapsed.

    Each holder's remaining lifetime is exponential with the given mean, so a
    holder crashes within t with probability q = 1 - exp(-t / mean); data is
    lost when at least n - k + 1 of n crash.  t_elapsed and mean_lifetime must
    share a unit.  The tail is _binom_sf(n - k, n, q), stable for any n used
    here (incomplete-beta evaluation).
    """
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
    q = -math.expm1(-t_elapsed / mean_lifetime)
    return _binom_sf(n - k, n, q)


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


def caps_met(n: int, k: int, ettr_seconds: float, min_ttr_seconds: float, thresholds: AdaptiveThresholds) -> bool:
    """The stopping test for n >= k holders: eTTR is at most
    max(ttr_floor, ttr_factor * minTTR), and then within_loss_cap."""
    cap = max(thresholds.ttr_floor_days * SECONDS_PER_DAY, thresholds.ttr_factor * min_ttr_seconds)
    return ettr_seconds <= cap and within_loss_cap(n, k, ettr_seconds, thresholds)


def backup_complete(o: float, d0: float, min_ttr_seconds: float, holders, k: int,
                    thresholds: AdaptiveThresholds) -> bool:
    """Adaptive stopping decision: True once the placed fragments are restorable
    (n >= k) and caps_met holds for their eTTR.

    Note the coupling when thresholds.parallel is None: the derived l depends
    on the holder uplink median, so adding a fast holder can shrink l and raise
    eTTR.  With a pinned l the decision is monotone in the holder set.
    """
    holders = list(holders)
    n = len(holders)
    if n < k:
        return False
    return caps_met(n, k, estimate_ttr(o, d0, holders, k, thresholds.parallel), min_ttr_seconds, thresholds)
