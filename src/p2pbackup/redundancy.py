"""Redundancy planning.

Given k original fragments, how many encoded fragments n should exist?  The
fixed policy solves a binomial availability target for a system-wide n.  The
adaptive policy instead stops uploading once two per-peer estimates pass: the
estimated time to restore (eTTR) and the probability of losing data while the
owner is away (exponential peer lifetimes, at least n - k + 1 holder crashes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

SECONDS_PER_DAY = 86400.0


class SearchCeilingError(ValueError):
    """The minimal-n search exceeded its configured ceiling."""


class InsufficientHoldersError(ValueError):
    """Fewer than k holders: the backup is not yet restorable, eTTR is undefined."""


@dataclass(frozen=True)
class CodingParams:
    """Erasure-coding shape: o bytes split into k fragments of f bytes, n encoded."""

    object_size: int
    fragment_size: int
    n: int

    def __post_init__(self):
        if self.fragment_size <= 0 or self.object_size <= 0:
            raise ValueError("sizes must be positive")
        if self.object_size % self.fragment_size:
            raise ValueError("object_size must be an exact multiple of fragment_size")
        if self.n < self.k:
            raise ValueError("n must be at least k")

    @property
    def k(self) -> int:
        return self.object_size // self.fragment_size

    @property
    def redundancy(self) -> float:
        return self.n / self.k


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
        if not (self.ttr_floor_days >= 0 and self.ttr_factor >= 0):
            raise ValueError("TTR rule parameters must be non-negative")


def _holder_arrays(holders) -> tuple[np.ndarray, np.ndarray]:
    pairs = list(holders)
    if not pairs:
        return np.empty(0), np.empty(0)
    avail = np.asarray([p[0] for p in pairs], dtype=float)
    uplink = np.asarray([p[1] for p in pairs], dtype=float)
    if avail.min() < 0 or avail.max() > 1:
        raise ValueError("holder availabilities must be in [0, 1]")
    if uplink.min() <= 0:
        raise ValueError("holder uplinks must be positive")
    return avail, uplink


def fixed_redundancy_n(k: int, a: float, target: float, ceiling: int = 100_000, atol: float = 1e-12) -> int:
    """Minimal n >= k whose binomial availability tail meets the target.

    Finds the smallest n with P[X >= k] >= target for X ~ Binomial(n, a): the
    probability that at least k of n fragments sit on currently-online peers.
    The tail is the regularized incomplete beta function, stable far beyond
    n = 10^4; atol guards the comparison against its last-digit noise.  The
    tail is nondecreasing in n, so the search doubles n and then bisects.
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
        return float(binom.sf(k - 1, n, a)) >= target - atol

    if passes(k):
        return k
    lo, hi = k, min(2 * k, ceiling)
    if lo == hi:
        raise SearchCeilingError(f"no n <= {ceiling} meets target {target} at a={a}")
    while not passes(hi):
        if hi >= ceiling:
            raise SearchCeilingError(f"no n <= {ceiling} meets target {target} at a={a}")
        lo, hi = hi, min(2 * hi, ceiling)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


def default_parallel(d0: float, holder_uplinks, k: int) -> int:
    """Download parallelism that roughly saturates the owner downlink:
    min(k, max(1, floor(d0 / median holder uplink)))."""
    uplinks = np.asarray(list(holder_uplinks), dtype=float)
    if uplinks.size == 0:
        return 1
    median = float(np.median(uplinks))
    return min(k, max(1, int(d0 // median)))


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
    rates = np.sort(avail * uplink)[::-1]
    rate_j = float(rates[k - 1])
    l = parallel if parallel is not None else default_parallel(d0, uplink, k)
    if rate_j <= 0:
        return math.inf
    return max(o / d0, o / (l * rate_j))


def data_loss_probability(n: int, k: int, t_elapsed: float, mean_lifetime: float) -> float:
    """Probability that more than n - k of n holders crash within t_elapsed.

    Each holder's remaining lifetime is exponential with the given mean, so a
    holder crashes within t with probability q = 1 - exp(-t / mean); data is
    lost when at least n - k + 1 of n crash.  t_elapsed and mean_lifetime must
    share a unit.  Stable for any n used here (incomplete-beta evaluation).
    """
    if k < 1 or n < k:
        raise ValueError("need n >= k >= 1")
    if not t_elapsed >= 0:  # negated so that a nan fails too
        raise ValueError("t_elapsed must be non-negative")
    if not mean_lifetime > 0:
        raise ValueError("mean_lifetime must be positive")
    if math.isinf(t_elapsed) and math.isinf(mean_lifetime):
        raise ValueError("t_elapsed and mean_lifetime cannot both be infinite")
    q = -math.expm1(-t_elapsed / mean_lifetime)
    return float(binom.sf(n - k, n, q))


def loss_risk(n: int, k: int, ettr_seconds: float, thresholds: AdaptiveThresholds) -> float:
    """Probability of losing data over w + eTTR with n holders; 1.0 when eTTR
    is infinite, since such an object cannot be restored in any window."""
    if math.isinf(ettr_seconds):
        return 1.0
    t_days = thresholds.w_days + ettr_seconds / SECONDS_PER_DAY
    return data_loss_probability(n, k, t_days, thresholds.mean_lifetime_days)


def backup_complete(o: float, d0: float, min_ttr_seconds: float, holders, k: int,
                    thresholds: AdaptiveThresholds) -> bool:
    """Adaptive stopping decision: True once the placed fragments are restorable
    (n >= k), eTTR passes max(ttr_floor, ttr_factor * minTTR), and the loss
    probability over w + eTTR passes loss_cap.

    Note the coupling when thresholds.parallel is None: the derived l depends
    on the holder uplink median, so adding a fast holder can shrink l and raise
    eTTR.  With a pinned l the decision is monotone in the holder set.
    """
    holders = list(holders)
    n = len(holders)
    if n < k:
        return False
    ettr = estimate_ttr(o, d0, holders, k, thresholds.parallel)
    cap = max(thresholds.ttr_floor_days * SECONDS_PER_DAY, thresholds.ttr_factor * min_ttr_seconds)
    if not ettr <= cap:
        return False
    return loss_risk(n, k, ettr, thresholds) <= thresholds.loss_cap
