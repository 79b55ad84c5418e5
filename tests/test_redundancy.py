import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from p2pbackup import redundancy as red
from oracles import binomial_tail_ge, minimal_redundancy

DAY = red.SECONDS_PER_DAY


# --------------------------------------------------------- fixed_redundancy_n

def test_fixed_n_agrees_with_exact_arithmetic_at_design_point():
    # Exact rational evaluation of the binomial tail fixes the minimum at 222.
    n = red.fixed_redundancy_n(64, 0.36, 0.99)
    assert n == minimal_redundancy(64, Fraction(36, 100), Fraction(99, 100)) == 222
    assert binomial_tail_ge(221, 64, Fraction(36, 100)) < Fraction(99, 100)
    assert binomial_tail_ge(222, 64, Fraction(36, 100)) >= Fraction(99, 100)


def test_fixed_n_full_availability_needs_no_redundancy():
    assert red.fixed_redundancy_n(64, 1.0, 0.999) == 64
    assert red.fixed_redundancy_n(1, 1.0, 0.5) == 1


def test_fixed_n_single_fragment_closed_form():
    # k=1: tail is 1 - (1-a)^n, first >= 0.75 at n=2 for a=0.5
    assert red.fixed_redundancy_n(1, 0.5, 0.75) == 2


@pytest.mark.parametrize("k", [1, 2, 5, 8])
@pytest.mark.parametrize("a_pct,target_pct", [(36, 99), (50, 90), (80, 999_0), (25, 50)])
def test_fixed_n_matches_oracle_on_small_grid(k, a_pct, target_pct):
    a = Fraction(a_pct, 100)
    target = Fraction(target_pct, 100) if target_pct < 100 else Fraction(target_pct, 10000)
    expected = minimal_redundancy(k, a, target)
    assert red.fixed_redundancy_n(k, float(a), float(target)) == expected


def test_fixed_n_is_minimal():
    for k, a, target in [(4, 0.4, 0.9), (16, 0.6, 0.99), (3, 0.3, 0.5)]:
        n = red.fixed_redundancy_n(k, a, target)
        if n > k:
            from scipy.stats import binom
            assert binom.sf(k - 1, n - 1, a) < target
        assert n >= k


def test_fixed_n_monotone_in_target_and_availability():
    ns = [red.fixed_redundancy_n(8, 0.5, t) for t in (0.5, 0.9, 0.99, 0.999)]
    assert ns == sorted(ns)
    ns = [red.fixed_redundancy_n(8, a, 0.99) for a in (0.3, 0.5, 0.7, 0.9)]
    assert ns == sorted(ns, reverse=True)


@given(st.integers(1, 32), st.floats(0.1, 1.0), st.floats(0.5, 0.9999), st.integers(0, 40))
@settings(max_examples=150, deadline=None)
def test_fixed_n_matches_a_linear_scan(k, a, target, slack):
    """The bisection returns the first n >= k that a scan from k finds with
    the same float test, and raises SearchCeilingError exactly when that n
    lies above the ceiling."""
    n = next(n for n in itertools.count(k) if red._binom_sf(k - 1, n, a) >= target - 1e-12)
    assert red.fixed_redundancy_n(k, a, target) == n
    ceiling = max(k, n - 20 + slack)
    if ceiling < n:
        with pytest.raises(red.SearchCeilingError):
            red.fixed_redundancy_n(k, a, target, ceiling=ceiling)
    else:
        assert red.fixed_redundancy_n(k, a, target, ceiling=ceiling) == n


def test_fixed_n_search_ceiling():
    with pytest.raises(red.SearchCeilingError):
        red.fixed_redundancy_n(8, 0.01, 0.999, ceiling=50)
    with pytest.raises(red.SearchCeilingError):
        red.fixed_redundancy_n(64, 0.5, 0.99, ceiling=10)


def test_fixed_n_rejects_bad_arguments():
    for kwargs in [dict(k=0, a=0.5, target=0.9), dict(k=1, a=0.0, target=0.9),
                   dict(k=1, a=1.1, target=0.9), dict(k=1, a=0.5, target=1.0)]:
        with pytest.raises(ValueError):
            red.fixed_redundancy_n(**kwargs)


def test_fixed_n_large_k_is_fast_and_stable():
    # n in the thousands: the beta-function tail must not over- or underflow.
    n = red.fixed_redundancy_n(1000, 0.36, 0.99)
    from scipy.stats import binom
    assert binom.sf(999, n, 0.36) >= 0.99 - 1e-12
    assert binom.sf(999, n - 1, 0.36) < 0.99


# ----------------------------------------------------------------- estimate_ttr

def test_ettr_download_limited():
    holders = [(0.5, 20.0)] * 3
    assert red.estimate_ttr(100.0, 10.0, holders, k=3, parallel=2) == pytest.approx(10.0)


def test_ettr_holder_limited():
    holders = [(0.5, 20.0)] * 3
    assert red.estimate_ttr(100.0, 100.0, holders, k=3, parallel=2) == pytest.approx(5.0)


def test_ettr_uses_kth_best_expected_rate():
    holders = [(1.0, 100.0), (0.5, 20.0), (0.1, 10.0)]  # products 100, 10, 1
    assert red.estimate_ttr(100.0, 1e9, holders, k=2, parallel=1) == pytest.approx(10.0)
    assert red.estimate_ttr(100.0, 1e9, holders, k=3, parallel=1) == pytest.approx(100.0)


def test_ettr_invariant_under_holder_order():
    holders = [(1.0, 100.0), (0.5, 20.0), (0.1, 10.0), (0.9, 5.0)]
    forward = red.estimate_ttr(50.0, 25.0, holders, k=3, parallel=2)
    backward = red.estimate_ttr(50.0, 25.0, holders[::-1], k=3, parallel=2)
    assert forward == backward


def test_ettr_requires_k_holders():
    with pytest.raises(red.InsufficientHoldersError):
        red.estimate_ttr(100.0, 10.0, [(0.5, 10.0)], k=2)


def test_no_holders():
    with pytest.raises(red.InsufficientHoldersError, match="^0 holders < k=2$"):
        red.estimate_ttr(100.0, 10.0, [], k=2)
    assert red.default_parallel(100.0, [], 4) == 1


def test_ettr_zero_rate_holder_is_infinite():
    holders = [(0.0, 10.0), (0.0, 10.0)]
    assert red.estimate_ttr(100.0, 10.0, holders, k=2, parallel=1) == math.inf


def test_ettr_derived_parallelism_saturates_downlink():
    assert red.default_parallel(100.0, [10.0, 20.0, 30.0], k=8) == 5  # 100 // 20
    assert red.default_parallel(5.0, [10.0, 10.0], k=8) == 1
    assert red.default_parallel(1e9, [10.0], k=4) == 4  # never above k
    # estimate_ttr with parallel=None applies the same rule
    holders = [(1.0, 20.0)] * 4
    assert red.estimate_ttr(100.0, 100.0, holders, k=4) == pytest.approx(100.0 / (4 * 20.0))


def test_default_parallel_takes_numpy_median():
    rng = np.random.default_rng(17)
    for size in list(range(1, 41)) * 25:  # odd and even counts
        uplinks = rng.lognormal(np.log(77e3), 1.0, size)
        d0 = float(rng.lognormal(np.log(1e6), 1.0))
        expected = min(64, max(1, int(d0 // float(np.median(uplinks)))))
        assert red.default_parallel(d0, uplinks, 64) == expected
        assert red.default_parallel(d0, uplinks.tolist(), 64) == expected


@given(
    holders=st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(1.0, 1e6)), min_size=3, max_size=12),
    boost=st.floats(1.0, 10.0),
)
@settings(max_examples=100)
def test_ettr_never_rises_when_a_holder_speeds_up(holders, boost):
    k = 3
    base = red.estimate_ttr(1e6, 1e3, holders, k, parallel=2)
    a, u = holders[0]
    faster = [(a, u * boost)] + holders[1:]
    assert red.estimate_ttr(1e6, 1e3, faster, k, parallel=2) <= base


# -------------------------------------------------------- data_loss_probability

def test_loss_zero_elapsed_time():
    for n, k in [(1, 1), (10, 4), (228, 64)]:
        assert red.data_loss_probability(n, k, 0.0, 90.0) == 0.0


def test_loss_two_holders_one_needed_at_mean_lifetime():
    # Both holders must crash: (1 - e^{-1})^2
    expected = (1.0 - math.exp(-1.0)) ** 2
    assert red.data_loss_probability(2, 1, 90.0, 90.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.39958, abs=5e-6)


def test_loss_no_redundancy_long_absence():
    assert red.data_loss_probability(8, 8, 1e9, 1.0) == pytest.approx(1.0)


def test_loss_monotone_small_grid():
    ts = [0.0, 1.0, 7.0, 14.0, 56.0]
    for k in (1, 4):
        for n in range(k, 4 * k + 1):
            losses = [red.data_loss_probability(n, k, t, 90.0) for t in ts]
            assert losses == sorted(losses)  # nondecreasing in t
    for t in ts[1:]:
        by_n = [red.data_loss_probability(n, 4, t, 90.0) for n in range(4, 17)]
        assert by_n == sorted(by_n, reverse=True)  # nonincreasing in n
        by_k = [red.data_loss_probability(16, k, t, 90.0) for k in range(1, 17)]
        assert by_k == sorted(by_k)  # nondecreasing in k


def test_loss_matches_monte_carlo():
    n, k, t, mean = 30, 5, 45.0, 90.0
    rng = np.random.default_rng(2024)
    crashes = (rng.exponential(mean, size=(100_000, n)) < t).sum(axis=1)
    observed = float((crashes > n - k).mean())
    p = red.data_loss_probability(n, k, t, mean)
    se = math.sqrt(p * (1 - p) / 100_000)
    assert abs(observed - p) < 3 * se + 1e-12


def test_loss_gap_between_redundancy_rates():
    # Cutting the rate from 3.0 to 1.5 at k=64 raises two-week loss by >= 10^3.
    low = red.data_loss_probability(96, 64, 14.0, 90.0)
    high = red.data_loss_probability(192, 64, 14.0, 90.0)
    assert low / high >= 1e3


def test_loss_rejects_bad_arguments():
    for args in [(0, 1, 1.0, 90.0), (3, 4, 1.0, 90.0), (4, 4, -1.0, 90.0), (4, 4, 1.0, 0.0)]:
        with pytest.raises(ValueError):
            red.data_loss_probability(*args)


# -------------------------------------------------------------------- loss_risk

def test_loss_risk_is_one_for_infinite_ettr():
    for th in (red.AdaptiveThresholds(), red.AdaptiveThresholds(w_days=0.0, mean_lifetime_days=math.inf)):
        assert red.loss_risk(10, 8, math.inf, th) == 1.0
        assert red.loss_risk(200, 8, math.inf, th) == 1.0


@pytest.mark.parametrize("n, k, ettr, w_days, lifetime", [
    (8, 8, 0.0, 0.0, 90.0),
    (12, 8, 1.5 * 86400, 3.0, 20.0),
    (30, 8, 5 * 3600.0, 14.0, 20.0),
    (100, 64, 86400.0, 14.0, 90.0),
    (222, 64, 1.5 * 86400, 14.0, 90.0),
])
def test_loss_risk_is_loss_over_w_plus_ettr(n, k, ettr, w_days, lifetime):
    th = red.AdaptiveThresholds(w_days=w_days, mean_lifetime_days=lifetime)
    risk = red.loss_risk(n, k, ettr, th)
    assert risk == red.data_loss_probability(n, k, w_days + ettr / 86400, lifetime)
    # loss means at least n - k + 1 of n holders crash, each with probability q;
    # binom.sf stays within 1e-12 relative of exact rationals at these tails
    q = -math.expm1(-(w_days + ettr / 86400) / lifetime)
    exact = binomial_tail_ge(n, n - k + 1, Fraction(q))
    assert risk == pytest.approx(float(exact), rel=1e-12, abs=0.0)


# -------------------------------------------------------------- backup_complete

GOOD_HOLDER = (0.9, 1e6)


def thresholds(**kwargs):
    return red.AdaptiveThresholds(**{"parallel": 2, **kwargs})


def test_backup_not_complete_below_k():
    assert not red.backup_complete(1e9, 1e9, 60.0, [GOOD_HOLDER] * 3, k=4, thresholds=thresholds())


def test_backup_complete_at_fixed_policy_operating_point():
    # 228 fast holders for k=64 clear both rules with orders of magnitude to spare.
    holders = [(1.0, 1e9)] * 228
    o, d0 = 64 * 160 * 2**20, 1e9
    assert red.backup_complete(o, d0, o / d0, holders, k=64, thresholds=thresholds())
    loss = red.data_loss_probability(228, 64, 14.0, 90.0)
    assert loss < 1e-4


def test_backup_never_completes_with_dead_rate_holders():
    holders = [(1e-9, 1e-9)] * 300
    assert not red.backup_complete(1e9, 1e9, 60.0, holders, k=4, thresholds=thresholds())


def test_backup_blocked_by_loss_cap_until_enough_holders():
    # Slow churn: with barely k holders the loss term fails, with many it passes.
    o, d0 = 1e6, 1e6
    few = [GOOD_HOLDER] * 4
    many = [GOOD_HOLDER] * 12
    th = thresholds(loss_cap=1e-4, w_days=14.0, mean_lifetime_days=90.0)
    assert not red.backup_complete(o, d0, 1.0, few, k=4, thresholds=th)
    assert red.backup_complete(o, d0, 1.0, many, k=4, thresholds=th)


def test_backup_blocked_by_ttr_rule():
    # Holders so slow that eTTR exceeds max(1 day, 2 * minTTR) while loss passes.
    o = 1e9
    holders = [(1.0, 1000.0)] * 40  # eTTR = 1e9 / (2 * 1000) s ~ 5.8 days
    th = thresholds(loss_cap=1.0)
    assert not red.backup_complete(o, 1e9, 60.0, holders, k=4, thresholds=th)
    # a generous floor admits the same placement
    assert red.backup_complete(o, 1e9, 60.0, holders, k=4, thresholds=thresholds(loss_cap=1.0, ttr_floor_days=30.0))


def test_backup_ttr_cap_scales_with_min_ttr():
    o = 1e9
    holders = [(1.0, 1000.0)] * 40
    ettr = red.estimate_ttr(o, 1e9, holders, 4, parallel=2)
    th = thresholds(loss_cap=1.0)
    assert red.backup_complete(o, 1e9, ettr / 2, holders, k=4, thresholds=th)
    assert not red.backup_complete(o, 1e9, ettr / 2.01, holders, k=4, thresholds=th)


@given(st.integers(5, 40), st.integers(0, 10))
@settings(max_examples=60)
def test_backup_complete_monotone_with_pinned_parallelism(start, extra):
    th = thresholds()
    o, d0 = 1e6, 1e6
    base = [GOOD_HOLDER] * start
    if red.backup_complete(o, d0, 1.0, base, k=5, thresholds=th):
        grown = base + [GOOD_HOLDER] * extra
        assert red.backup_complete(o, d0, 1.0, grown, k=5, thresholds=th)


def test_thresholds_validation():
    with pytest.raises(ValueError):
        red.AdaptiveThresholds(loss_cap=0.0)
    with pytest.raises(ValueError):
        red.AdaptiveThresholds(w_days=-1.0)
    with pytest.raises(ValueError):
        red.AdaptiveThresholds(parallel=0)
    with pytest.raises(ValueError):
        red.AdaptiveThresholds(mean_lifetime_days=0.0)


@pytest.mark.parametrize("call, args", [
    (red.data_loss_probability, (4, 2, math.nan, 90.0)),
    (red.data_loss_probability, (4, 2, 1.0, math.nan)),
    (red.estimate_ttr, (math.nan, 1e6, [GOOD_HOLDER] * 4, 4)),
    (red.estimate_ttr, (1e6, math.nan, [GOOD_HOLDER] * 4, 4, 2)),
    (red.data_loss_probability, (4, 2, math.inf, math.inf)),  # inf / inf would make a nan
    (red.estimate_ttr, (1e9, 1e6, [(math.nan, 1e6)] * 3 + [GOOD_HOLDER], 2)),
    (red.estimate_ttr, (1e9, 1e6, [(0.5, math.nan)] + [GOOD_HOLDER] * 3, 2)),
    (red.default_parallel, (1e6, [1e5, math.nan, 2e5], 4)),
    (red.default_parallel, (1e6, [math.nan, 1e5], 4)),
    (red.default_parallel, (1e6, [0.0], 4)),
    (red.default_parallel, (1e6, [-1e5, 2e5, 3e5], 4)),
    (red.data_loss_probability, (10**400, 2, 1.0, 90.0)),  # no float holds n
])
def test_nan_inputs_are_rejected(call, args):
    with pytest.raises(ValueError, match="must be|cannot both be"):
        call(*args)


@pytest.mark.parametrize("name", ["w_days", "mean_lifetime_days", "ttr_floor_days", "ttr_factor"])
def test_thresholds_reject_nan_and_keep_inf(name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        red.AdaptiveThresholds(**{name: math.nan})
    red.AdaptiveThresholds(**{name: math.inf})


def test_thresholds_reject_an_infinite_window_over_an_infinite_lifetime():
    with pytest.raises(ValueError, match="w_days and mean_lifetime_days cannot both be infinite"):
        red.AdaptiveThresholds(w_days=math.inf, mean_lifetime_days=math.inf)


def test_infinite_windows_and_lifetimes_stay_valid():
    assert red.data_loss_probability(4, 2, math.inf, 90.0) == 1.0
    assert red.data_loss_probability(4, 2, 1.0, math.inf) == 0.0


# ------------------------------------------------------------------- _binom_sf

def test_binom_sf_is_scipy_binom_sf_bit_for_bit():
    rng = np.random.default_rng(2024)
    for i in range(3000):
        n = int(rng.integers(1, 10 ** int(rng.integers(1, 6)) + 1))
        j = int(rng.integers(-2, n + 3))
        p = (0.0, 1.0, float(rng.random()))[min(i % 5, 2)]
        assert red._binom_sf(j, n, p) == float(binom.sf(j, n, p)), (j, n, p)


def test_scipy_loads_only_at_the_first_binomial_tail(tmp_path):
    """Importing the package and its CLI loads no scipy module, and neither
    do trace-synth, trace-stats and sched-compare runs, which evaluate no
    binomial tail: scipy.special costs every process that loads it most of
    its start-up.  The first tail then loads scipy.special.  A bare import
    loads exactly the four modules the package imports, so the import time
    a fresh interpreter pays stays the same work."""
    src = Path(red.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = tmp_path / "o"
    code = f"""
import sys
def scipy_modules():
    print("probe", sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
import p2pbackup
print("probe", sorted(m for m in sys.modules if m.startswith('p2pbackup.')))
scipy_modules()
from p2pbackup import cli, redundancy
scipy_modules()
for argv in (["trace-synth", "--peers", "6", "--slots", "24"], ["trace-stats", "--matrix", "{out}/trace.txt"],
             ["sched-compare", "--matrix", "{out}/trace.txt", "--x", "2", "--ratios", "1.5", "--trials", "2"]):
    assert cli.main([*argv, "--out-dir", "{out}"]) == 0, argv
    scipy_modules()
redundancy._binom_sf(1, 4, 0.5)
print("probe", 'scipy.special' in sys.modules)
"""
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            timeout=120, check=True)
    # the subcommands print too; the probes' lines are marked
    package, *scipy_modules, tail_loads = [line[6:] for line in result.stdout.splitlines() if line[:6] == "probe "]
    assert package == str([f"p2pbackup.{name}" for name in ("redundancy", "sched", "sim", "trace")])
    assert scipy_modules == ["[]"] * 5
    assert tail_loads == "True"
