"""Redundancy planning: how many encoded fragments are enough?

Three planning tools in one sitting.  The fixed rule sizes n so that k of n
fragments are online with high probability given average peer availability.
The loss model prices the window between a crash and the end of the restore:
fragments on peers with exponential lifetimes, data lost if fewer than k
survive.  The restore estimator turns holder bandwidths into an expected
restore time, which the adaptive policy compares against thresholds.
"""

import numpy as np

from p2pbackup import redundancy

KB = 1000.0


def fixed_rule() -> None:
    print("fixed rule: smallest n with P[>=k of n online] >= target")
    print("  k    avail  target    n    rate")
    for k, a, target in [(8, 0.5, 0.99), (8, 0.36, 0.99),
                         (64, 0.5, 0.99), (64, 0.36, 0.99), (64, 0.7, 0.999)]:
        n = redundancy.fixed_redundancy_n(k, a, target)
        print(f"  {k:3d}  {a:5.2f}  {target:6.3f}  {n:3d}  {n / k:5.2f}")


def loss_window() -> None:
    print("\nloss window: P[data lost] if the restore ends t days after the crash")
    print("  (k=64 fragments needed, 90-day mean holder lifetime)")
    header = "  rate    " + "".join(f"t={t:<6.0f}" for t in (1, 7, 14, 56))
    print(header)
    for rate in (1.5, 2.0, 3.0):
        n = int(rate * 64)
        row = f"  {rate:4.1f}   "
        for t in (1.0, 7.0, 14.0, 56.0):
            row += f" {redundancy.data_loss_probability(n, 64, t, 90.0):8.1e}"
        print(row)
    ratio = (redundancy.data_loss_probability(96, 64, 14.0, 90.0)
             / redundancy.data_loss_probability(192, 64, 14.0, 90.0))
    print(f"  doubling the rate buys a factor {ratio:.2e} at t=14")


def restore_estimate() -> None:
    print("\nrestore estimate for a 1 GiB object, k=8, download 1 MB/s:")
    o, d0 = 1 << 30, 1000 * KB
    rng = np.random.default_rng(3)
    avail, uplink = rng.uniform(0.3, 0.9, 20), rng.lognormal(np.log(80 * KB), 0.8, 20)
    rate = redundancy.kth_best_rate(avail, uplink, 8)  # the 8th best expected rate a * u
    for parallel in (2, 4, 8):
        ettr = redundancy.rate_ettr(o, d0, rate, parallel)
        print(f"  {parallel} parallel downloads: ~{ettr / 3600:.1f} h")
    thresholds = redundancy.AdaptiveThresholds(mean_lifetime_days=90.0, loss_cap=1e-4, w_days=14.0, parallel=4)
    decision = redundancy.caps_met(20, 8, redundancy.rate_ettr(o, d0, rate, 4), 3600.0, thresholds)
    print(f"  adaptive policy with these 20 holders says: "
          f"{'stop uploading' if decision else 'keep uploading'}")


def main() -> None:
    fixed_rule()
    loss_window()
    restore_estimate()


if __name__ == "__main__":
    main()
