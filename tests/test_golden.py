"""Golden fingerprints of CLI outputs on fixed synthetic inputs.

The sched-compare CSV holds the mean O(x) and the mean randomized
completion per grid point, so its hash pins both the optimal search and the
order in which random_schedule draws from the shared generator; a second
grid with a skipped point pins the empty cells, and a trace-stats hash the
per-peer availability file.  The simulate hashes pin the whole CSV report
contract of both redundancy policies under every response mode, including
crash losses and assisted repair traffic; the plan hash pins a batch of
redundancy queries.
Regenerate the hashes only with a change that alters behaviour on purpose,
and say so where the change is recorded.
"""

import csv
import hashlib
import platform

import numpy
import scipy

from p2pbackup import cli

# Recorded with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1.
RECORDED_WITH = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}
TRACE_SHA256 = "5ee8220c284676d850d6c5cd8ee347380fcdcea26385fadb8a3d18cae0116061"
SCHED_COMPARE_SHA256 = "37b02a0170dfc182e776b79b5f20217822dc77223bb26830bcd6ec932cb01838"
SCHED_COMPARE_SKIP_SHA256 = "3826a0e619ef0efc0eb2d1cee037cbf5d7f127e1dc2c98c15b63429c04ce4e8b"
TRACE_STATS_SHA256 = "920356b86cb63d799693c294d4a775d7a568b0fb0df0997147869fedb61b7870"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_sched_compare_golden(tmp_path):
    running = {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}
    where = f"recorded with {RECORDED_WITH}, running {running}"
    assert cli.main(["trace-synth", "--peers", "40", "--slots", "168", "--seed", "7",
                     "--out-dir", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "trace.txt") == TRACE_SHA256, where
    assert cli.main(["sched-compare", "--matrix", str(tmp_path / "trace.txt"), "--x", "8,16",
                     "--trials", "30", "--seed", "3", "--out-dir", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "sched-compare.csv") == SCHED_COMPARE_SHA256, where
    # 30 fragments at ratio 1.5 need 45 candidates, more than the 39 other peers
    assert cli.main(["sched-compare", "--matrix", str(tmp_path / "trace.txt"), "--x", "8,30", "--ratios", "1.1,1.5",
                     "--trials", "10", "--seed", "3", "--out-dir", str(tmp_path / "skip")]) == 0
    assert "skipped" in (tmp_path / "skip" / "sched-compare.csv").read_text()
    assert _sha256(tmp_path / "skip" / "sched-compare.csv") == SCHED_COMPARE_SKIP_SHA256, where
    assert cli.main(["trace-stats", "--matrix", str(tmp_path / "trace.txt"), "--out-dir", str(tmp_path / "stats")]) == 0
    assert _sha256(tmp_path / "stats" / "trace-stats.csv") == TRACE_STATS_SHA256, where


SIM_COMMON = [
    "simulate", "--seed", "5", "--synth-peers", "30", "--synth-slots", "336",
    "--object-size", str(8 * 160 * 2**20), "--fragment-size", str(160 * 2**20),
    "--mean-lifetime-days", "20", "--repair-timeout-days", "1", "--delay-mean-days", "2",
]
# (policy, response, runs) -> sha256 of every run-*/*.csv and of the averaged
# summary.csv; the fixed runs average two seeds
SIMULATE_SHA256 = {
    ("fixed", "immediate", 2): {
        "run-0/crashes.csv": "5e28aa4018fa14e676e9b80d98217aeb2d0fced3f578f10a393455611c710ad1",
        "run-0/peers.csv": "7da74c92854afc1556bddf634dd04acd1c76103e12a8e746c586e8c0c7ede48d",
        "run-0/server.csv": "782bee9d414e79bf45cc7704ed9278f889cd6916c2d7208f830ecdae8aab14e4",
        "run-0/summary.csv": "2d7fbb8c4a7becb07e8df5301121906186569bcc4497bfce7aaed3dae53c6c28",
        "run-1/crashes.csv": "22d6d68a9fd432f6c7d8326d6fa5ffed4a07a4a7d7d4f626ae903799e1e892df",
        "run-1/peers.csv": "3a932aaf266b2a3c16e172e5396cbaaa7d6521210fa34a559686beafe7ac9f14",
        "run-1/server.csv": "782bee9d414e79bf45cc7704ed9278f889cd6916c2d7208f830ecdae8aab14e4",
        "run-1/summary.csv": "1232b4ddaf3f24ab881367e83ef20ac9c29c7542d7593dfff808d3c9bc74fd96",
        "summary.csv": "a04d31a548439678ad278425c2f27be47b28ebb2de7a557c9b40035890e7ebba",
    },
    ("fixed", "delayed", 2): {
        "run-0/crashes.csv": "41e09ec4c46b9513698f22f000d61a1312d24eef2ee9626a41d33c7aaaa17ac0",
        "run-0/peers.csv": "73a7b7d18d9275163446bfffb0adf8ba3cf7828038db590451777dcafe93eb75",
        "run-0/server.csv": "782bee9d414e79bf45cc7704ed9278f889cd6916c2d7208f830ecdae8aab14e4",
        "run-0/summary.csv": "8ce7e9243a607c1f38280dd23643d0aee2aa135242ea65acfb026b82eb6a9be2",
        "run-1/crashes.csv": "d6cef3afa1d3f14fdd40e19b9babe5200d3f4efa97fc22d3fde53e7d6bf528d0",
        "run-1/peers.csv": "f954537b113d933106954d6591d5927d93cfa3f93785e402b9d68c7a18edd509",
        "run-1/server.csv": "782bee9d414e79bf45cc7704ed9278f889cd6916c2d7208f830ecdae8aab14e4",
        "run-1/summary.csv": "08f7ceb18618f13948618a36dbe82b9e6ca5949059775226f961a828402ab6fa",
        "summary.csv": "c0206f9e3e8a8345d86354c0e571c89344fae9bbb16cdf9407caf1d0bd92b9e1",
    },
    ("fixed", "delayed_assisted", 2): {
        "run-0/crashes.csv": "864ee4694f1794cd544e43d87c9144c168524a2db25207361bca3597e0476fa7",
        "run-0/peers.csv": "8b13549e82e944d790aa3168156ba33bceb2829bf375499973b92d049df4b057",
        "run-0/server.csv": "d5dcfe1639e5abbc7afd5691d156108ce45108b2c0bde7576f22c286ed25428f",
        "run-0/summary.csv": "7feb863e978f1c6725c6193a7fe436ace1c962f6ba663076be90cd9a50b45883",
        "run-1/crashes.csv": "8a7b34c71993c7ba4671a124ff839cb4367c7ac9a9b2085f6c1faa411013900b",
        "run-1/peers.csv": "029471278b8d6cb66e0fb6e2b2fe7cef2c91b071e3aa11272c40621441a90986",
        "run-1/server.csv": "c1e857003513674cabf69e39213bfcd0bc18be69024e4912aa2915a03279c58f",
        "run-1/summary.csv": "23881bf2b93e203b70d0a3f3f54541ba118b62e0f67a1ecb00cd09c266e3398c",
        "summary.csv": "a43b5fd1eac46e4f1583849fa2f7e22b03c61025f7c324bfe119fb1a7bbc5fa3",
    },
    ("adaptive", "immediate", 1): {
        "run-0/crashes.csv": "48a43e1e5f5c3d44bc3f5a968de7d65df981fe83e869801bb2be7cab762004ca",
        "run-0/peers.csv": "8285d9a54a83279bfa7b26dd67f21133506eca4c4514fd7c44b093b6a80215ea",
        "run-0/server.csv": "782bee9d414e79bf45cc7704ed9278f889cd6916c2d7208f830ecdae8aab14e4",
        "run-0/summary.csv": "adef00e3044ce712024cec4168c8b5e72fe96a8f282e1848b8906c25d0018b9e",
        "summary.csv": "0ec610138a773059d1663562d3a047add03f020b61f2e00d99189d116c19a229",
    },
    ("adaptive", "delayed", 1): {
        "run-0/crashes.csv": "0e409e282f031d2b12c56fa3d1fca7bf9d3262eb6986ee698e6bc3ff6aaa0083",
        "run-0/peers.csv": "be5f59afeff73f88e1cde90be459bce9741b212fd3549fc6568a6133fddf2e0d",
        "run-0/server.csv": "782bee9d414e79bf45cc7704ed9278f889cd6916c2d7208f830ecdae8aab14e4",
        "run-0/summary.csv": "5e31c359c04f7a477ded841c0e62f07780f68badf74db1c99ee92338731deb95",
        "summary.csv": "5f74020d8ed7e0818e29a68e42900cccea711cdb63fee1d19bb683fe889bc239",
    },
    ("adaptive", "delayed_assisted", 1): {
        "run-0/crashes.csv": "30310989ea863ac6d74557f779d6d60ef433825b6b2a57380071495fb2636e2f",
        "run-0/peers.csv": "58446ddd1ca6677b809d0b10c2485fb4c86bbf144b42b1e627cefa670e42d643",
        "run-0/server.csv": "98c49cd926ef72e734f6c2f65804979f074b2f9109dc903f67c353ed3b3acb27",
        "run-0/summary.csv": "e7bac7792b589fd8801a47a25dbba8ffabee831ada7a74106fe03a74f734c7d0",
        "summary.csv": "514ea02f10c51608785e39ebc51bc7a96573efa3ab49e94435457b77ce6fceed",
    },
}
PLAN_BATCH = [
    {"mode": "n", "k": "64", "a": "0.36", "target": "0.99"},
    {"mode": "n", "k": "8", "a": "0.5", "target": "0.999"},
    {"mode": "loss", "n": "222", "k": "64", "t_days": "15.5", "mean_lifetime_days": "90"},
    {"mode": "loss", "n": "12", "k": "8", "t_days": "3", "mean_lifetime_days": "20"},
]
PLAN_SHA256 = "6aac9386cae626408b93902bfc6f8291e118480813c2d28fce79b553dfc46b71"


def _simulate(tmp_path, policy, response, runs):
    out = tmp_path / f"{policy}-{response}"
    assert cli.main(SIM_COMMON + ["--policy", policy, "--response", response, "--runs", str(runs),
                                  "--out-dir", str(out)]) == 0
    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        summary = next(csv.DictReader(fh))
    hashes = {p.relative_to(out).as_posix(): _sha256(p) for p in sorted(out.glob("run-*/*.csv"))}
    hashes["summary.csv"] = _sha256(out / "summary.csv")
    return summary, hashes


def test_simulate_golden(tmp_path):
    running = {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}
    where = f"recorded with {RECORDED_WITH}, running {running}"
    got = {}
    for policy, runs in (("fixed", 2), ("adaptive", 1)):
        for response in ("immediate", "delayed", "delayed_assisted"):
            summary, got[(policy, response, runs)] = _simulate(tmp_path, policy, response, runs)
            assert float(summary["lost_episodes"]) >= 1, (policy, response)
            if response == "delayed_assisted":
                assert float(summary["server_outbound_bytes"]) > 0, (policy, response)
    batch = tmp_path / "batch.csv"
    with open(batch, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["mode", "k", "a", "target", "n", "t_days", "mean_lifetime_days"])
        writer.writeheader()
        writer.writerows(PLAN_BATCH)
    assert cli.main(["plan", "--batch", str(batch), "--out-dir", str(tmp_path / "plan")]) == 0
    assert got == SIMULATE_SHA256, where
    assert _sha256(tmp_path / "plan" / "plan.csv") == PLAN_SHA256, where
