"""Golden fingerprint of the sched-compare report on a fixed synthetic trace.

The CSV holds the mean O(x) and the mean randomized completion per grid
point, so its hash pins both the optimal search and the order in which
random_schedule draws from the shared generator.  Regenerate the hashes
only with a change that alters scheduling behaviour on purpose, and say so
where the change is recorded.
"""

import hashlib
import platform

import numpy
import scipy

from p2pbackup import cli

# Recorded with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1.
RECORDED_WITH = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}
TRACE_SHA256 = "5ee8220c284676d850d6c5cd8ee347380fcdcea26385fadb8a3d18cae0116061"
SCHED_COMPARE_SHA256 = "37b02a0170dfc182e776b79b5f20217822dc77223bb26830bcd6ec932cb01838"


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
