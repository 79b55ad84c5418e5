"""The demos/ scripts run clean at reduced size, through their own flags.

Each runs in a fresh interpreter with RuntimeWarning raised as an error, so
a NaN from an empty slice or a 0/0 fails the demo instead of printing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = [
    ("01_trace_basics.py",),
    ("02_optimal_vs_random.py", "--trials", "5"),
    ("03_redundancy_planning.py",),
    ("04_full_simulation.py", "--peers", "40", "--weeks", "1"),
]


@pytest.mark.parametrize("argv", DEMOS, ids=lambda argv: argv[0].removesuffix(".py"))
def test_demo_runs_clean(argv, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / argv[0]), *argv[1:]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
