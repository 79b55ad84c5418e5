"""Cold-start cost of the package: what a fresh interpreter pays to import it
and to run each subcommand once at a toy size, and whether scipy got loaded.

    PYTHONPATH=src python tests/import_cost.py

Each case runs in REPEATS fresh interpreters.  The child times itself from
just before its first ``p2pbackup`` import to the end of the case (so the
interpreter's own start-up is left out, as ``perfbench/run.py`` times
``setup_s``'s import), and reports whether any ``scipy`` module is loaded.
The cases are ``import p2pbackup``, ``import p2pbackup.cli``, and
``cli.main`` on toy runs of trace-synth, trace-stats, sched-compare, plan
(of n, and of a loss probability) and simulate (with crashes, and adaptive
without them).  The tool prints the median seconds per case, then one line
of JSON with each case's median seconds and scipy flag.  No case should load
scipy: the package evaluates its binomial tails in plain Python.

The times move about twofold with whether src/p2pbackup holds compiled
bytecode, so the header and the JSON (``"bytecode"``) record it as the
cases find it: ``all``, ``none`` or ``partial`` of the package's modules
with a file at importlib.util.cache_from_source.  A tree run without
PYTHONDONTWRITEBYTECODE gains its bytecode at the first import.

Not collected by pytest: the file name has no test_ prefix.
"""

from __future__ import annotations

import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPEATS = 5
SRC = Path(__file__).resolve().parents[1] / "src"
CHILD = """
import sys, time
t = time.perf_counter()
{body}
print(repr(time.perf_counter() - t), any(m.split(".")[0] == "scipy" for m in sys.modules))
"""


def cases(work: Path) -> dict[str, str]:
    """The body of each case's child, by name; the CLI cases write under work."""
    trace_file = work / "toy" / "trace.txt"
    runs = {
        "trace-synth": ["trace-synth", "--peers", "8", "--slots", "48"],
        "trace-stats": ["trace-stats", "--matrix", str(trace_file)],
        "sched-compare": ["sched-compare", "--matrix", str(trace_file), "--x", "2", "--ratios", "1.5",
                          "--trials", "2"],
        "plan": ["plan", "--k", "64", "--a", "0.36", "--target", "0.99"],
        "plan --loss": ["plan", "--loss", "--n", "96", "--k", "64", "--t-days", "14"],
        # a k = 2 object, so that the toy simulation backs up, crashes and restores
        "simulate": ["simulate", "--synth-peers", "8", "--synth-slots", "48", "--object-size", "2000000",
                     "--fragment-size", "1000000", "--mean-lifetime-days", "1"],
        "simulate --mean-lifetime-days inf": ["simulate", "--synth-peers", "8", "--synth-slots", "48",
                                              "--object-size", "2000000", "--fragment-size", "1000000",
                                              "--policy", "adaptive", "--mean-lifetime-days", "inf"],
    }
    out = {"import p2pbackup": "import p2pbackup", "import p2pbackup.cli": "import p2pbackup.cli"}
    for name, argv in runs.items():
        argv = [*argv, "--out-dir", str(work / name.replace(" ", ""))]
        out[f"cli.main {name}"] = ("import contextlib, io\nfrom p2pbackup import cli\n"
                                   f"with contextlib.redirect_stdout(io.StringIO()):\n"
                                   f"    assert cli.main({argv!r}) == 0\n")
    return out


def bytecode_state() -> str:
    """all, none or partial: which of the package's modules have bytecode."""
    compiled = {Path(importlib.util.cache_from_source(str(path))).exists()
                for path in (SRC / "p2pbackup").glob("*.py")}
    return "all" if compiled == {True} else "none" if compiled == {False} else "partial"


def run_case(body: str, env: dict) -> tuple[float, bool]:
    proc = subprocess.run([sys.executable, "-c", CHILD.format(body=body)], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    seconds, scipy_loaded = proc.stdout.split()
    return float(seconds), scipy_loaded == "True"


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        subprocess.run([sys.executable, "-m", "p2pbackup.cli", "trace-synth", "--peers", "8", "--slots", "48",
                        "--out-dir", str(work / "toy")], env=env, capture_output=True, timeout=300, check=True)
        bytecode = bytecode_state()
        print(f"median of {REPEATS} fresh interpreters, Python {sys.version.split()[0]}, bytecode: {bytecode}")
        summary, bodies = {}, cases(work)
        width = max(map(len, bodies))
        for name, body in bodies.items():
            samples = [run_case(body, env) for _ in range(REPEATS)]
            loaded = {scipy for _, scipy in samples}
            seconds = statistics.median(s for s, _ in samples)
            scipy = "yes" if loaded == {True} else "no" if loaded == {False} else "sometimes"
            print(f"{name:<{width}} {seconds:7.3f} s  scipy loaded: {scipy}")
            summary[name] = {"median_s": seconds, "scipy_loaded": scipy}
    print(json.dumps({"repeats": REPEATS, "python": sys.version.split()[0], "bytecode": bytecode,
                      "cases": summary}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
