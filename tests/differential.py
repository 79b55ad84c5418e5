"""Differential corpus: the sha256 of every report CSV and of the allocation
stream of a fixed set of simulations, kept in ``differential.json``.

    PYTHONPATH=src python tests/differential.py --check
    PYTHONPATH=src python tests/differential.py --write

The corpus is:

- 30, 80 and 200 peers x both policies x the three responses x quotas of 2
  and 40 fragments, at mean lifetimes of 3 and 20 days (72 runs): k = 8,
  lognormal bandwidth, 336 hourly slots;
- 54 small adaptive runs: 5, 8 and 12 peers x the three responses x quotas of
  2 and 40 fragments x three seeds, 168 hourly slots, with k = 2 and a 1e-9
  loss cap, so that owners want more holders than there are peers.

For each run it records the sha256 of each report CSV and of the stream of
``allocate_slot_transfers`` calls (the rows, both budgets and the grants of
every call, in order).  ``--write`` stores them with the Python, numpy and
scipy versions; ``--check`` reruns the corpus and prints each run and file
that moved, and exits 1 if any did.  A change that claims byte-identical
output must pass ``--check`` against the file recorded before it.

Not collected by pytest: the file name has no test_ prefix.
``tests/test_sim.py`` checks the 30-peer runs at the 3-day lifetime.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from p2pbackup import report, sim, trace
from conftest import allocation_digest, recorded_allocations

CORPUS = Path(__file__).resolve().with_name("differential.json")
FRAG = 160 << 20
SLOTS = 336
POLICIES = ("fixed", "adaptive")
RESPONSES = ("immediate", "delayed", "delayed_assisted")
QUOTAS = (2, 40)  # fragments


def versions() -> dict:
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def corpus() -> dict[str, tuple[dict, dict]]:
    """Run name -> (SimConfig fields, synth_trace arguments), in run order."""
    runs = {}
    for lifetime, peers, policy, response, quota in itertools.product(
            (3, 20), (30, 80, 200), POLICIES, RESPONSES, QUOTAS):
        seed = peers + quota
        config = dict(object_size=8 * FRAG, fragment_size=FRAG, storage_quota=quota * FRAG,
                      redundancy_policy=policy, response=response, mean_lifetime_days=float(lifetime),
                      delay_mean_days=2.0, repair_timeout_days=1.0, bandwidth_source="lognormal", seed=seed)
        shape = dict(num_peers=peers, num_slots=SLOTS, availability=(0.3, 0.9), diurnal_amplitude=0.5, seed=seed)
        runs[f"{peers}p-{policy}-{response}-q{quota}-life{lifetime}"] = (config, shape)
    for peers, response, quota, seed in itertools.product((5, 8, 12), RESPONSES, QUOTAS, (1, 2, 3)):
        config = dict(object_size=2 * FRAG, fragment_size=FRAG, storage_quota=quota * FRAG,
                      redundancy_policy="adaptive", response=response, mean_lifetime_days=5.0, loss_cap=1e-9,
                      delay_mean_days=1.0, repair_timeout_days=0.5, bandwidth_source="lognormal",
                      bandwidth_median_kbs=500.0, seed=seed)
        shape = dict(num_peers=peers, num_slots=168, availability=(0.4, 0.9), seed=seed)
        runs[f"small-{peers}p-{response}-q{quota}-s{seed}"] = (config, shape)
    return runs


def fingerprint(config: dict, shape: dict) -> dict[str, str]:
    """sha256 of each report CSV of one run, and of its allocation stream."""
    with recorded_allocations() as calls:
        result = sim.Simulation(sim.SimConfig(**config), trace.synth_trace(**shape)).run()
    with tempfile.TemporaryDirectory() as out:
        hashes = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                  for path in report.write_report_csvs(result, out)}
    hashes["allocations"] = allocation_digest(calls)
    return hashes


def moved(names=None) -> list[str]:
    """One line per run and file of the committed corpus that differs now;
    names limits the check to those runs."""
    recorded = json.loads(CORPUS.read_text())["runs"]
    runs = corpus()
    found = []
    for name in names if names is not None else list(recorded):
        got = fingerprint(*runs[name])
        found += [f"{name}: {file}" for file in sorted(got.keys() | recorded[name].keys())
                  if got.get(file) != recorded[name].get(file)]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record the corpus")
    mode.add_argument("--check", action="store_true", help="compare with the recorded corpus")
    args = parser.parse_args(argv)
    if args.write:
        runs = {name: fingerprint(*spec) for name, spec in corpus().items()}
        CORPUS.write_text(json.dumps({"recorded_with": versions(), "runs": runs}, indent=1) + "\n")
        print(f"wrote {len(runs)} runs to {CORPUS.name}")
        return 0
    found = moved()
    for line in found:
        print("moved:", line)
    recorded = json.loads(CORPUS.read_text())["recorded_with"]
    print(f"{len(corpus())} runs, {len(found)} files moved; recorded with {recorded}, running {versions()}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
