"""Trace-driven peer-to-peer backup: availability traces, transfer
scheduling (optimal max-flow and randomized), redundancy policies, full
system simulation with crash/repair dynamics, and metric reporting.

The package's names are its modules; ``import p2pbackup`` loads the first
four below, and ``p2pbackup.report`` and ``p2pbackup.cli`` are imported by
name.

- :mod:`p2pbackup.trace`: event parsing, slotization, synthetic traces.
- :mod:`p2pbackup.sched`: F(T)/O(x) via max-flow, randomized scheduling.
- :mod:`p2pbackup.redundancy`: fixed-n planning, eTTR, data-loss bounds.
- :mod:`p2pbackup.sim`: the slot-by-slot simulator.
- :mod:`p2pbackup.report`: metric aggregation and CSV export.
- ``p2pbackup`` console script: the command-line front end.
"""

__version__ = "0.1.0"

from . import redundancy, sched, sim, trace  # noqa: F401
