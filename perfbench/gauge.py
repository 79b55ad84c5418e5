"""Host-speed gauge: a fixed reference chunk run between pieces of measured
work, with its time kept off the measured clock.

The hosts this benchmark runs on are shared, and their speed drifts by a
third within a minute, CPU time as much as wall time.  The chunk is a fixed
mix of pure-Python dictionary and integer work and small numpy sorts, the
two kinds of work the library does, and it does not use the library, so a
change to the library cannot change it.  The gauge runs one chunk whenever
PACE_S of measured time has passed since the last one; how long its chunks
took, against NOMINAL_CHUNK_S, is the host's slowdown over that stretch, and
dividing a measured time by it gives the time at nominal host speed.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_CHUNK_S = 0.0008  # median chunk time on a 2-core x86-64 host
PACE_S = 0.01  # measured seconds between chunks
_DATA = np.random.default_rng(0).random(512)


def reference_chunk() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(2400):
        key = (i * 7919) & 127
        acc = (acc + table.get(key, i) * 31) % 1_000_003
        table[key] = acc
    a = _DATA
    for _ in range(24):
        a = np.sort(a * 1.0001)[::-1].copy()
        acc += int(np.count_nonzero(a > 0.5))
    return acc


class HostGauge:
    """clock() is perf_counter minus the time spent in reference chunks;
    chunk_s and chunks total the chunks run so far."""

    def __init__(self, base=time.perf_counter):
        self.base = base
        self.excluded = 0.0
        self.chunk_s = 0.0
        self.chunks = 0
        self._last = self.clock()

    def clock(self) -> float:
        return self.base() - self.excluded

    def sample(self) -> None:
        """Run one reference chunk, off the measured clock."""
        t0 = self.base()
        reference_chunk()
        elapsed = self.base() - t0
        self.excluded += elapsed
        self.chunk_s += elapsed
        self.chunks += 1
        self._last = self.clock()

    def pace(self) -> None:
        """Run a chunk if PACE_S of measured time has passed since the last."""
        if self.clock() - self._last >= PACE_S:
            self.sample()


def slowdown(chunk_s: float, chunks: int) -> float:
    """Mean chunk time over the nominal one; 1.0 when no chunk ran."""
    return chunk_s / chunks / NOMINAL_CHUNK_S if chunks else 1.0
