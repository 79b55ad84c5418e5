"""Aggregation of run results into backup metrics, plus CSV export.

Pure functions over immutable reports: percentiles, normalized time
ratios, data-loss categorization, and server-traffic totals.  The CSV
writers define the on-disk contract (any external tool plots).
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass
from pathlib import Path

from .sim import DELAYED_ASSISTED, SimReport


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest sample.

    Always returns an element of the sample, which keeps regression values
    exact.
    """
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError("pct must be in (0, 100]")
    rank = math.ceil(pct / 100.0 * len(data))
    return data[rank - 1]


@dataclass(frozen=True)
class LossBreakdown:
    """Crash-episode accounting; peer-level counts carried alongside because
    a peer can crash more than once."""

    crashed_count: int
    lost_count: int
    lost_fraction: float
    unfinished_backup_fraction: float  # of lost episodes
    unavoidable_fraction: float  # of lost episodes
    crashed_peers: int
    lost_peers: int

    def __post_init__(self):
        for name in ("lost_fraction", "unfinished_backup_fraction", "unavoidable_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {value}")
        if self.unavoidable_fraction > self.unfinished_backup_fraction + 1e-12:
            raise ValueError("unavoidable losses must be a subset of unfinished ones")


def loss_breakdown(report: SimReport) -> LossBreakdown:
    """Categorize crash episodes: lost = restore failed; unfinished = lost
    with the owner's backup incomplete at crash; unavoidable = lost with the
    crash earlier than the owner's ideal completion time."""
    episodes = report.crashes
    lost = [c for c in episodes if c.outcome == "lost"]
    n_lost = len(lost)
    unfinished = sum(1 for c in lost if c.unfinished)
    unavoidable = sum(1 for c in lost if c.unavoidable)
    return LossBreakdown(
        crashed_count=len(episodes),
        lost_count=n_lost,
        lost_fraction=n_lost / len(episodes) if episodes else 0.0,
        unfinished_backup_fraction=unfinished / n_lost if n_lost else 0.0,
        unavoidable_fraction=unavoidable / n_lost if n_lost else 0.0,
        crashed_peers=len({c.peer for c in episodes}),
        lost_peers=len({c.peer for c in lost}),
    )


@dataclass(frozen=True)
class NormalizedRatios:
    """Per-peer time ratios with undefined entries omitted."""

    ttb: tuple  # TTB / minTTB, completed backups only
    ttr: tuple  # TTR / minTTR, completed restores only
    ettr: tuple  # eTTR / TTR, peers with both an estimate and a restore


def normalized_ratios(report: SimReport) -> NormalizedRatios:
    ttb, ttr, ettr = [], [], []
    for p in report.peers:
        if math.isfinite(p.ttb) and math.isfinite(p.min_ttb) and p.min_ttb > 0:
            ttb.append(p.ttb / p.min_ttb)
        if math.isfinite(p.ttr) and p.min_ttr > 0:
            ttr.append(p.ttr / p.min_ttr)
        if math.isfinite(p.ettr) and math.isfinite(p.ttr) and p.ttr > 0:
            ettr.append(p.ettr / p.ttr)
    return NormalizedRatios(tuple(ttb), tuple(ttr), tuple(ettr))


# -- CSV contract --------------------------------------------------------

PEERS_FIELDS = (
    "peer_id", "uplink", "availability", "ttb", "min_ttb",
    "ttr", "min_ttr", "ettr", "redundancy_at_completion",
)
CRASHES_FIELDS = ("peer_id", "crash_slot", "response_slot", "outcome", "unfinished", "unavoidable")
SERVER_FIELDS = ("slot", "outbound_bytes", "buffered_bytes")


def _cell(value) -> str:
    if value is None or isinstance(value, float) and math.isnan(value):
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return repr(value) if isinstance(value, float) else str(value)  # repr(inf) is "inf"


def write_csv(path, header, rows) -> None:
    """Write the header, then each row with every cell through _cell: a float
    as its repr (inf as inf, -inf as -inf), NaN and None as an empty cell, a
    bool as 1 or 0.  Pass Python floats: the repr of a numpy scalar names its
    type."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(value) for value in row] for row in rows)


def summary_row(report: SimReport) -> dict:
    """Run-level aggregates; the single row written to summary.csv."""
    ratios = normalized_ratios(report)
    losses = loss_breakdown(report)
    completed = [p for p in report.peers if math.isfinite(p.ttb)]
    return {
        "policy": report.config.redundancy_policy,
        "response": report.config.response,
        "num_peers": report.num_peers,
        "num_slots": report.num_slots,
        "slot_seconds": report.slot_seconds,
        "measured_availability": report.measured_availability,
        "fixed_n": "" if report.fixed_n is None else report.fixed_n,
        "completed_count": len(completed),
        "avg_redundancy": report.avg_redundancy,
        "median_ttb_ratio": percentile(ratios.ttb, 50) if ratios.ttb else math.nan,
        "median_ttr_ratio": percentile(ratios.ttr, 50) if ratios.ttr else math.nan,
        "median_ettr_over_ttr": percentile(ratios.ettr, 50) if ratios.ettr else math.nan,
        "crashed_episodes": losses.crashed_count,
        "lost_episodes": losses.lost_count,
        "lost_fraction": losses.lost_fraction,
        "unfinished_backup_fraction": losses.unfinished_backup_fraction,
        "unavoidable_fraction": losses.unavoidable_fraction,
        "crashed_peers": losses.crashed_peers,
        "lost_peers": losses.lost_peers,
        # the simulator writes no server byte outside delayed_assisted
        "server_outbound_bytes": float(report.server_outbound.sum()),
        "server_peak_buffered_bytes": float(report.server_buffered.max(initial=0.0)),
    }


def write_report_csvs(report: SimReport, out_dir) -> list:
    """Write the full CSV contract into out_dir; returns the paths written.
    PeerRecord and CrashRecord fields are in column order; a run without the
    assisting server writes the server series' header only."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / name for name in ("peers.csv", "crashes.csv", "server.csv", "summary.csv")]
    write_csv(paths[0], PEERS_FIELDS, map(astuple, report.peers))
    write_csv(paths[1], CRASHES_FIELDS, map(astuple, report.crashes))
    slots = report.num_slots if report.config.response == DELAYED_ASSISTED else 0
    write_csv(paths[2], SERVER_FIELDS, zip(range(slots), report.server_outbound.tolist(),
                                           report.server_buffered.tolist()))
    row = summary_row(report)
    write_csv(paths[3], row.keys(), [row.values()])
    return paths
