"""Aggregation of run results into backup metrics, plus CSV import/export.

Pure functions over immutable reports: empirical CDFs, normalized time
ratios, data-loss categorization, and server-traffic summaries.  The CSV
writers define the on-disk contract (any external tool plots); re-importing
an export reproduces the same aggregates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass

import numpy as np

from .sim import DELAYED_ASSISTED, CrashRecord, PeerRecord, SimReport


@dataclass(frozen=True)
class CdfSeries:
    """Empirical CDF: distinct sorted values with cumulative fractions."""

    values: tuple
    fractions: tuple

    def __post_init__(self):
        if not self.values or len(self.values) != len(self.fractions):
            raise ValueError("values and fractions must be non-empty and aligned")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be strictly increasing")
        if any(b < a for a, b in zip(self.fractions, self.fractions[1:])):
            raise ValueError("fractions must be nondecreasing")
        if abs(self.fractions[-1] - 1.0) > 1e-12:
            raise ValueError("fractions must end at 1")


def cdf(values) -> CdfSeries:
    """Empirical CDF of a non-empty sample; ties collapse onto one point, so
    the result is invariant under input permutation."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("cdf of an empty sample")
    n = len(data)
    out_values, out_fractions = [], []
    for i, v in enumerate(data):
        if i + 1 < n and data[i + 1] == v:
            continue  # keep only the last (largest-rank) entry per tie group
        out_values.append(v)
        out_fractions.append((i + 1) / n)
    return CdfSeries(tuple(out_values), tuple(out_fractions))


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


@dataclass(frozen=True)
class ServerTraffic:
    """Per-slot server series, absolute and as fractions of the total backup
    size (sum of all object sizes)."""

    assisted: bool
    outbound: np.ndarray  # bytes per slot
    buffered: np.ndarray  # bytes held at each slot end
    outbound_total: float
    outbound_total_fraction: float
    peak_outbound: float
    peak_outbound_fraction: float
    peak_buffered: float
    peak_buffered_fraction: float


def server_traffic(report: SimReport) -> ServerTraffic:
    """Summarize assisted-repair traffic; a run without the assisting server
    yields empty, flagged series rather than an error."""
    assisted = report.config.response == DELAYED_ASSISTED
    if not assisted:
        empty = np.zeros(0)
        return ServerTraffic(False, empty, empty, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    total_backup = float(report.num_peers * report.config.object_size)
    out = report.server_outbound
    buf = report.server_buffered
    return ServerTraffic(
        assisted=True,
        outbound=out,
        buffered=buf,
        outbound_total=float(out.sum()),
        outbound_total_fraction=float(out.sum()) / total_backup,
        peak_outbound=float(out.max(initial=0.0)),
        peak_outbound_fraction=float(out.max(initial=0.0)) / total_backup,
        peak_buffered=float(buf.max(initial=0.0)),
        peak_buffered_fraction=float(buf.max(initial=0.0)) / total_backup,
    )


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


def write_peers_csv(report: SimReport, path) -> None:
    write_csv(path, PEERS_FIELDS, map(astuple, report.peers))  # PeerRecord fields are in column order


def _float(text: str) -> float:
    return math.nan if text == "" else float(text)  # math.nan itself, so that records compare equal


def _optional_int(text: str) -> int | None:
    return None if text == "" else int(text)


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"a flag cell must be 0 or 1, got {text!r}")
    return text == "1"


def _read_csv(path, header, parsers) -> list[list]:
    """The read side of write_csv: the rows of the named columns, each cell
    parsed by its column's parser, which inverts _cell for that column."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [[parse(row[name]) for name, parse in zip(header, parsers)] for row in csv.DictReader(fh)]


def read_peers_csv(path) -> list[PeerRecord]:
    return [PeerRecord(*row) for row in _read_csv(path, PEERS_FIELDS, (int,) + (_float,) * 8)]


def write_crashes_csv(report: SimReport, path) -> None:
    write_csv(path, CRASHES_FIELDS, map(astuple, report.crashes))  # CrashRecord fields are in column order


def read_crashes_csv(path) -> list[CrashRecord]:
    parsers = (int, int, _optional_int, str, _flag, _flag)
    return [CrashRecord(*row) for row in _read_csv(path, CRASHES_FIELDS, parsers)]


def write_server_csv(report: SimReport, path) -> None:
    traffic = server_traffic(report)
    write_csv(path, SERVER_FIELDS, zip(range(len(traffic.outbound)), traffic.outbound.tolist(),
                                       traffic.buffered.tolist()))


def read_server_csv(path) -> tuple[np.ndarray, np.ndarray]:
    rows = _read_csv(path, SERVER_FIELDS, (int, _float, _float))
    if [slot for slot, _, _ in rows] != list(range(len(rows))):
        raise ValueError(f"{path}: slot column must run 0..T-1")
    return np.asarray([out for _, out, _ in rows]), np.asarray([buf for _, _, buf in rows])


def summary_row(report: SimReport) -> dict:
    """Run-level aggregates; the single row written to summary.csv."""
    ratios = normalized_ratios(report)
    losses = loss_breakdown(report)
    traffic = server_traffic(report)
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
        "server_outbound_bytes": traffic.outbound_total,
        "server_peak_buffered_bytes": traffic.peak_buffered,
    }


def write_summary_csv(report: SimReport, path) -> None:
    write_summary_row(summary_row(report), path)


def write_summary_row(row: dict, path) -> None:
    """Write one row of summary_row's fields, such as an average over runs."""
    write_csv(path, row.keys(), [row.values()])


def _parse_cell(text: str):
    """Invert _cell: "" -> NaN, int-looking -> int, float-looking -> float."""
    if text == "":
        return math.nan
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_summary_csv(path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        raise ValueError(f"{path}: expected exactly one summary row")
    return {key: _parse_cell(value) for key, value in rows[0].items()}


def write_report_csvs(report: SimReport, out_dir) -> list:
    """Write the full CSV contract into out_dir; returns the paths written."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, writer in (
        ("peers.csv", write_peers_csv),
        ("crashes.csv", write_crashes_csv),
        ("server.csv", write_server_csv),
        ("summary.csv", write_summary_csv),
    ):
        path = out / name
        writer(report, path)
        paths.append(path)
    return paths
