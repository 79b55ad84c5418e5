"""Availability traces.

Ingests login/logoff logs as event columns, discretizes them into per-peer,
per-slot availability matrices, filters out low-uptime peers, and generates
synthetic traces with diurnal and weekly correlation for reproducible runs.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice

import numpy as np

LOGIN = "login"
LOGOFF = "logoff"
_KIND_CODE = {LOGIN: 0, LOGOFF: 1}

# parse_events reads a log _BATCH lines at a time and slotize expands _BATCH
# sessions at a time, so their transient memory is bounded by a batch
# rather than by the log.
_BATCH = 4096

DEFAULT_SLOT_SECONDS = 3600.0
DEFAULT_MIN_UPTIME = 4.0 / 24.0


class TraceFormatError(ValueError):
    """Raised for malformed event or matrix files; message carries the line number."""


@contextmanager
def open_text(path, error=TraceFormatError, prefix: str = "", newline=None):
    """open(path) as UTF-8 text for a reader whose errors are error(prefix
    + "line N: ..."); a byte that is not UTF-8 raises one such error.  The
    line is looked for only once the decoder has failed.  newline goes to
    open: a csv reader passes ""."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                # the dot ends the bad byte's line, so splitlines counts it as the text mode reader does
                lineno = len((data[:exc.start] + b".").splitlines())
                raise error(f"{prefix}line {lineno}: not UTF-8 text") from None
            raise  # the file changed after the failed read: pass the decoder's error on


def _check_slot_seconds(slot_seconds) -> None:
    if not 0 < slot_seconds < math.inf:  # negated so that a nan fails too
        raise ValueError(f"slot_seconds must be positive and finite, got {slot_seconds}")


@dataclass(frozen=True, eq=False)
class EventLog:
    """Login/logoff events as columns, one entry per event."""

    peer_ids: tuple[str, ...]  # sorted
    peer: np.ndarray  # intp codes into peer_ids
    timestamp: np.ndarray  # float64 seconds
    kind: np.ndarray  # int8: 0 for LOGIN, 1 for LOGOFF


@dataclass(frozen=True, eq=False)
class AvailabilityMatrix:
    """Online indicator a_{i,t} per (peer row i, time slot t), plus the slot length."""

    bits: np.ndarray
    slot_seconds: float = DEFAULT_SLOT_SECONDS
    peer_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        given = np.asarray(self.bits)
        bits = given.astype(np.uint8)  # a copy, so the caller's array is neither frozen nor aliased
        if bits.ndim != 2:
            raise ValueError(f"bits must be 2-D, got shape {bits.shape}")
        # the cast wraps -1 to 255 and truncates 0.5 to 0, so only a uint8
        # or bool input can skip comparing it with the cast
        exact = given.dtype in (np.uint8, np.bool_) or np.array_equal(bits, given)
        if not exact or (bits.size and bits.max() > 1):
            raise ValueError("bits must hold only 0 and 1")
        _check_slot_seconds(self.slot_seconds)
        if self.peer_ids is not None and len(self.peer_ids) != bits.shape[0]:
            raise ValueError("peer_ids length does not match row count")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    @property
    def num_peers(self) -> int:
        return self.bits.shape[0]

    @property
    def num_slots(self) -> int:
        return self.bits.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, AvailabilityMatrix):
            return NotImplemented
        return (
            self.slot_seconds == other.slot_seconds
            and self.peer_ids == other.peer_ids
            and self.bits.shape == other.bits.shape
            and bool(np.array_equal(self.bits, other.bits))
        )


@dataclass(frozen=True, eq=False)
class PeerAvailabilityStats:
    per_peer: np.ndarray  # a_i, one fraction per peer row
    system: float  # a, the mean of per-peer values


def _check_record(lineno: int, text: str) -> None:
    """Raise the TraceFormatError of one stripped, non-comment record, if it has one."""
    parts = text.split(",")
    if len(parts) != 3:
        raise TraceFormatError(f"line {lineno}: expected 3 comma-separated fields, got {len(parts)}")
    peer_id, ts_text, kind = (p.strip() for p in parts)
    if not peer_id:
        raise TraceFormatError(f"line {lineno}: empty peer id")
    if kind not in (LOGIN, LOGOFF):
        raise TraceFormatError(f"line {lineno}: kind must be login or logoff, got {kind!r}")
    try:
        timestamp = float(ts_text)
    except ValueError:
        raise TraceFormatError(f"line {lineno}: bad timestamp {ts_text!r}") from None
    if not math.isfinite(timestamp):
        raise TraceFormatError(f"line {lineno}: non-finite timestamp {ts_text}")
    if timestamp < 0:
        raise TraceFormatError(f"line {lineno}: negative timestamp {ts_text}")


def _split_records(records, ids: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(peer codes, timestamps, kind codes) of the records, or None if any
    record fails _check_record.  ids numbers the peer ids in order of first
    appearance; the records' new ids are added to it."""
    if any(text.count(",") != 2 for text in records):
        return None
    fields = list(map(str.strip, ",".join(records).split(",")))
    peers, stamps, kinds = fields[0::3], fields[1::3], fields[2::3]
    del fields
    if "" in peers or kinds.count(LOGIN) + kinds.count(LOGOFF) != len(kinds):
        return None
    try:
        timestamps = np.fromiter(map(float, stamps), float, len(stamps))
    except ValueError:
        return None
    if not ((timestamps >= 0) & (timestamps < math.inf)).all():
        return None
    for pid in dict.fromkeys(peers):
        ids.setdefault(pid, len(ids))
    return (np.fromiter(map(ids.__getitem__, peers), np.intp, len(peers)), timestamps,
            np.fromiter(map(_KIND_CODE.__getitem__, kinds), np.int8, len(kinds)))


def _group_heads(code: np.ndarray) -> np.ndarray:
    """For codes sorted into runs: True where a run starts, plus a True past the end."""
    head = np.ones(len(code) + 1, dtype=bool)
    head[1:-1] = code[1:] != code[:-1]
    return head


def parse_events(lines) -> tuple[EventLog, list[str]]:
    """Parse text records into a sorted, alternation-repaired EventLog.

    Each record is ``peer_id,timestamp_seconds,login|logoff``; blank lines and
    lines starting with ``#`` are skipped.  Events are sorted by (timestamp,
    peer_id), ties in input order.  Consecutive same-kind events for a peer are
    dropped (first wins).  A logoff with no preceding login gets a synthesized
    login at the epoch and a warning.  Returns (events, warnings); no records
    give zero events.  A malformed record raises TraceFormatError naming the
    first bad line.
    """
    # _BATCH lines at a time; the empty first batch makes a log without records zero events
    ids, columns = {}, [(np.empty(0, np.intp), np.empty(0), np.empty(0, np.int8))]
    lines, first_lineno = iter(lines), 1
    while batch := list(islice(lines, _BATCH)):
        records = [text for text in map(str.strip, batch) if text and not text.startswith("#")]
        if records:
            split = _split_records(records, ids)
            if split is None:
                for lineno, text in enumerate(map(str.strip, batch), start=first_lineno):
                    if text and not text.startswith("#"):
                        _check_record(lineno, text)
            columns.append(split)
        first_lineno += len(batch)
    code, ts, kind = map(np.concatenate, zip(*columns))
    del columns
    # recode the peers from order of first appearance to sorted order
    first_seen = list(ids)
    by_id = sorted(range(len(first_seen)), key=first_seen.__getitem__)
    uniq = tuple(map(first_seen.__getitem__, by_id))
    rank = np.empty(len(by_id), dtype=np.intp)
    rank[by_id] = np.arange(len(by_id))
    code = rank[code]

    # (timestamp, peer_id) order, ties in input order
    order = np.lexsort((code, ts))
    code, ts, kind = code[order], ts[order], kind[order]

    # Per peer, in that order: drop an event of the same kind as the peer's
    # previous one (the kept events alternate, so that is the last kept
    # kind), and precede a first event that is a logoff by an epoch login.
    by_peer = np.argsort(code, kind="stable")
    head = _group_heads(code[by_peer])[:-1]
    peer_kind = kind[by_peer]
    keep = np.empty(len(by_peer), dtype=bool)
    keep[by_peer] = head | (peer_kind != np.roll(peer_kind, 1))
    orphans = np.sort(by_peer[head & (peer_kind == 1)])
    del order, by_peer, peer_kind
    epoch_logins = code[orphans]
    warnings = [
        f"peer {uniq[c]}: logoff at {t:g} before any login; assuming login at epoch"
        for c, t in zip(epoch_logins.tolist(), ts[orphans].tolist())
    ]

    code, ts, kind = code[keep], ts[keep], kind[keep]
    if len(epoch_logins):
        # the epoch logins go ahead of any kept event with their (0.0, peer) key
        code = np.concatenate((epoch_logins, code))
        ts = np.concatenate((np.zeros(len(epoch_logins)), ts))
        kind = np.concatenate((np.zeros(len(epoch_logins), dtype=np.int8), kind))
        order = np.lexsort((code, ts))
        code, ts, kind = code[order], ts[order], kind[order]
    return EventLog(uniq, code, ts, kind), warnings


def read_event_file(path) -> tuple[EventLog, list[str]]:
    """parse_events over the lines of a UTF-8 text file."""
    with open_text(path) as fh:
        return parse_events(fh)


def slotize(events: EventLog, slot_seconds: float = DEFAULT_SLOT_SECONDS,
            num_slots: int | None = None) -> AvailabilityMatrix:
    """Discretize alternating events into an availability matrix.

    A peer counts as online in a slot iff it is online for at least half the
    slot.  Rows follow events.peer_ids.  The horizon defaults to the smallest
    whole number of slots covering the last event; sessions still open at the
    horizon run to its end.  The columns must have one length and the peer
    codes must index peer_ids.  Each peer's events, in log order, must
    alternate login and logoff from a login at finite, non-negative,
    non-decreasing times, as parse_events output does; otherwise ValueError
    names the peer.
    """
    _check_slot_seconds(slot_seconds)
    if not len(events.peer) == len(events.timestamp) == len(events.kind):
        raise ValueError("events must have one peer code, timestamp and kind per event")
    if len(events.peer) and not 0 <= events.peer.min() <= events.peer.max() < len(events.peer_ids):
        raise ValueError(f"peer codes must index the {len(events.peer_ids)} peer ids")
    if num_slots is not None and num_slots <= 0:
        raise ValueError("num_slots must be positive")

    # each peer's events together, in log order
    order = np.argsort(events.peer, kind="stable")
    code, ts, kind = events.peer[order], events.timestamp[order], events.kind[order]
    del order
    head = _group_heads(code)
    bad = ~((ts >= 0) & (ts < math.inf)) | (head[:-1] & (kind != 0))
    bad[1:] |= ~head[1:-1] & ((kind[1:] + kind[:-1] != 1) | ~(ts[1:] >= ts[:-1]))
    if bad.any():
        raise ValueError(
            f"peer {events.peer_ids[code[bad.argmax()]]!r}: events must alternate login and logoff from a login, "
            "at finite, non-negative, non-decreasing times"
        )
    if num_slots is None:  # after the checks, so that a nan or infinite time fails by its peer
        if not len(ts):
            raise ValueError("cannot infer num_slots from an empty event log")
        num_slots = max(1, math.ceil(ts.max() / slot_seconds))
    horizon = num_slots * slot_seconds

    # Sessions are [login, next logoff) or [login, horizon), cut at the horizon.
    login = np.flatnonzero(kind == 0)
    end = np.append(ts, horizon)[login + 1]
    stop = np.where(head[login + 1], horizon, np.minimum(end, horizon))
    start = ts[login]
    live = stop > start
    row, start, stop = code[login][live], start[live], stop[live]
    del code, ts, kind, head, login, end, live  # so the cell pass does not hold them

    # one cell per (session, overlapped slot), sessions in list order, _BATCH
    # sessions at a time; add.at sums each cell in the order given, which
    # keeps the float sums those of a per-session loop
    first = np.floor_divide(start, slot_seconds).astype(np.intp)
    last = np.minimum(np.ceil(stop / slot_seconds).astype(np.intp) - 1, num_slots - 1)
    width = np.maximum(last - first + 1, 0)
    coverage = np.zeros((len(events.peer_ids), num_slots))
    for s in range(0, len(width), _BATCH):
        w = width[s:s + _BATCH]
        session = np.repeat(np.arange(s, s + len(w)), w)
        t = np.arange(len(session)) - np.repeat(np.cumsum(w) - w - first[s:s + _BATCH], w)
        lo = np.maximum(start[session], t * slot_seconds)
        hi = np.minimum(stop[session], (t + 1) * slot_seconds)
        np.add.at(coverage, (row[session], t), np.where(hi > lo, hi - lo, 0.0))

    bits = (coverage >= slot_seconds / 2).astype(np.uint8)
    return AvailabilityMatrix(bits=bits, slot_seconds=slot_seconds, peer_ids=events.peer_ids)


def filter_min_uptime(matrix: AvailabilityMatrix, min_fraction: float = DEFAULT_MIN_UPTIME):
    """Drop peers whose mean availability is below min_fraction (>= keeps).

    Returns (filtered matrix, kept peer ids); kept ids are row indices when the
    matrix has no peer_ids.  Relative row order is preserved.
    """
    if not 0 <= min_fraction <= 1:
        raise ValueError("min_fraction must be in [0, 1]")
    means = matrix.bits.mean(axis=1) if matrix.num_slots else np.zeros(matrix.num_peers)
    keep = np.flatnonzero(means >= min_fraction)
    if matrix.peer_ids is not None:
        kept_ids = [matrix.peer_ids[i] for i in keep]
        new_ids = tuple(kept_ids)
    else:
        kept_ids = [int(i) for i in keep]
        new_ids = None
    filtered = AvailabilityMatrix(
        bits=matrix.bits[keep],
        slot_seconds=matrix.slot_seconds,
        peer_ids=new_ids,
    )
    return filtered, kept_ids


def synth_trace(
    num_peers: int,
    num_slots: int,
    availability=(0.2, 0.9),
    diurnal_amplitude: float = 0.0,
    weekend_factor: float = 1.0,
    slot_seconds: float = DEFAULT_SLOT_SECONDS,
    seed=None,
) -> AvailabilityMatrix:
    """Generate a random availability matrix with diurnal/weekly correlation.

    Each peer draws a target availability a_i uniformly from the (low, high)
    pair availability.  Slot t is online with probability a_i scaled by a
    sinusoidal profile with a 24-hour period (peak at hour 14 of each day)
    and a weekend multiplier applied to days 5 and 6 of each 7-day week,
    clamped to [0, 1].  Hours and days are counted from slot 0 in slots of
    slot_seconds.  Deterministic under seed.
    """
    if num_peers <= 0 or num_slots <= 0:
        raise ValueError("num_peers and num_slots must be positive")
    if not 0 <= diurnal_amplitude <= 1:
        raise ValueError("diurnal_amplitude must be in [0, 1]")
    if not 0 <= weekend_factor <= 1:
        raise ValueError("weekend_factor must be in [0, 1]")
    _check_slot_seconds(slot_seconds)
    rng = np.random.default_rng(seed)

    target = np.asarray(availability, dtype=float)
    if target.shape != (2,):
        raise ValueError("availability must be a (low, high) pair")
    lo, hi = float(target[0]), float(target[1])
    if not (0 <= lo <= hi <= 1):
        raise ValueError("availability range must satisfy 0 <= low <= high <= 1")
    a_i = rng.uniform(lo, hi, size=num_peers)

    slots = np.arange(num_slots)
    hour = (slots * slot_seconds / 3600.0) % 24
    profile = 1.0 + diurnal_amplitude * np.cos(2 * np.pi * (hour - 14) / 24)
    day = (slots * slot_seconds // 86400) % 7
    profile = np.where(day >= 5, profile * weekend_factor, profile)

    p_online = np.clip(a_i[:, None] * profile[None, :], 0.0, 1.0)
    bits = (rng.random((num_peers, num_slots)) < p_online).astype(np.uint8)
    return AvailabilityMatrix(bits=bits, slot_seconds=slot_seconds)


def availability_stats(matrix: AvailabilityMatrix) -> PeerAvailabilityStats:
    """Per-peer availabilities a_i (row means) and the system-wide mean a."""
    if matrix.num_peers == 0 or matrix.num_slots == 0:
        raise ValueError("matrix must have at least one peer and one slot")
    per_peer = matrix.bits.mean(axis=1)
    return PeerAvailabilityStats(per_peer=per_peer, system=float(per_peer.mean()))


_MATRIX_HEADER = re.compile(r"^peers=(\d+) slots=(\d+) slot_seconds=([0-9.eE+-]+)$", re.ASCII)


def write_matrix_file(matrix: AvailabilityMatrix, path) -> None:
    """Write the matrix cache format: a header line, then one 0/1 row per peer.

    The format carries no peer ids; reading back yields an id-less matrix.
    """
    seconds = f"{matrix.slot_seconds:g}"
    if float(seconds) != matrix.slot_seconds:  # :g keeps six digits; repr keeps them all
        seconds = repr(float(matrix.slot_seconds))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"peers={matrix.num_peers} slots={matrix.num_slots} slot_seconds={seconds}\n")
        rows = np.full((matrix.num_peers, matrix.num_slots + 1), ord("\n"), dtype=np.uint8)
        rows[:, :-1] = matrix.bits + ord("0")
        fh.write(rows.tobytes().decode("ascii"))


def read_matrix_file(path) -> AvailabilityMatrix:
    """Read the matrix cache format.  The declared rows are read and checked
    before the array is built, so a header allocates nothing by itself and a
    file that ends early fails at its first missing row."""
    with open_text(path) as fh:
        header = fh.readline().rstrip("\n")
        m = _MATRIX_HEADER.match(header)
        if not m:
            raise TraceFormatError(f"line 1: bad matrix header {header!r}")
        peers, slots = int(m.group(1)), int(m.group(2))
        try:
            slot_seconds = float(m.group(3))
            _check_slot_seconds(slot_seconds)
        except ValueError:
            raise TraceFormatError(f"line 1: slot_seconds must be a positive finite number, got {m.group(3)}") from None
        rows = []
        for lineno in range(2, peers + 2):
            line = fh.readline()
            if not line:
                raise TraceFormatError(f"line {lineno}: expected {slots} characters of 0/1, got the end of the file")
            line = line.rstrip("\n")
            if len(line) != slots or set(line) - {"0", "1"}:
                raise TraceFormatError(f"line {lineno}: expected {slots} characters of 0/1")
            rows.append(line)
        for lineno, line in enumerate(fh, start=peers + 2):
            if line.strip():
                raise TraceFormatError(f"line {lineno}: expected no more rows after the {peers} declared")
    bits = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8).reshape(peers, slots) - ord("0")
    return AvailabilityMatrix(bits=bits, slot_seconds=slot_seconds)
