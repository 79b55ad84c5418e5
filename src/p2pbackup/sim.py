"""Discrete-time, trace-driven system simulation.

Every peer starts backing up one object at slot 0, placing erasure-coded
fragments of size f on distinct remote peers under its redundancy policy
(fixed target n or adaptive stopping).  Peers crash with exponential
lifetimes, losing their local data and everything they stored for others;
they come back immediately or after an exponential delay depending on the
response mode, restore their object from surviving fragments, and resume.
Per slot, bytes move over a fluid max-min fair share of every uplink and
downlink, with restore traffic taking strict priority.  In assisted mode a
cloud server with unlimited bandwidth buffers and re-injects fragments for
owners who stay away too long.

Within a slot the engine processes: crashes, then returns and repair checks,
then task management, then byte allocation, then transfer completions.  All
randomness flows through one generator in that fixed order, so a (config,
matrix, seed) triple fully determines the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .redundancy import (
    SECONDS_PER_DAY,
    AdaptiveThresholds,
    backup_complete,
    default_parallel,
    estimate_ttr,
    fixed_redundancy_n,
    loss_risk,
)
from .trace import AvailabilityMatrix

SERVER = -1  # pseudo peer index for the cloud server

# peer phase codes, held in Simulation.phase
BACKING_UP, COMPLETE, RESTORING, LOST = range(4)

IMMEDIATE = "immediate"
DELAYED = "delayed"
DELAYED_ASSISTED = "delayed_assisted"

FIXED = "fixed"
ADAPTIVE = "adaptive"

# transfer kind codes; a dropped row is DEAD until the slot's compaction
RESTORE, BACKUP, REPAIR_IN, REPAIR_OUT, DEAD = 0, 1, 2, 3, -1
UPLOADS = (BACKUP, REPAIR_OUT)  # transfers that place a fragment on a peer
KIND, SRC, DST, OWNER, FRAG, SERIAL = range(6)  # integer columns of Simulation.table
EMPTY, IN_FLIGHT = -1, -2  # cells of Simulation.placed that hold no fragment id

_EPS = 1e-3  # bytes; transfer demands are in the 1e8 range
_MAY_BE_INF = ("mean_lifetime_days", "ttr_floor_days")  # SimConfig fields where inf means "never"


@dataclass(frozen=True)
class SimConfig:
    """Experiment parameterization; field names double as config-file keys."""

    object_size: int = 10 * 2**30
    storage_quota: int = 50 * 2**30
    fragment_size: int = 160 * 2**20
    mean_lifetime_days: float = 90.0
    redundancy_policy: str = ADAPTIVE
    fixed_target: float = 0.99
    loss_cap: float = 1e-4
    w_days: float = 14.0
    parallel_downloads: int = 0  # 0 derives l from bandwidth at use time
    ttr_floor_days: float = 1.0
    ttr_factor: float = 2.0
    response: str = IMMEDIATE
    delay_mean_days: float = 7.0
    repair_timeout_days: float = 7.0
    bandwidth_source: str = "lognormal"
    bandwidth_file: str = ""
    bandwidth_median_kbs: float = 77.0
    bandwidth_sigma: float = 1.852
    backup_parallelism: int = 4
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and (math.isnan(value) or math.isinf(value) and f.name not in _MAY_BE_INF):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.object_size <= 0 or self.fragment_size <= 0:
            raise ValueError("object_size and fragment_size must be positive")
        if self.object_size % self.fragment_size:
            raise ValueError("object_size must be an exact multiple of fragment_size")
        if self.delay_mean_days <= 0 or self.repair_timeout_days <= 0:
            raise ValueError("durations must be positive")
        if self.mean_lifetime_days < 0:
            raise ValueError("mean_lifetime_days must be non-negative (0 or inf = no crashes)")
        if self.redundancy_policy not in (FIXED, ADAPTIVE):
            raise ValueError(f"redundancy_policy must be {FIXED!r} or {ADAPTIVE!r}")
        if self.response not in (IMMEDIATE, DELAYED, DELAYED_ASSISTED):
            raise ValueError("response must be immediate, delayed or delayed_assisted")
        if self.bandwidth_source not in ("lognormal", "file"):
            raise ValueError("bandwidth_source must be lognormal or file")
        if self.bandwidth_source == "file" and not self.bandwidth_file:
            raise ValueError("bandwidth_source=file requires bandwidth_file")
        if self.backup_parallelism < 1:
            raise ValueError("backup_parallelism must be at least 1")
        if self.storage_quota < 0:
            raise ValueError("storage_quota must be non-negative")
        # negated so that a nan fails too
        if not self.bandwidth_median_kbs > 0:
            raise ValueError("bandwidth_median_kbs must be positive")
        if not self.bandwidth_sigma >= 0:
            raise ValueError("bandwidth_sigma must be non-negative")

    @property
    def k(self) -> int:
        return self.object_size // self.fragment_size

    def thresholds(self) -> AdaptiveThresholds:
        lifetime = self.mean_lifetime_days
        if lifetime == 0 or math.isinf(lifetime):
            lifetime = math.inf
        return AdaptiveThresholds(
            loss_cap=self.loss_cap,
            w_days=self.w_days,
            parallel=self.parallel_downloads or None,
            mean_lifetime_days=lifetime,
            ttr_floor_days=self.ttr_floor_days,
            ttr_factor=self.ttr_factor,
        )

    @classmethod
    def from_mapping(cls, mapping) -> "SimConfig":
        """Build a config from string or native values keyed by field name."""
        kwargs = {}
        known = {f.name: f.type for f in fields(cls)}
        for key, value in dict(mapping).items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            if isinstance(value, str) and known[key] in ("int", "float"):
                value = float(value)
                if known[key] == "int" and math.isfinite(value):
                    value = int(value)  # __post_init__ names a non-finite one
            kwargs[key] = value
        return cls(**kwargs)

    def to_mapping(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value if not isinstance(value, float) or math.isfinite(value) else str(value)
        return out


def load_config(path) -> dict[str, str]:
    """Read a flat key=value config file; # comments and blank lines allowed."""
    pairs: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}: line {lineno}: expected key=value, got {text!r}")
            key, value = text.split("=", 1)
            pairs[key.strip()] = value.strip()
    return pairs


def sample_lifetime(mean_days: float, rng) -> float:
    """One exponential lifetime draw, in seconds; inf (or mean 0) means never."""
    if mean_days <= 0 or math.isinf(mean_days):
        return math.inf
    return float(rng.exponential(mean_days * SECONDS_PER_DAY))


def read_bandwidth_cdf(path) -> tuple[np.ndarray, np.ndarray]:
    """Read `quantile,uplink_bytes_per_sec` CSV rows; quantiles must be
    strictly increasing within [0, 1], and uplinks finite and non-negative."""
    quantiles, values = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#") or text.startswith("quantile"):
                continue
            try:
                q_text, v_text = text.split(",")
                q, v = float(q_text), float(v_text)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: bad CDF row {text!r}") from None
            if not (math.isfinite(q) and math.isfinite(v) and v >= 0):
                raise ValueError(f"{path}: line {lineno}: CDF row {text!r} needs a finite quantile and uplink >= 0")
            quantiles.append(q)
            values.append(v)
    if not quantiles:
        raise ValueError(f"{path}: empty bandwidth CDF")
    q = np.asarray(quantiles)
    v = np.asarray(values)
    if q.min() < 0 or q.max() > 1 or np.any(np.diff(q) <= 0):
        raise ValueError(f"{path}: quantiles must be strictly increasing within [0, 1]")
    return q, v


def sample_bandwidth(config: SimConfig, num_peers: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Per-peer (uplink, downlink) in bytes/s; downlink = 4 x uplink.

    Lognormal mode draws uplinks with the configured median (kB/s) and log-space
    sigma; file mode inverse-transform samples the empirical CDF.
    """
    if config.bandwidth_source == "file":
        q, v = read_bandwidth_cdf(config.bandwidth_file)
        uplink = np.interp(rng.random(num_peers), q, v)
    else:
        uplink = rng.lognormal(math.log(config.bandwidth_median_kbs), config.bandwidth_sigma, num_peers) * 1000.0
    uplink = np.maximum(uplink, 1e-6)
    return uplink, 4.0 * uplink


def _waterfill(src, dst, demand, res_up, res_down) -> np.ndarray:
    """Progressive-filling max-min fair allocation for one priority class.

    src/dst are peer indices (SERVER = unconstrained endpoint); res_up and
    res_down are residual per-peer byte budgets, mutated in place so a later
    class sees only leftovers.

    Each round grants one equal increment, the smallest fair share or
    remaining demand, to every active transfer; a transfer leaves when its
    demand is met, or when a round finds its share at most _EPS (an
    exhausted endpoint), which grants nothing.  The uplinks and downlinks
    are one array of endpoints, each side with SERVER as an extra endpoint
    of infinite budget, so a round takes each numpy step once for both
    sides.  The active set is kept compacted and its per-endpoint counts
    current.  Every active transfer has been granted the same increments, so
    a running total is each leaving transfer's grant.  The floats are pinned
    by progressive_filling_reference in tests/oracles.py.
    """
    num_peers = len(res_up)
    rem = np.asarray(demand, dtype=float)
    alloc = np.zeros(len(rem))
    idx = np.flatnonzero(rem > _EPS)
    if idx.size == 0:
        return alloc
    rem = rem[idx]
    s = np.asarray(src)[idx]
    d = np.asarray(dst)[idx]
    s[s == SERVER] = num_peers
    d[d == SERVER] = num_peers
    ends = np.concatenate((s, d + num_peers + 1))  # every uplink endpoint, then every downlink one
    budget = np.concatenate((res_up, [np.inf], res_down, [np.inf]))
    count = np.bincount(ends, minlength=budget.size)
    total = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        while idx.size:
            share = (budget / count)[ends]
            step = np.minimum(np.minimum(share[:idx.size], share[idx.size:]), rem)
            lam = step.min()
            if lam <= _EPS:
                # an endpoint is exhausted; freeze its transfers and retry
                keep = step > _EPS
            else:
                total += lam
                rem -= lam
                # one subtraction per transfer: c·lam would round differently
                np.subtract.at(budget, ends, lam)
                np.maximum(budget, 0.0, out=budget)
                keep = rem > _EPS
            if not keep.all():
                alloc[idx[~keep]] = total
                both = np.concatenate((keep, keep))
                count -= np.bincount(ends[~both], minlength=budget.size)
                idx, rem, ends = idx[keep], rem[keep], ends[both]
    res_up[:] = budget[:num_peers]
    res_down[:] = budget[num_peers + 1:-1]
    return alloc


def allocate_slot_transfers(src, dst, demand, restore, up_budget, down_budget) -> np.ndarray:
    """Two-pass fluid allocation for one slot.

    The transfers are numpy columns, one entry each: int src and dst (peer
    indices or SERVER), float demand in bytes and bool restore.  Pass 1
    serves restore transfers max-min fairly; pass 2 serves everything else
    (backups, including maintenance uploads, and repair legs) from the
    residual budgets, so no byte of it moves over a link whose restore demand
    is unmet.  Returns per-transfer byte grants.
    """
    res_up = np.asarray(up_budget, dtype=float).copy()
    res_down = np.asarray(down_budget, dtype=float).copy()
    alloc = np.zeros(len(src))
    for mask in (restore, ~restore):
        if np.any(mask):
            alloc[mask] = _waterfill(src[mask], dst[mask], demand[mask], res_up, res_down)
    return alloc


@dataclass
class CrashRecord:
    peer: int
    crash_slot: int
    response_slot: int | None
    outcome: str  # restored | lost | pending
    unfinished: bool
    unavoidable: bool


@dataclass
class PeerRecord:
    peer: int
    uplink: float
    availability: float
    ttb: float
    min_ttb: float
    ttr: float
    min_ttr: float
    ettr: float
    redundancy: float


@dataclass
class SimReport:
    config: SimConfig
    num_peers: int
    num_slots: int
    slot_seconds: float
    measured_availability: float
    fixed_n: int | None
    peers: list[PeerRecord]
    crashes: list[CrashRecord]
    server_outbound: np.ndarray  # bytes per slot, fragment-completion granularity
    server_inbound: np.ndarray
    server_buffered: np.ndarray
    avg_redundancy: float


def _ideal_elapsed(bits, need, slot_seconds: float) -> np.ndarray:
    """Per row of bits, elapsed seconds from slot 0 until the row has been
    online for need[row] seconds, inf if the horizon is too short; the online
    time before each column is summed in column order, as a slot loop would."""
    before = np.zeros((len(bits), bits.shape[1] + 1))
    np.cumsum(np.where(bits, slot_seconds, 0.0), axis=1, out=before[:, 1:])
    # a False column past the horizon stands for "never" and keeps argmax defined
    reached = np.pad(bits & (before[:, :-1] + slot_seconds >= need[:, None]), ((0, 0), (0, 1)))
    rows, col = np.arange(len(bits)), reached.argmax(axis=1)
    return np.where(reached[rows, col], col * slot_seconds + (need - before[rows, col]), math.inf)


class Simulation:
    """One deterministic run over (config, matrix)."""

    def __init__(self, config: SimConfig, matrix: AvailabilityMatrix):
        if matrix.num_peers < 2 or matrix.num_slots < 1:
            raise ValueError(f"need at least 2 peers and 1 slot, got {matrix.num_peers} x {matrix.num_slots}")
        self.config = config
        self.bits = matrix.bits.astype(bool)
        self.P = matrix.num_peers
        self.T = matrix.num_slots
        self.slot = matrix.slot_seconds
        self.k = config.k
        self.f = float(config.fragment_size)
        self.o = float(config.object_size)
        self.capacity_slots = int(config.storage_quota // config.fragment_size)
        self.thresholds = config.thresholds()
        self.rng = np.random.default_rng(config.seed)

        # run constants over peers: long-run trace availability, link rates in bytes/s,
        # ideal backup and restore seconds (minTTB is inf if the row cannot carry the object)
        self.avail = self.bits.mean(axis=1)
        self.measured_availability = float(self.avail.mean())
        self.fixed_n = None
        if config.redundancy_policy == FIXED:
            self.fixed_n = fixed_redundancy_n(self.k, max(self.measured_availability, 1e-9), config.fixed_target)
        self.uplink, self.downlink = sample_bandwidth(config, self.P, self.rng)
        self.min_ttb = _ideal_elapsed(self.bits, self.o / self.uplink, self.slot)
        self.min_ttr = self.o / self.downlink
        self.next_crash = np.array([sample_lifetime(config.mean_lifetime_days, self.rng) for _ in range(self.P)])
        # per-peer byte budgets of one slot; allocate_slot_transfers copies them
        self.up_budget = self.uplink * self.slot
        self.down_budget = self.downlink * self.slot
        # report fields, each written once in place; the math.nan object until then
        self.ttb, self.ttr, self.ettr, self.redundancy = ([math.nan] * self.P for _ in range(4))

        # in-flight transfers, one row each in serial order: the KIND .. SERIAL
        # columns of table[:, :used] and the bytes done[:used]; both grow by doubling
        self.table = np.zeros((6, 16), dtype=np.int64)
        self.done = np.zeros(16)
        self.used = 0
        self._serial = 0
        # vectors over peers; phase, back_at and next_crash are the only copy
        self.cols = np.ascontiguousarray(self.bits.T)  # cols[col] = bits[:, col]
        self.phase = np.full(self.P, BACKING_UP, dtype=np.int8)
        self.back_at = np.full(self.P, math.inf)  # return time of an absent peer, inf while present
        # placed[owner, peer]: the id of the fragment peer holds for owner, IN_FLIGHT while an
        # upload from owner to peer is open (reserving the pair and a quota slot of peer), or EMPTY
        self.placed = np.full((self.P, self.P), EMPTY, dtype=np.int32)
        self.placed_count = np.zeros(self.P, dtype=int)  # fragments placed per owner
        self.stored_count = np.zeros(self.P, dtype=int)  # fragments each peer stores for others
        self.incoming = np.zeros(self.P, dtype=int)  # uploads in flight per destination
        self.next_frag = np.zeros(self.P, dtype=int)  # id of each owner's next new fragment
        self.crash_count = np.zeros(self.P, dtype=int)
        # decisions kept on each owner's placements until _forget: stopping
        # and repair risk (-1 undecided), restore parallelism l (0 undecided)
        self.needs, self.at_risk = np.full((2, self.P), -1, dtype=np.int8)
        self.parallel = np.zeros(self.P, dtype=int)
        self.episode: list[CrashRecord | None] = [None] * self.P  # open crash episode of a restoring peer
        self.downloaded: list[set[int]] = [set() for _ in range(self.P)]  # fragments restored so far
        self.repair_stage: list[str | None] = [None] * self.P
        self.buffered: dict[int, set[int]] = {}  # owner -> buffered fragment ids on the server
        self.crashes: list[CrashRecord] = []
        self.out_bytes = np.zeros(self.T)
        self.in_bytes = np.zeros(self.T)
        self.buf_bytes = np.zeros(self.T)

    # -- helpers ---------------------------------------------------------

    def _online(self, col: int) -> np.ndarray:
        """Per-peer online flags in slot col: present, and either restoring
        (victims remain online for the duration of restore) or up in the
        trace."""
        return (self.back_at == math.inf) & ((self.phase == RESTORING) | self.cols[col])

    def _forget(self, owners) -> None:
        """Clear the decisions kept on the placements of owners (an index or a mask), which changed."""
        self.needs[owners] = self.at_risk[owners] = -1
        self.parallel[owners] = 0

    def _place(self, owner: int, frag: int, holder: int) -> None:
        self.placed[owner, holder] = frag
        self.placed_count[owner] += 1
        self.stored_count[holder] += 1
        self._forget(owner)

    def _placements(self, owner: int) -> dict[int, int]:
        """The owner's {fragment id: holder}, in holder order."""
        row = self.placed[owner]
        holders = np.flatnonzero(row >= 0)
        return dict(zip(row[holders].tolist(), holders.tolist()))

    def _profiles(self, owner: int) -> list[tuple[float, float]]:
        # .tolist gives Python floats, from which redundancy builds its arrays faster than from numpy scalars
        held = self.placed[owner] >= 0
        return list(zip(self.avail[held].tolist(), self.uplink[held].tolist()))

    def _ettr(self, owner: int) -> float:
        """eTTR of the owner's current placements; nan below k holders."""
        if self.placed_count.item(owner) < self.k:
            return math.nan
        return estimate_ttr(self.o, self.downlink.item(owner), self._profiles(owner), self.k,
                            self.thresholds.parallel)

    def _at_risk(self, owner: int) -> bool:
        """True while the owner's placements fail the loss cap over w + eTTR
        (always, below k holders); kept in at_risk, exact as in
        _needs_fragments."""
        at_risk = self.at_risk.item(owner)
        if at_risk < 0:
            ettr = self._ettr(owner)
            at_risk = self.at_risk[owner] = math.isnan(ettr) or bool(
                loss_risk(self.placed_count.item(owner), self.k, ettr, self.thresholds) > self.thresholds.loss_cap)
        return bool(at_risk)

    def _needs_fragments(self, owner: int) -> bool:
        """True while the owner's policy wants more fragments placed.

        Crash detection is immediate and global, so the owner's view of its
        placements is exact.  The adaptive decision is kept in needs until
        _place, on_crash or _mark_lost changes the placements.  That is
        exact: its other inputs (o, the owner's downlink and minTTR, k, the
        thresholds, each holder's availability and uplink) are run constants.
        """
        if self.config.redundancy_policy == FIXED:
            return self.placed_count.item(owner) < self.fixed_n
        needs = self.needs.item(owner)
        if needs < 0:
            needs = self.needs[owner] = not backup_complete(
                self.o, float(self.downlink[owner]), float(self.min_ttr[owner]),
                self._profiles(owner), self.k, self.thresholds,
            )
        return bool(needs)

    def _new_transfer(self, kind, src, dst, owner, frag) -> None:
        if self.used == self.done.size:
            self.table = np.concatenate((self.table, np.zeros_like(self.table)), axis=1)
            self.done = np.concatenate((self.done, np.zeros_like(self.done)))
        self._serial += 1
        self.table[:, self.used] = (kind, src, dst, owner, frag, self._serial)
        self.done[self.used] = 0.0
        self.used += 1
        if kind in UPLOADS:
            self.incoming[dst] += 1
            self.placed[owner, dst] = IN_FLIGHT

    def _drop(self, rows) -> None:
        """Mark the rows dead, releasing what their uploads reserved."""
        for row in rows:
            kind, _, dst, owner = self.table[:4, row].tolist()
            self.table[KIND, row] = DEAD
            if kind in UPLOADS:
                self.incoming[dst] -= 1
                self.placed[owner, dst] = EMPTY

    def _owned(self, owner: int, kind: int) -> np.ndarray:
        """Rows of the owner's live transfers of this kind, in serial order."""
        return ((self.table[OWNER, :self.used] == owner) & (self.table[KIND, :self.used] == kind)).nonzero()[0]

    def _cancel(self, owner: int, kind: int) -> None:
        self._drop(self._owned(owner, kind))

    def _eligible_targets(self, owner: int, col: int) -> np.ndarray:
        """Online peers, other than the owner, that hold none of its fragments,
        receive none from it and have a free quota slot; in index order."""
        ok = self._online(col) & (self.placed[owner] == EMPTY)
        ok &= self.stored_count + self.incoming < self.capacity_slots
        ok[owner] = False
        return ok.nonzero()[0]

    def _open_uploads(self, owner: int, kind: int, src: int, col: int, count: int) -> None:
        """Open up to count uploads of new fragments from src, each to a peer
        drawn uniformly from the eligible targets."""
        if count <= 0:
            return
        # reserving dst makes only dst ineligible, so each later draw is from
        # the same list less the peers already drawn
        targets = self._eligible_targets(owner, col).tolist()
        for _ in range(count):
            if not targets:
                break
            dst = targets.pop(int(self.rng.integers(len(targets))))
            self._new_transfer(kind, src, dst, owner, self.next_frag.item(owner))
            self.next_frag[owner] += 1

    def _lost_if_unreachable(self, owner: int) -> bool:
        """Mark the owner lost when fewer than k of its fragments are
        reachable (downloaded, placed on peers or buffered); True if so."""
        row = self.placed[owner]
        reach = set().union(self.downloaded[owner], row[row >= 0].tolist(), self.buffered.get(owner, ()))
        if len(reach) < self.k:
            self._mark_lost(owner)
            return True
        return False

    # -- crash handling --------------------------------------------------

    def on_crash(self, idx: int, now: float, slot_idx: int) -> None:
        """Wipe the peer, notify owners whose fragments it stored, open or
        extend its crash episode, and schedule its return per the response
        mode."""
        self.crash_count[idx] += 1
        config = self.config

        back = now  # when the peer is back; its lifetime restarts there
        if config.response != IMMEDIATE:
            delay = float(self.rng.exponential(config.delay_mean_days * SECONDS_PER_DAY))
            back = self.back_at[idx] = min(now + delay, np.finfo(float).max)  # inf would read as present
        # fragments this peer stored for others are destroyed; detection is
        # immediate and global, so owners see the drop at once
        owners = self.placed[:, idx] >= 0
        self._forget(owners)
        self.placed_count[owners] -= 1
        self.placed[owners, idx] = EMPTY
        self.stored_count[idx] = 0

        # every in-flight transfer touching this peer dies with it
        self._drop(np.flatnonzero((self.table[SRC, :self.used] == idx) | (self.table[DST, :self.used] == idx)))

        phase = int(self.phase[idx])
        if phase != LOST:
            self.downloaded[idx] = set()
            self.repair_stage[idx] = None
            if phase == RESTORING:
                # a re-crash during recovery extends the open episode
                self.episode[idx].response_slot = None
            else:
                self.episode[idx] = CrashRecord(
                    peer=idx,
                    crash_slot=slot_idx,
                    response_slot=None,
                    outcome="pending",
                    unfinished=phase != COMPLETE,
                    unavoidable=bool(now < self.min_ttb[idx]),
                )
                self.crashes.append(self.episode[idx])
            if not self._lost_if_unreachable(idx):
                self.phase[idx] = RESTORING

        # lifetime is memoryless: restart at crash (immediate) or at return
        self.next_crash[idx] = back + sample_lifetime(config.mean_lifetime_days, self.rng)

        if self.phase[idx] == RESTORING and self.back_at[idx] == math.inf:
            self.episode[idx].response_slot = slot_idx

    def _mark_lost(self, owner: int) -> None:
        held = self.placed[owner] >= 0
        self.stored_count[held] -= 1
        self.placed[owner, held] = EMPTY
        self.placed_count[owner] = 0
        self.downloaded[owner] = set()
        self.repair_stage[owner] = None
        self._forget(owner)
        self.buffered.pop(owner, None)
        self.phase[owner] = LOST
        self.episode[owner].outcome = "lost"
        self.episode[owner] = None
        self._drop(np.flatnonzero(self.table[OWNER, :self.used] == owner))

    # -- per-slot steps --------------------------------------------------

    def _step_crashes(self, slot_idx: int, now: float) -> None:
        # one mask suffices: on_crash(i) writes only peer i's crash and return times
        for idx in np.flatnonzero((self.next_crash < now + self.slot) & (self.back_at == math.inf)).tolist():
            self.on_crash(idx, now, slot_idx)

    def _step_returns(self, slot_idx: int, now: float) -> None:
        for idx in np.flatnonzero(self.back_at <= now).tolist():
            self.back_at[idx] = math.inf
            if self.phase[idx] == RESTORING:
                self.episode[idx].response_slot = slot_idx
                # injection was for the absence; the owner takes over now
                self._cancel(idx, REPAIR_OUT)

    def assisted_repair_check(self, slot_idx: int, now: float) -> None:
        """Trigger and drive server-side repair for absent owners past the
        timeout whose loss probability exceeds the cap."""
        if self.config.response != DELAYED_ASSISTED:
            return
        timeout = self.config.repair_timeout_days * SECONDS_PER_DAY
        for idx in np.flatnonzero((self.back_at != math.inf) & (self.phase == RESTORING)).tolist():
            crash_time = self.episode[idx].crash_slot * self.slot
            if now - crash_time < timeout:
                continue
            if self.repair_stage[idx] is None:
                if self.placed_count[idx] < self.k:
                    self._lost_if_unreachable(idx)
                    continue
                if self._at_risk(idx):
                    self.repair_stage[idx] = "down"
            if self.repair_stage[idx] == "down":
                self._drive_repair_download(idx)
            if self.repair_stage[idx] == "inject":
                self._drive_repair_injection(idx, slot_idx)

    def _drive_repair_download(self, owner: int) -> None:
        buffered = self.buffered.setdefault(owner, set())
        in_flight = set(self.table[FRAG, self._owned(owner, REPAIR_IN)].tolist())
        needed = self.k - len(buffered) - len(in_flight)
        if needed <= 0:
            if len(buffered) >= self.k:
                self.repair_stage[owner] = "inject"
            return
        placements = self._placements(owner)
        candidates = sorted(placements.keys() - buffered - in_flight)
        if len(buffered) + len(in_flight) + len(candidates) < self.k:
            self._lost_if_unreachable(owner)
            return
        for _ in range(min(needed, len(candidates))):
            frag = candidates.pop(int(self.rng.integers(len(candidates))))
            self._new_transfer(REPAIR_IN, placements[frag], SERVER, owner, frag)

    def _drive_repair_injection(self, owner: int, slot_idx: int) -> None:
        if not self._at_risk(owner):
            self.repair_stage[owner] = "done"
            self._cancel(owner, REPAIR_OUT)
            return
        active = self._owned(owner, REPAIR_OUT).size
        self._open_uploads(owner, REPAIR_OUT, SERVER, slot_idx, self.config.backup_parallelism - active)

    def maintenance_step(self, owner: int, slot_idx: int) -> None:
        """Keep upload tasks open while the policy wants more fragments placed.

        Serves both the initial backup (phase backing_up) and maintenance after
        losses (phase complete); stalled uploads to currently-offline targets
        do not count against the parallelism budget.
        """
        if not self._needs_fragments(owner):
            return
        uploads = self._owned(owner, BACKUP)
        if self.config.redundancy_policy == FIXED:
            budget = self.fixed_n - self.placed_count.item(owner) - uploads.size
            if budget <= 0:
                return  # _open_uploads would draw nothing
        else:
            budget = self.config.backup_parallelism
        active = int(np.count_nonzero(self._online(slot_idx)[self.table[DST, uploads]]))
        self._open_uploads(owner, BACKUP, owner, slot_idx,
                           min(self.config.backup_parallelism - active, budget))

    def _restore_step(self, owner: int, slot_idx: int) -> None:
        if self._lost_if_unreachable(owner):
            return
        if self.episode[owner].response_slot == slot_idx and self.crash_count[owner] == 1:
            self.ettr[owner] = self._ettr(owner)
        restores = self._owned(owner, RESTORE)
        in_flight = set(self.table[FRAG, restores].tolist())
        downloaded = self.downloaded[owner]
        have = len(downloaded) + len(in_flight)
        if have >= self.k:
            return
        if self.parallel[owner] == 0:  # kept, exact as in _needs_fragments
            self.parallel[owner] = self.thresholds.parallel or default_parallel(  # 1 with no holders
                self.downlink[owner], self.uplink[self.placed[owner] >= 0], self.k)
        online = np.append(self._online(slot_idx), True).tolist()  # SERVER = -1 reads the appended True
        active_online = sum(online[src] for src in self.table[SRC, restores].tolist())
        placements = self._placements(owner)
        candidates = sorted(
            frag
            for frag, holder in placements.items()
            if frag not in downloaded and frag not in in_flight and online[holder]
        )
        while active_online < self.parallel[owner] and candidates and have < self.k:
            frag = candidates.pop(int(self.rng.integers(len(candidates))))
            self._new_transfer(RESTORE, placements[frag], owner, owner, frag)
            in_flight.add(frag)
            active_online += 1
            have += 1
        # fall back to the server buffer when peers cannot supply k fragments
        buffered = self.buffered.get(owner, set())
        if buffered and have < self.k:
            peer_obtainable = placements.keys() - downloaded - in_flight
            spare = sorted(buffered - downloaded - in_flight)
            while have + len(peer_obtainable) < self.k and spare:
                frag = spare.pop(0)
                self._new_transfer(RESTORE, SERVER, owner, owner, frag)
                in_flight.add(frag)
                have += 1

    def _step_tasks(self, slot_idx: int) -> None:
        """Step each present restoring owner and each present owner in the
        trace that may open an upload, in index order.  The counts are taken
        once: one owner's step changes no other owner's phase, placements or
        transfers, and backups to targets present and in the trace, which
        stay online through the step, bound an owner's active uploads below."""
        kind, _, dst, owner = self.table[:4, :self.used]
        backup = kind == BACKUP
        steady = (self.back_at == math.inf) & self.cols[slot_idx]
        opens = steady & ((self.phase == BACKING_UP) | (self.phase == COMPLETE))
        opens &= np.bincount(owner[backup], weights=steady[dst[backup]], minlength=self.P) < self.config.backup_parallelism
        if self.config.redundancy_policy == FIXED:
            opens &= self.placed_count + np.bincount(owner[backup], minlength=self.P) < self.fixed_n
        else:
            opens &= self.needs != 0
        restoring = (self.back_at == math.inf) & (self.phase == RESTORING)
        for idx in np.flatnonzero(restoring | opens).tolist():
            if restoring[idx]:
                self._restore_step(idx, slot_idx)
            else:
                self.maintenance_step(idx, slot_idx)

    def _step_allocate(self, slot_idx: int) -> np.ndarray:
        """Grant this slot's bytes; return the rows it finished, in serial order."""
        kind, src, dst = self.table[:3, :self.used]
        online = np.append(self._online(slot_idx), True)  # SERVER = -1 reads the appended True
        rows = np.flatnonzero((kind != DEAD) & online[src] & online[dst])
        if rows.size == 0:
            return rows
        grants = allocate_slot_transfers(src[rows], dst[rows], self.f - self.done[rows], kind[rows] == RESTORE,
                                         self.up_budget, self.down_budget)
        self.done[rows] += grants
        return rows[self.done[rows] >= self.f - _EPS]

    def _record_backup_progress(self, owner: int, slot_idx: int) -> None:
        if not self._needs_fragments(owner):
            if self.phase[owner] == BACKING_UP:
                self.phase[owner] = COMPLETE
                self.ttb[owner] = (slot_idx + 1) * self.slot
                self.redundancy[owner] = self.placed_count.item(owner) / self.k
            self._cancel(owner, BACKUP)

    def _step_completions(self, slot_idx: int, finished: np.ndarray) -> None:
        """Apply the finished rows in serial order, then compact the table."""
        for row in finished.tolist():
            kind, src, dst, owner, frag, _ = self.table[:, row].tolist()
            if kind == DEAD:
                continue  # cancelled by an earlier completion this slot
            self._drop([row])
            if kind in UPLOADS:
                self._place(owner, frag, dst)
                if kind == REPAIR_OUT:
                    self.out_bytes[slot_idx] += self.f
                else:
                    self._record_backup_progress(owner, slot_idx)
            elif kind == REPAIR_IN:
                self.buffered.setdefault(owner, set()).add(frag)
                self.in_bytes[slot_idx] += self.f
            elif kind == RESTORE:
                if src == SERVER:
                    self.out_bytes[slot_idx] += self.f
                self.downloaded[owner].add(frag)
                if len(self.downloaded[owner]) >= self.k:
                    self._finish_restore(owner, slot_idx)
        live = np.flatnonzero(self.table[KIND, :self.used] != DEAD)  # a stable compaction keeps serial order
        self.table[:, :live.size], self.done[:live.size] = self.table[:, live], self.done[live]
        self.used = live.size

    def _finish_restore(self, owner: int, slot_idx: int) -> None:
        if self.crash_count[owner] == 1:
            self.ttr[owner] = (slot_idx - self.episode[owner].response_slot + 1) * self.slot
        self.episode[owner].outcome = "restored"
        self.episode[owner] = None
        self.phase[owner] = COMPLETE if not math.isnan(self.ttb[owner]) else BACKING_UP
        self.downloaded[owner] = set()
        self.repair_stage[owner] = None
        self.buffered.pop(owner, None)
        self._cancel(owner, RESTORE)

    # -- run -------------------------------------------------------------

    def run(self) -> SimReport:
        for slot_idx in range(self.T):
            now = slot_idx * self.slot
            self._step_crashes(slot_idx, now)
            self._step_returns(slot_idx, now)
            self.assisted_repair_check(slot_idx, now)
            self._step_tasks(slot_idx)
            self._step_completions(slot_idx, self._step_allocate(slot_idx))
            self.buf_bytes[slot_idx] = sum(len(v) for v in self.buffered.values()) * self.f

        # Python floats throughout: the report writes each with repr
        records = [PeerRecord(*row) for row in zip(
            range(self.P), self.uplink.tolist(), self.avail.tolist(), self.ttb, self.min_ttb.tolist(),
            self.ttr, self.min_ttr.tolist(), self.ettr, self.redundancy)]
        done = [r for r in self.redundancy if not math.isnan(r)]
        return SimReport(
            config=self.config,
            num_peers=self.P,
            num_slots=self.T,
            slot_seconds=self.slot,
            measured_availability=self.measured_availability,
            fixed_n=self.fixed_n,
            peers=records,
            crashes=self.crashes,
            server_outbound=self.out_bytes,
            server_inbound=self.in_bytes,
            server_buffered=self.buf_bytes,
            avg_redundancy=float(np.mean(done)) if done else math.nan,
        )


def run(config: SimConfig, matrix: AvailabilityMatrix) -> SimReport:
    """Simulate the full system over the matrix horizon; deterministic under
    (config, matrix, config.seed)."""
    return Simulation(config, matrix).run()
