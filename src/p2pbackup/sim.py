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
from dataclasses import dataclass, field, fields

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

UPLOADS = ("backup", "repair_out")  # transfers that place a fragment on a peer

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
    exhausted endpoint), which grants nothing.  SERVER is endpoint P with an
    infinite budget.  The active set is kept compacted and its per-endpoint
    counts current.  Every active transfer has been granted the same
    increments, so a running total is each leaving transfer's grant.  The
    floats are pinned by progressive_filling_reference in tests/oracles.py.
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
    up = np.append(res_up, np.inf)
    down = np.append(res_down, np.inf)
    up_count = np.bincount(s, minlength=num_peers + 1)
    down_count = np.bincount(d, minlength=num_peers + 1)
    total = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        while idx.size:
            step = np.minimum(np.minimum((up / up_count)[s], (down / down_count)[d]), rem)
            lam = step.min()
            if lam <= _EPS:
                # an endpoint is exhausted; freeze its transfers and retry
                keep = step > _EPS
            else:
                total += lam
                rem -= lam
                # one subtraction per transfer: c·lam would round differently
                np.subtract.at(up, s, lam)
                np.subtract.at(down, d, lam)
                np.maximum(up, 0.0, out=up)
                np.maximum(down, 0.0, out=down)
                keep = rem > _EPS
            if not keep.all():
                gone = ~keep
                alloc[idx[gone]] = total
                up_count -= np.bincount(s[gone], minlength=num_peers + 1)
                down_count -= np.bincount(d[gone], minlength=num_peers + 1)
                idx, s, d, rem = idx[keep], s[keep], d[keep], rem[keep]
    res_up[:] = up[:num_peers]
    res_down[:] = down[:num_peers]
    return alloc


def allocate_slot_transfers(transfers, up_budget, down_budget) -> np.ndarray:
    """Two-pass fluid allocation for one slot.

    transfers: sequence of (src, dst, demand_bytes, is_restore) with peer
    indices or SERVER.  Pass 1 serves restore transfers max-min fairly; pass 2
    serves everything else (backups, including maintenance uploads, and
    repair legs) from the residual budgets, so no byte of it moves over a
    link whose restore demand is unmet.
    Returns per-transfer byte grants.
    """
    res_up = np.asarray(up_budget, dtype=float).copy()
    res_down = np.asarray(down_budget, dtype=float).copy()
    src = np.asarray([t[0] for t in transfers], dtype=int)
    dst = np.asarray([t[1] for t in transfers], dtype=int)
    demand = np.asarray([t[2] for t in transfers], dtype=float)
    restore = np.asarray([bool(t[3]) for t in transfers], dtype=bool)
    alloc = np.zeros(len(transfers))
    for mask in (restore, ~restore):
        if np.any(mask):
            alloc[mask] = _waterfill(src[mask], dst[mask], demand[mask], res_up, res_down)
    return alloc


@dataclass(eq=False)
class _Transfer:
    serial: int
    kind: str  # restore | backup (initial or maintenance) | repair_in | repair_out
    src: int
    dst: int
    owner: int
    frag: int
    done: float = 0.0


@dataclass
class _Peer:
    idx: int
    uplink: float
    downlink: float
    avail: float  # long-run trace availability, used in holder profiles
    min_ttb: float  # ideal seconds, inf if the trace row cannot carry the object
    min_ttr: float
    placements: dict = field(default_factory=dict)  # own fragment id -> holder idx
    next_frag: int = 0
    crash_count: int = 0
    downloaded: set = field(default_factory=set)
    repair_stage: str | None = None
    ttb: float = math.nan
    ttr: float = math.nan
    ettr: float = math.nan
    redundancy: float = math.nan
    episode: "CrashRecord | None" = None
    needs: bool | None = None  # adaptive stopping decision; None once placements change


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


def _ideal_seconds(row, bytes_needed: float, rate: float, slot_seconds: float) -> float:
    """Elapsed seconds from slot 0 until the row has accumulated
    bytes_needed / rate of online time; inf if the horizon is too short."""
    need = bytes_needed / rate
    acc = 0.0
    for col, bit in enumerate(row):
        if bit:
            if acc + slot_seconds >= need:
                return col * slot_seconds + (need - acc)
            acc += slot_seconds
    return math.inf


class Simulation:
    """One deterministic run over (config, matrix)."""

    def __init__(self, config: SimConfig, matrix: AvailabilityMatrix):
        if matrix.num_peers < 2:
            raise ValueError("need at least 2 peers")
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

        row_avail = self.bits.mean(axis=1)
        self.measured_availability = float(row_avail.mean())
        self.fixed_n = None
        if config.redundancy_policy == FIXED:
            self.fixed_n = fixed_redundancy_n(self.k, max(self.measured_availability, 1e-9), config.fixed_target)

        uplink, downlink = sample_bandwidth(config, self.P, self.rng)
        self.peers = [
            _Peer(
                idx=i,
                uplink=float(uplink[i]),
                downlink=float(downlink[i]),
                avail=float(row_avail[i]),
                min_ttb=_ideal_seconds(self.bits[i], self.o, float(uplink[i]), self.slot),
                min_ttr=self.o / float(downlink[i]),
            )
            for i in range(self.P)
        ]
        self.next_crash = np.array([sample_lifetime(config.mean_lifetime_days, self.rng) for _ in range(self.P)])
        # per-peer byte budgets of one slot; allocate_slot_transfers copies them
        self.up_budget = np.array([p.uplink * self.slot for p in self.peers])
        self.down_budget = np.array([p.downlink * self.slot for p in self.peers])

        # in-flight transfers by serial (dict order is serial order), and the
        # same transfers indexed per owner
        self.transfers: dict[int, _Transfer] = {}
        self.by_owner: list[dict[int, _Transfer]] = [{} for _ in range(self.P)]
        self._serial = 0
        # vectors over peers; phase, back_at and next_crash are the only copy
        self.cols = np.ascontiguousarray(self.bits.T)  # cols[col] = bits[:, col]
        self.phase = np.full(self.P, BACKING_UP, dtype=np.int8)
        self.back_at = np.full(self.P, math.inf)  # return time of an absent peer, inf while present
        self.holds = np.zeros((self.P, self.P), dtype=bool)  # [owner, holder]: holder in owner.placements
        self.stored_count = np.zeros(self.P, dtype=int)  # fragments each peer stores for others
        # uploads in flight: count per destination, and [owner, dst] (a pair
        # never has two, since a pick excludes the pairs in flight); they
        # reserve the destination's quota slot and pair until they end
        self.incoming = np.zeros(self.P, dtype=int)
        self.receiving = np.zeros((self.P, self.P), dtype=bool)
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

    def _place(self, owner_idx: int, frag: int, holder_idx: int) -> None:
        owner = self.peers[owner_idx]
        owner.placements[frag] = holder_idx
        owner.needs = None
        self.holds[owner_idx, holder_idx] = True
        self.stored_count[holder_idx] += 1

    def _profiles(self, holder_idxs) -> list[tuple[float, float]]:
        return [(self.peers[h].avail, self.peers[h].uplink) for h in holder_idxs]

    def _ettr(self, owner: _Peer) -> float:
        """eTTR of the owner's current placements; nan below k holders."""
        holders = owner.placements.values()
        if len(holders) < self.k:
            return math.nan
        return estimate_ttr(self.o, owner.downlink, self._profiles(holders), self.k, self.thresholds.parallel)

    def _at_risk(self, owner: _Peer) -> bool:
        """True while the owner's placements fail the loss cap over w + eTTR
        (always, below k holders)."""
        ettr = self._ettr(owner)
        if math.isnan(ettr):
            return True
        return loss_risk(len(owner.placements), self.k, ettr, self.thresholds) > self.thresholds.loss_cap

    def _needs_fragments(self, owner: _Peer) -> bool:
        """True while the owner's policy wants more fragments placed.

        Crash detection is immediate and global, so the owner's view of its
        placements is exact.  The adaptive decision is kept in owner.needs
        until _place, on_crash or _mark_lost changes the placements.  That is
        exact: its other inputs (o, the owner's downlink and minTTR, k, the
        thresholds, each holder's availability and uplink) are run constants.
        """
        if self.config.redundancy_policy == FIXED:
            return len(owner.placements) < self.fixed_n
        if owner.needs is None:
            owner.needs = not backup_complete(
                self.o, owner.downlink, owner.min_ttr, self._profiles(owner.placements.values()),
                self.k, self.thresholds,
            )
        return owner.needs

    def _new_transfer(self, kind, src, dst, owner, frag) -> None:
        self._serial += 1
        t = _Transfer(self._serial, kind, src, dst, owner, frag)
        self.transfers[t.serial] = t
        self.by_owner[owner][t.serial] = t
        if kind in UPLOADS:
            self.incoming[dst] += 1
            self.receiving[owner, dst] = True

    def _drop(self, t: _Transfer) -> None:
        del self.transfers[t.serial]
        del self.by_owner[t.owner][t.serial]
        if t.kind in UPLOADS:
            self.incoming[t.dst] -= 1
            self.receiving[t.owner, t.dst] = False

    def _owned(self, owner: int, kind: str) -> list[_Transfer]:
        return [t for t in self.by_owner[owner].values() if t.kind == kind]

    def _cancel(self, owner: int, kind: str) -> None:
        for t in self._owned(owner, kind):
            self._drop(t)

    def _eligible_targets(self, owner_idx: int, col: int) -> np.ndarray:
        """Online peers, other than the owner, that hold none of its fragments,
        receive none from it and have a free quota slot; in index order."""
        ok = self._online(col) & ~self.holds[owner_idx] & ~self.receiving[owner_idx]
        ok &= self.stored_count + self.incoming < self.capacity_slots
        ok[owner_idx] = False
        return np.flatnonzero(ok)

    def _open_uploads(self, owner: _Peer, kind: str, src: int, col: int, count: int) -> None:
        """Open up to count uploads of new fragments from src, each to a peer
        drawn uniformly from the eligible targets."""
        if count <= 0:
            return
        # reserving dst makes only dst ineligible, so each later draw is from
        # the same list less the peers already drawn
        targets = self._eligible_targets(owner.idx, col).tolist()
        for _ in range(count):
            if not targets:
                break
            dst = targets.pop(int(self.rng.integers(len(targets))))
            self._new_transfer(kind, src, dst, owner.idx, owner.next_frag)
            owner.next_frag += 1

    def _lost_if_unreachable(self, owner: _Peer) -> bool:
        """Mark the owner lost when fewer than k of its fragments are
        reachable (downloaded, placed on peers or buffered); True if so."""
        reach = set().union(owner.downloaded, owner.placements, self.buffered.get(owner.idx, ()))
        if len(reach) < self.k:
            self._mark_lost(owner)
            return True
        return False

    # -- crash handling --------------------------------------------------

    def on_crash(self, idx: int, now: float, slot_idx: int) -> None:
        """Wipe the peer, notify owners whose fragments it stored, open or
        extend its crash episode, and schedule its return per the response
        mode."""
        peer = self.peers[idx]
        peer.crash_count += 1
        config = self.config

        back = now  # when the peer is back; its lifetime restarts there
        if config.response != IMMEDIATE:
            delay = float(self.rng.exponential(config.delay_mean_days * SECONDS_PER_DAY))
            back = self.back_at[idx] = min(now + delay, np.finfo(float).max)  # inf would read as present
        # fragments this peer stored for others are destroyed; detection is
        # immediate and global, so owners see the drop at once
        for owner_idx in np.flatnonzero(self.holds[:, idx]):
            owner = self.peers[owner_idx]
            owner.placements = {f: h for f, h in owner.placements.items() if h != idx}
            owner.needs = None
        self.holds[:, idx] = False
        self.stored_count[idx] = 0

        # every in-flight transfer touching this peer dies with it
        for t in [t for t in self.transfers.values() if idx in (t.src, t.dst)]:
            self._drop(t)

        phase = int(self.phase[idx])
        if phase != LOST:
            peer.downloaded = set()
            peer.repair_stage = None
            if phase == RESTORING:
                # a re-crash during recovery extends the open episode
                peer.episode.response_slot = None
            else:
                peer.episode = CrashRecord(
                    peer=idx,
                    crash_slot=slot_idx,
                    response_slot=None,
                    outcome="pending",
                    unfinished=phase != COMPLETE,
                    unavoidable=now < peer.min_ttb,
                )
                self.crashes.append(peer.episode)
            if not self._lost_if_unreachable(peer):
                self.phase[idx] = RESTORING

        # lifetime is memoryless: restart at crash (immediate) or at return
        self.next_crash[idx] = back + sample_lifetime(config.mean_lifetime_days, self.rng)

        if self.phase[idx] == RESTORING and self.back_at[idx] == math.inf:
            peer.episode.response_slot = slot_idx

    def _mark_lost(self, owner: _Peer) -> None:
        self.stored_count[self.holds[owner.idx]] -= 1
        owner.placements = {}
        self.holds[owner.idx] = False
        owner.downloaded = set()
        owner.repair_stage = None
        owner.needs = None
        self.buffered.pop(owner.idx, None)
        self.phase[owner.idx] = LOST
        owner.episode.outcome = "lost"
        owner.episode = None
        for t in list(self.by_owner[owner.idx].values()):
            self._drop(t)

    # -- per-slot steps --------------------------------------------------

    def _step_crashes(self, slot_idx: int, now: float) -> None:
        # one mask suffices: on_crash(i) writes only peer i's crash and return times
        for idx in np.flatnonzero((self.next_crash < now + self.slot) & (self.back_at == math.inf)).tolist():
            self.on_crash(idx, now, slot_idx)

    def _step_returns(self, slot_idx: int, now: float) -> None:
        for idx in np.flatnonzero(self.back_at <= now).tolist():
            self.back_at[idx] = math.inf
            if self.phase[idx] == RESTORING:
                self.peers[idx].episode.response_slot = slot_idx
                # injection was for the absence; the owner takes over now
                self._cancel(idx, "repair_out")

    def assisted_repair_check(self, slot_idx: int, now: float) -> None:
        """Trigger and drive server-side repair for absent owners past the
        timeout whose loss probability exceeds the cap."""
        if self.config.response != DELAYED_ASSISTED:
            return
        timeout = self.config.repair_timeout_days * SECONDS_PER_DAY
        for idx in np.flatnonzero((self.back_at != math.inf) & (self.phase == RESTORING)):
            owner = self.peers[idx]
            crash_time = owner.episode.crash_slot * self.slot
            if now - crash_time < timeout:
                continue
            if owner.repair_stage is None:
                if len(owner.placements) < self.k:
                    self._lost_if_unreachable(owner)
                    continue
                if self._at_risk(owner):
                    owner.repair_stage = "down"
            if owner.repair_stage == "down":
                self._drive_repair_download(owner)
            if owner.repair_stage == "inject":
                self._drive_repair_injection(owner, slot_idx)

    def _drive_repair_download(self, owner: _Peer) -> None:
        buffered = self.buffered.setdefault(owner.idx, set())
        in_flight = {t.frag for t in self._owned(owner.idx, "repair_in")}
        needed = self.k - len(buffered) - len(in_flight)
        if needed <= 0:
            if len(buffered) >= self.k:
                owner.repair_stage = "inject"
            return
        candidates = sorted(owner.placements.keys() - buffered - in_flight)
        if len(buffered) + len(in_flight) + len(candidates) < self.k:
            self._lost_if_unreachable(owner)
            return
        for _ in range(min(needed, len(candidates))):
            frag = candidates.pop(int(self.rng.integers(len(candidates))))
            self._new_transfer("repair_in", owner.placements[frag], SERVER, owner.idx, frag)

    def _drive_repair_injection(self, owner: _Peer, slot_idx: int) -> None:
        if not self._at_risk(owner):
            owner.repair_stage = "done"
            self._cancel(owner.idx, "repair_out")
            return
        active = len(self._owned(owner.idx, "repair_out"))
        self._open_uploads(owner, "repair_out", SERVER, slot_idx, self.config.backup_parallelism - active)

    def maintenance_step(self, owner: _Peer, slot_idx: int) -> None:
        """Keep upload tasks open while the policy wants more fragments placed.

        Serves both the initial backup (phase backing_up) and maintenance after
        losses (phase complete); stalled uploads to currently-offline targets
        do not count against the parallelism budget.
        """
        if not self._needs_fragments(owner):
            return
        uploads = self._owned(owner.idx, "backup")
        if self.config.redundancy_policy == FIXED:
            budget = self.fixed_n - len(owner.placements) - len(uploads)
            if budget <= 0:
                return  # _open_uploads would draw nothing
        else:
            budget = self.config.backup_parallelism
        online = self._online(slot_idx)
        active = sum(1 for t in uploads if online[t.dst])
        self._open_uploads(owner, "backup", owner.idx, slot_idx,
                           min(self.config.backup_parallelism - active, budget))

    def _restore_step(self, owner: _Peer, slot_idx: int) -> None:
        if self._lost_if_unreachable(owner):
            return
        if owner.episode.response_slot == slot_idx and owner.crash_count == 1:
            owner.ettr = self._ettr(owner)
        restores = self._owned(owner.idx, "restore")
        in_flight = {t.frag for t in restores}
        have = len(owner.downloaded) + len(in_flight)
        if have >= self.k:
            return
        l = self.thresholds.parallel or default_parallel(
            owner.downlink, [self.peers[h].uplink for h in owner.placements.values()] or [owner.downlink], self.k
        )
        online = self._online(slot_idx)
        active_online = sum(1 for t in restores if t.src == SERVER or online[t.src])
        candidates = sorted(
            frag
            for frag, holder in owner.placements.items()
            if frag not in owner.downloaded and frag not in in_flight and online[holder]
        )
        while active_online < l and candidates and have < self.k:
            frag = candidates.pop(int(self.rng.integers(len(candidates))))
            self._new_transfer("restore", owner.placements[frag], owner.idx, owner.idx, frag)
            in_flight.add(frag)
            active_online += 1
            have += 1
        # fall back to the server buffer when peers cannot supply k fragments
        buffered = self.buffered.get(owner.idx, set())
        if buffered and have < self.k:
            peer_obtainable = owner.placements.keys() - owner.downloaded - in_flight
            spare = sorted(buffered - owner.downloaded - in_flight)
            while have + len(peer_obtainable) < self.k and spare:
                frag = spare.pop(0)
                self._new_transfer("restore", SERVER, owner.idx, owner.idx, frag)
                in_flight.add(frag)
                have += 1

    def _step_tasks(self, slot_idx: int) -> None:
        # a peer's step changes no other peer's phase or absence
        phase, in_trace = self.phase.tolist(), self.cols[slot_idx].tolist()
        for idx in np.flatnonzero(self.back_at == math.inf).tolist():
            if phase[idx] == RESTORING:
                self._restore_step(self.peers[idx], slot_idx)
            elif phase[idx] != LOST and in_trace[idx]:
                self.maintenance_step(self.peers[idx], slot_idx)

    def _step_allocate(self, slot_idx: int) -> list[_Transfer]:
        """Grant this slot's bytes; return the transfers it finished, in serial order."""
        online = self._online(slot_idx).tolist()
        eligible = [t for t in self.transfers.values()
                    if (t.src == SERVER or online[t.src]) and (t.dst == SERVER or online[t.dst])]
        if not eligible:
            return []
        specs = [(t.src, t.dst, self.f - t.done, t.kind == "restore") for t in eligible]
        grants = allocate_slot_transfers(specs, self.up_budget, self.down_budget)
        for t, g in zip(eligible, grants):
            t.done += float(g)
        return [t for t in eligible if t.done >= self.f - _EPS]

    def _record_backup_progress(self, owner: _Peer, slot_idx: int) -> None:
        if not self._needs_fragments(owner):
            if self.phase[owner.idx] == BACKING_UP:
                self.phase[owner.idx] = COMPLETE
                owner.ttb = (slot_idx + 1) * self.slot
                owner.redundancy = len(owner.placements) / self.k
            self._cancel(owner.idx, "backup")

    def _step_completions(self, slot_idx: int, finished: list[_Transfer]) -> None:
        for t in finished:
            if t.serial not in self.transfers:
                continue  # cancelled by an earlier completion this slot
            self._drop(t)
            owner = self.peers[t.owner]
            if t.kind in UPLOADS:
                self._place(t.owner, t.frag, t.dst)
                if t.kind == "repair_out":
                    self.out_bytes[slot_idx] += self.f
                else:
                    self._record_backup_progress(owner, slot_idx)
            elif t.kind == "repair_in":
                self.buffered.setdefault(t.owner, set()).add(t.frag)
                self.in_bytes[slot_idx] += self.f
            elif t.kind == "restore":
                if t.src == SERVER:
                    self.out_bytes[slot_idx] += self.f
                owner.downloaded.add(t.frag)
                if len(owner.downloaded) >= self.k:
                    self._finish_restore(owner, slot_idx)

    def _finish_restore(self, owner: _Peer, slot_idx: int) -> None:
        if owner.crash_count == 1:
            owner.ttr = (slot_idx - owner.episode.response_slot + 1) * self.slot
        owner.episode.outcome = "restored"
        owner.episode = None
        self.phase[owner.idx] = COMPLETE if not math.isnan(owner.ttb) else BACKING_UP
        owner.downloaded = set()
        owner.repair_stage = None
        self.buffered.pop(owner.idx, None)
        self._cancel(owner.idx, "restore")

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

        records = [
            PeerRecord(
                peer=p.idx,
                uplink=p.uplink,
                availability=p.avail,
                ttb=p.ttb,
                min_ttb=p.min_ttb,
                ttr=p.ttr,
                min_ttr=p.min_ttr,
                ettr=p.ettr,
                redundancy=p.redundancy,
            )
            for p in self.peers
        ]
        done = [r.redundancy for r in records if not math.isnan(r.redundancy)]
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
