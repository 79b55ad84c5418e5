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
    InsufficientHoldersError,
    backup_complete,
    data_loss_probability,
    default_parallel,
    estimate_ttr,
    fixed_redundancy_n,
)
from .trace import AvailabilityMatrix

SERVER = -1  # pseudo peer index for the cloud server

BACKING_UP = "backing_up"
COMPLETE = "complete"
RESTORING = "restoring"
LOST = "lost"

IMMEDIATE = "immediate"
DELAYED = "delayed"
DELAYED_ASSISTED = "delayed_assisted"

FIXED = "fixed"
ADAPTIVE = "adaptive"

_EPS = 1e-3  # bytes; transfer demands are in the 1e8 range


@dataclass(frozen=True)
class SimConfig:
    """Experiment parameterization; field names double as config-file keys."""

    object_size: int = 10 * 2**30
    storage_quota: int = 50 * 2**30
    fragment_size: int = 160 * 2**20
    slot_seconds: float = 3600.0
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
    audit: bool = False

    def __post_init__(self):
        if self.object_size <= 0 or self.fragment_size <= 0:
            raise ValueError("object_size and fragment_size must be positive")
        if self.object_size % self.fragment_size:
            raise ValueError("object_size must be an exact multiple of fragment_size")
        if self.slot_seconds <= 0 or self.delay_mean_days <= 0 or self.repair_timeout_days <= 0:
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

    @property
    def k(self) -> int:
        return self.object_size // self.fragment_size

    @property
    def crash_mean_seconds(self) -> float:
        days = self.mean_lifetime_days
        if days == 0 or math.isinf(days):
            return math.inf
        return days * SECONDS_PER_DAY

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
            if isinstance(value, str):
                kind = known[key]
                if kind == "int":
                    value = int(float(value))
                elif kind == "float":
                    value = float(value)
                elif kind == "bool":
                    if value.lower() not in ("true", "false", "1", "0", "yes", "no"):
                        raise ValueError(f"bad boolean for {key!r}: {value!r}")
                    value = value.lower() in ("true", "1", "yes")
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
    strictly increasing within [0, 1]."""
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
    """
    n = len(demand)
    alloc = np.zeros(n)
    if n == 0:
        return alloc
    src = np.asarray(src)
    dst = np.asarray(dst)
    remaining = np.asarray(demand, dtype=float).copy()
    num_peers = len(res_up)
    active = remaining > _EPS
    # endpoints with an exhausted budget freeze their transfers up front
    while np.any(active):
        s, d = src[active], dst[active]
        up_count = np.bincount(s[s >= 0], minlength=num_peers)
        down_count = np.bincount(d[d >= 0], minlength=num_peers)
        share = np.full(n, np.inf)
        has_src = active & (src >= 0)
        has_dst = active & (dst >= 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            share[has_src] = res_up[src[has_src]] / up_count[src[has_src]]
            share[has_dst] = np.minimum(
                share[has_dst], res_down[dst[has_dst]] / down_count[dst[has_dst]]
            )
        step = np.minimum(share, remaining)
        lam = step[active].min()
        if lam <= _EPS:
            # an endpoint is exhausted; freeze its transfers and retry
            starved = active & (step <= _EPS)
            active &= ~starved
            continue
        grant = np.where(active, lam, 0.0)
        alloc += grant
        remaining -= grant
        np.subtract.at(res_up, src[active & (src >= 0)], lam)
        np.subtract.at(res_down, dst[active & (dst >= 0)], lam)
        np.maximum(res_up, 0.0, out=res_up)
        np.maximum(res_down, 0.0, out=res_down)
        active &= remaining > _EPS
    return alloc


def allocate_slot_transfers(transfers, up_budget, down_budget) -> np.ndarray:
    """Two-pass fluid allocation for one slot.

    transfers: sequence of (src, dst, demand_bytes, is_restore) with peer
    indices or SERVER.  Pass 1 serves restore transfers max-min fairly; pass 2
    serves everything else from the residual budgets, so no backup or
    maintenance byte moves over a link whose restore demand is unmet.
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
    kind: str  # restore | backup | maintenance | repair_in | repair_out
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
    phase: str = BACKING_UP
    stored: dict = field(default_factory=dict)  # owner idx -> fragment id
    placements: dict = field(default_factory=dict)  # own fragment id -> holder idx
    next_frag: int = 0
    next_crash: float = math.inf
    absent_until: float | None = None
    crash_count: int = 0
    downloaded: set = field(default_factory=set)
    restore_start_slot: int | None = None
    repair_stage: str | None = None
    ttb: float = math.nan
    ttr: float = math.nan
    ettr: float = math.nan
    redundancy: float = math.nan
    episode: "CrashRecord | None" = None


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
    audit: dict | None = None


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
        self.matrix = matrix
        self.bits = matrix.bits.astype(bool)
        self.P = matrix.num_peers
        self.T = matrix.num_slots
        self.slot = config.slot_seconds
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
        mean_seconds = config.crash_mean_seconds
        if math.isfinite(mean_seconds):
            draws = self.rng.exponential(mean_seconds, self.P)
            for peer, t in zip(self.peers, draws):
                peer.next_crash = float(t)

        self.transfers: list[_Transfer] = []
        self._serial = 0
        self.buffered: dict[int, set[int]] = {}  # owner -> buffered fragment ids on the server
        self.crashes: list[CrashRecord] = []
        self.out_bytes = np.zeros(self.T)
        self.in_bytes = np.zeros(self.T)
        self.buf_bytes = np.zeros(self.T)
        self.audit = None
        if config.audit:
            self.audit = {
                "sent": np.zeros((self.P, self.T)),
                "received": np.zeros((self.P, self.T)),
                "slot_transfers": [],  # per slot: list of (kind, src, dst, demand, granted)
            }

    # -- helpers ---------------------------------------------------------

    def _online(self, idx: int, col: int) -> bool:
        peer = self.peers[idx]
        if peer.absent_until is not None:
            return False
        if peer.phase == RESTORING:
            return True  # victims remain online for the duration of restore
        return bool(self.bits[idx, col])

    def _profiles(self, holder_idxs) -> list[tuple[float, float]]:
        return [(self.peers[h].avail, self.peers[h].uplink) for h in holder_idxs]

    def _needs_fragments(self, owner: _Peer) -> bool:
        # crash detection is immediate and global, so the owner's view of its
        # placements is exact
        holders = owner.placements.values()
        if self.config.redundancy_policy == FIXED:
            return len(holders) < self.fixed_n
        return not backup_complete(
            self.o, owner.downlink, owner.min_ttr, self._profiles(holders), self.k, self.thresholds
        )

    def _new_transfer(self, kind, src, dst, owner, frag) -> _Transfer:
        self._serial += 1
        t = _Transfer(self._serial, kind, src, dst, owner, frag)
        self.transfers.append(t)
        return t

    def _drop_transfers(self, keep) -> None:
        self.transfers = [t for t in self.transfers if keep(t)]

    def _incoming(self) -> dict[int, int]:
        """Reserved incoming fragment slots per destination peer."""
        counts: dict[int, int] = {}
        for t in self.transfers:
            if t.kind in ("backup", "maintenance", "repair_out") and t.dst != SERVER:
                counts[t.dst] = counts.get(t.dst, 0) + 1
        return counts

    def _receiving_pairs(self) -> set[tuple[int, int]]:
        return {
            (t.owner, t.dst)
            for t in self.transfers
            if t.kind in ("backup", "maintenance", "repair_out")
        }

    def _eligible_targets(self, owner_idx: int, col: int, incoming, receiving) -> list[int]:
        out = []
        for i in range(self.P):
            if i == owner_idx:
                continue
            peer = self.peers[i]
            if peer.absent_until is not None or not self._online(i, col):
                continue
            if owner_idx in peer.stored or (owner_idx, i) in receiving:
                continue
            if len(peer.stored) + incoming.get(i, 0) >= self.capacity_slots:
                continue
            out.append(i)
        return out

    def _pick(self, candidates: list[int]) -> int:
        return candidates[int(self.rng.integers(len(candidates)))]

    def _reachable(self, owner: _Peer) -> set[int]:
        reach = set(owner.downloaded)
        reach.update(owner.placements.keys())
        reach.update(self.buffered.get(owner.idx, ()))
        return reach

    # -- crash handling --------------------------------------------------

    def on_crash(self, idx: int, now: float, slot_idx: int) -> None:
        """Wipe the peer, notify owners whose fragments it stored, open or
        extend its crash episode, and schedule its return per the response
        mode."""
        peer = self.peers[idx]
        peer.crash_count += 1
        config = self.config

        if config.response != IMMEDIATE:
            peer.absent_until = now + float(self.rng.exponential(config.delay_mean_days * SECONDS_PER_DAY))
        # fragments this peer stored for others are destroyed; detection is
        # immediate and global, so owners see the drop at once
        for owner_idx, frag in peer.stored.items():
            self.peers[owner_idx].placements.pop(frag, None)
        peer.stored = {}

        # every in-flight transfer touching this peer dies with it
        self._drop_transfers(lambda t: t.src != idx and t.dst != idx)

        had_data = peer.phase in (BACKING_UP, COMPLETE, RESTORING)
        was_restoring = peer.phase == RESTORING
        if had_data:
            peer.downloaded = set()
            peer.restore_start_slot = None
            peer.repair_stage = None
            if was_restoring and peer.episode is not None:
                # a re-crash during recovery extends the open episode
                peer.episode.response_slot = None
            if not was_restoring:
                peer.episode = CrashRecord(
                    peer=idx,
                    crash_slot=slot_idx,
                    response_slot=None,
                    outcome="pending",
                    unfinished=peer.phase != COMPLETE,
                    unavoidable=now < peer.min_ttb,
                )
                self.crashes.append(peer.episode)
            if len(self._reachable(peer)) < self.k:
                self._mark_lost(peer)
            else:
                peer.phase = RESTORING

        # lifetime is memoryless: restart at crash (immediate) or at return
        mean_seconds = config.crash_mean_seconds
        if math.isfinite(mean_seconds):
            base = now if peer.absent_until is None else peer.absent_until
            peer.next_crash = base + float(self.rng.exponential(mean_seconds))
        else:
            peer.next_crash = math.inf

        if peer.phase == RESTORING and peer.absent_until is None:
            peer.restore_start_slot = slot_idx
            if peer.episode is not None and peer.episode.response_slot is None:
                peer.episode.response_slot = slot_idx

    def _mark_lost(self, owner: _Peer) -> None:
        for frag, holder in list(owner.placements.items()):
            self.peers[holder].stored.pop(owner.idx, None)
        owner.placements = {}
        owner.downloaded = set()
        owner.repair_stage = None
        self.buffered.pop(owner.idx, None)
        owner.phase = LOST
        if owner.episode is not None:
            owner.episode.outcome = "lost"
            owner.episode = None
        self._drop_transfers(lambda t: t.owner != owner.idx)

    # -- per-slot steps --------------------------------------------------

    def _step_crashes(self, slot_idx: int, now: float) -> None:
        slot_end = now + self.slot
        for idx in range(self.P):
            if self.peers[idx].next_crash < slot_end and self.peers[idx].absent_until is None:
                self.on_crash(idx, now, slot_idx)

    def _step_returns(self, slot_idx: int, now: float) -> None:
        for peer in self.peers:
            if peer.absent_until is not None and peer.absent_until <= now:
                peer.absent_until = None
                if peer.phase == RESTORING:
                    peer.restore_start_slot = slot_idx
                    if peer.episode is not None and peer.episode.response_slot is None:
                        peer.episode.response_slot = slot_idx
                    # injection was for the absence; the owner takes over now
                    self._drop_transfers(
                        lambda t: not (t.kind == "repair_out" and t.owner == peer.idx)
                    )
                    if peer.repair_stage == "inject":
                        peer.repair_stage = "done"

    def assisted_repair_check(self, slot_idx: int, now: float) -> None:
        """Trigger and drive server-side repair for absent owners past the
        timeout whose loss probability exceeds the cap."""
        if self.config.response != DELAYED_ASSISTED:
            return
        timeout = self.config.repair_timeout_days * SECONDS_PER_DAY
        for owner in self.peers:
            if owner.phase != RESTORING or owner.absent_until is None or owner.episode is None:
                continue
            crash_time = owner.episode.crash_slot * self.slot
            if now - crash_time < timeout:
                continue
            if owner.repair_stage is None:
                if len(owner.placements) < self.k:
                    if len(self._reachable(owner)) < self.k:
                        self._mark_lost(owner)
                    continue
                try:
                    ettr = estimate_ttr(
                        self.o, owner.downlink, self._profiles(owner.placements.values()), self.k,
                        self.thresholds.parallel,
                    )
                except InsufficientHoldersError:
                    continue
                t_days = self.config.w_days + ettr / SECONDS_PER_DAY
                if math.isinf(ettr):
                    risk = 1.0
                else:
                    risk = data_loss_probability(
                        len(owner.placements), self.k, t_days, self.thresholds.mean_lifetime_days
                    )
                if risk > self.config.loss_cap:
                    owner.repair_stage = "down"
            if owner.repair_stage == "down":
                self._drive_repair_download(owner, slot_idx)
            if owner.repair_stage == "inject":
                self._drive_repair_injection(owner, slot_idx)

    def _drive_repair_download(self, owner: _Peer, slot_idx: int) -> None:
        buffered = self.buffered.setdefault(owner.idx, set())
        in_flight = {t.frag for t in self.transfers if t.kind == "repair_in" and t.owner == owner.idx}
        needed = self.k - len(buffered) - len(in_flight)
        if needed <= 0:
            if len(buffered) >= self.k:
                owner.repair_stage = "inject"
            return
        candidates = sorted(
            frag
            for frag, holder in owner.placements.items()
            if frag not in buffered and frag not in in_flight
        )
        if len(buffered) + len(in_flight) + len(candidates) < self.k:
            if len(self._reachable(owner)) < self.k:
                self._mark_lost(owner)
            return
        for _ in range(needed):
            if not candidates:
                break
            frag = candidates.pop(int(self.rng.integers(len(candidates))))
            self._new_transfer("repair_in", owner.placements[frag], SERVER, owner.idx, frag)

    def _drive_repair_injection(self, owner: _Peer, slot_idx: int) -> None:
        try:
            ettr = estimate_ttr(
                self.o, owner.downlink, self._profiles(owner.placements.values()), self.k,
                self.thresholds.parallel,
            )
            t_days = self.config.w_days + ettr / SECONDS_PER_DAY
            if math.isfinite(ettr) and data_loss_probability(
                len(owner.placements), self.k, t_days, self.thresholds.mean_lifetime_days
            ) <= self.config.loss_cap:
                owner.repair_stage = "done"
                self._drop_transfers(lambda t: not (t.kind == "repair_out" and t.owner == owner.idx))
                return
        except InsufficientHoldersError:
            pass
        active = sum(1 for t in self.transfers if t.kind == "repair_out" and t.owner == owner.idx)
        incoming = self._incoming()
        receiving = self._receiving_pairs()
        col = slot_idx
        while active < self.config.backup_parallelism:
            targets = self._eligible_targets(owner.idx, col, incoming, receiving)
            if not targets:
                break
            dst = self._pick(targets)
            frag = owner.next_frag
            owner.next_frag += 1
            self._new_transfer("repair_out", SERVER, dst, owner.idx, frag)
            incoming[dst] = incoming.get(dst, 0) + 1
            receiving.add((owner.idx, dst))
            active += 1

    def maintenance_step(self, owner: _Peer, slot_idx: int, incoming, receiving) -> None:
        """Keep upload tasks open while the policy wants more fragments placed.

        Serves both the initial backup (phase backing_up) and maintenance after
        losses (phase complete); stalled uploads to currently-offline targets
        do not count against the parallelism budget.
        """
        if not self._needs_fragments(owner):
            return
        active = sum(
            1
            for t in self.transfers
            if t.src == owner.idx
            and t.kind in ("backup", "maintenance")
            and self._online(t.dst, slot_idx)
        )
        kind = "backup" if owner.phase == BACKING_UP else "maintenance"
        if self.config.redundancy_policy == FIXED:
            in_flight = sum(
                1 for t in self.transfers if t.src == owner.idx and t.kind in ("backup", "maintenance")
            )
            budget = self.fixed_n - len(owner.placements) - in_flight
        else:
            budget = self.config.backup_parallelism
        while active < self.config.backup_parallelism and budget > 0:
            targets = self._eligible_targets(owner.idx, slot_idx, incoming, receiving)
            if not targets:
                break
            dst = self._pick(targets)
            frag = owner.next_frag
            owner.next_frag += 1
            self._new_transfer(kind, owner.idx, dst, owner.idx, frag)
            incoming[dst] = incoming.get(dst, 0) + 1
            receiving.add((owner.idx, dst))
            active += 1
            budget -= 1

    def _restore_step(self, owner: _Peer, slot_idx: int) -> None:
        if len(self._reachable(owner)) < self.k:
            self._mark_lost(owner)
            return
        if owner.restore_start_slot == slot_idx and math.isnan(owner.ettr) and owner.crash_count == 1:
            try:
                owner.ettr = estimate_ttr(
                    self.o, owner.downlink, self._profiles(owner.placements.values()), self.k,
                    self.thresholds.parallel,
                )
            except InsufficientHoldersError:
                owner.ettr = math.nan
        in_flight = {t.frag for t in self.transfers if t.kind == "restore" and t.owner == owner.idx}
        have = len(owner.downloaded) + len(in_flight)
        if have >= self.k:
            return
        l = self.thresholds.parallel or default_parallel(
            owner.downlink, [self.peers[h].uplink for h in owner.placements.values()] or [owner.downlink], self.k
        )
        active_online = sum(
            1
            for t in self.transfers
            if t.kind == "restore" and t.owner == owner.idx
            and (t.src == SERVER or self._online(t.src, slot_idx))
        )
        candidates = sorted(
            frag
            for frag, holder in owner.placements.items()
            if frag not in owner.downloaded and frag not in in_flight and self._online(holder, slot_idx)
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
            peer_obtainable = {
                frag for frag in owner.placements
                if frag not in owner.downloaded and frag not in in_flight
            }
            spare = sorted(buffered - owner.downloaded - in_flight)
            while have + len(peer_obtainable) < self.k and spare:
                frag = spare.pop(0)
                self._new_transfer("restore", SERVER, owner.idx, owner.idx, frag)
                in_flight.add(frag)
                have += 1

    def _step_tasks(self, slot_idx: int) -> None:
        incoming = self._incoming()
        receiving = self._receiving_pairs()
        for owner in self.peers:
            if owner.absent_until is not None:
                continue
            if owner.phase == RESTORING:
                self._restore_step(owner, slot_idx)
            elif owner.phase in (BACKING_UP, COMPLETE) and self.bits[owner.idx, slot_idx]:
                self.maintenance_step(owner, slot_idx, incoming, receiving)

    def _step_allocate(self, slot_idx: int) -> None:
        eligible = []
        specs = []
        for t in self.transfers:
            src_ok = t.src == SERVER or self._online(t.src, slot_idx)
            dst_ok = t.dst == SERVER or self._online(t.dst, slot_idx)
            if src_ok and dst_ok and t.done < self.f - _EPS:
                eligible.append(t)
                specs.append((t.src, t.dst, self.f - t.done, t.kind == "restore"))
        if not specs:
            if self.audit is not None:
                self.audit["slot_transfers"].append([])
            return
        up = np.array([p.uplink * self.slot for p in self.peers])
        down = np.array([p.downlink * self.slot for p in self.peers])
        grants = allocate_slot_transfers(specs, up, down)
        for t, g in zip(eligible, grants):
            t.done += float(g)
        if self.audit is not None:
            for t, g in zip(eligible, grants):
                if t.src != SERVER:
                    self.audit["sent"][t.src, slot_idx] += g
                if t.dst != SERVER:
                    self.audit["received"][t.dst, slot_idx] += g
            self.audit["slot_transfers"].append(
                [(t.kind, t.src, t.dst, s[2], float(g)) for t, g, s in zip(eligible, grants, specs)]
            )

    def _record_backup_progress(self, owner: _Peer, slot_idx: int) -> None:
        if not self._needs_fragments(owner):
            if owner.phase == BACKING_UP:
                owner.phase = COMPLETE
                if math.isnan(owner.ttb):
                    owner.ttb = (slot_idx + 1) * self.slot
                    owner.redundancy = len(owner.placements) / self.k
            self._drop_transfers(
                lambda t: not (t.src == owner.idx and t.kind in ("backup", "maintenance"))
            )

    def _step_completions(self, slot_idx: int) -> None:
        finished = [t for t in self.transfers if t.done >= self.f - _EPS]
        finished.sort(key=lambda t: t.serial)
        for t in finished:
            if t not in self.transfers:
                continue  # cancelled by an earlier completion this slot
            self.transfers.remove(t)
            owner = self.peers[t.owner]
            if t.kind in ("backup", "maintenance"):
                self.peers[t.dst].stored[t.owner] = t.frag
                owner.placements[t.frag] = t.dst
                self._record_backup_progress(owner, slot_idx)
            elif t.kind == "repair_out":
                self.peers[t.dst].stored[t.owner] = t.frag
                owner.placements[t.frag] = t.dst
                self.out_bytes[slot_idx] += self.f
            elif t.kind == "repair_in":
                self.buffered.setdefault(t.owner, set()).add(t.frag)
                self.in_bytes[slot_idx] += self.f
                if len(self.buffered[t.owner]) >= self.k and owner.repair_stage == "down":
                    owner.repair_stage = "inject"
            elif t.kind == "restore":
                if t.src == SERVER:
                    self.out_bytes[slot_idx] += self.f
                owner.downloaded.add(t.frag)
                if len(owner.downloaded) >= self.k and owner.phase == RESTORING:
                    self._finish_restore(owner, slot_idx)

    def _finish_restore(self, owner: _Peer, slot_idx: int) -> None:
        if owner.episode is not None:
            owner.episode.outcome = "restored"
            owner.episode = None
        if math.isnan(owner.ttr) and owner.crash_count == 1 and owner.restore_start_slot is not None:
            owner.ttr = (slot_idx - owner.restore_start_slot + 1) * self.slot
        owner.phase = COMPLETE if not math.isnan(owner.ttb) else BACKING_UP
        owner.downloaded = set()
        owner.restore_start_slot = None
        owner.repair_stage = None
        self.buffered.pop(owner.idx, None)
        self._drop_transfers(lambda t: not (t.kind == "restore" and t.owner == owner.idx))

    # -- run -------------------------------------------------------------

    def run(self) -> SimReport:
        for slot_idx in range(self.T):
            now = slot_idx * self.slot
            self._step_crashes(slot_idx, now)
            self._step_returns(slot_idx, now)
            self.assisted_repair_check(slot_idx, now)
            self._step_tasks(slot_idx)
            self._step_allocate(slot_idx)
            self._step_completions(slot_idx)
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
            audit=self.audit,
        )


def run(config: SimConfig, matrix: AvailabilityMatrix) -> SimReport:
    """Simulate the full system over the matrix horizon; deterministic under
    (config, matrix, config.seed)."""
    return Simulation(config, matrix).run()
