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
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .redundancy import (
    SECONDS_PER_DAY,
    AdaptiveThresholds,
    SearchCeilingError,
    caps_met,
    fixed_redundancy_n,
    kth_best_rate,
    loss_floor,
    median_parallel,
    rate_ettr,
    within_loss_cap,
)
from .trace import AvailabilityMatrix, open_text

SERVER = -1  # pseudo peer index for the cloud server

# peer phase codes, held in Simulation.phase; the two that open uploads come first
BACKING_UP, COMPLETE, RESTORING, LOST = range(4)
NO_REPAIR, REPAIR_DOWN, REPAIR_INJECT, REPAIR_DONE = range(4)  # server repair stages, held in Simulation.repair_stage

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
    """Experiment parameterization; field names double as config-file keys.  The adaptive
    rule's loss_cap, w_days, ttr_floor_days and ttr_factor default as in AdaptiveThresholds."""

    object_size: int = 10 * 2**30
    storage_quota: int = 50 * 2**30
    fragment_size: int = 160 * 2**20
    mean_lifetime_days: float = 90.0
    redundancy_policy: str = ADAPTIVE
    fixed_target: float = 0.99
    loss_cap: float = AdaptiveThresholds.loss_cap
    w_days: float = AdaptiveThresholds.w_days
    parallel_downloads: int = 0  # 0 derives l from bandwidth at use time
    ttr_floor_days: float = AdaptiveThresholds.ttr_floor_days
    ttr_factor: float = AdaptiveThresholds.ttr_factor
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
            if f.type == "int" and not isinstance(value, int):  # a non-finite float failed above
                if not (isinstance(value, numbers.Real) and value == int(value)):
                    raise ValueError(f"{f.name} must be an integer, got {value!r}")
                object.__setattr__(self, f.name, int(value))
        if self.object_size <= 0 or self.fragment_size <= 0:
            raise ValueError("object_size and fragment_size must be positive")
        if self.object_size % self.fragment_size:
            raise ValueError("object_size must be an exact multiple of fragment_size")
        for name in ("delay_mean_days", "repair_timeout_days"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
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
        if self.parallel_downloads < 0:
            raise ValueError("parallel_downloads must be non-negative (0 derives it from bandwidth)")
        for name in ("backup_parallelism", "parallel_downloads"):  # numpy counts them in int64
            if getattr(self, name) >= 2**63:  # a negative one fails a bound check
                raise ValueError(f"{name} must fit in int64, got {getattr(self, name)}")
        if not 0 < self.fixed_target < 1:
            raise ValueError("fixed_target must be in (0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.storage_quota < 0:
            raise ValueError("storage_quota must be non-negative")
        # negated so that a nan fails too
        if not self.bandwidth_median_kbs > 0:
            raise ValueError("bandwidth_median_kbs must be positive")
        if not self.bandwidth_sigma >= 0:
            raise ValueError("bandwidth_sigma must be non-negative")
        self.thresholds()  # the adaptive rule's fields, named by AdaptiveThresholds

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
        """Build a config from string or native values keyed by field name; a
        string that does not parse as its field's number is a ValueError
        naming the key."""
        kwargs = {}
        known = {f.name: f.type for f in fields(cls)}
        for key, value in dict(mapping).items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            if isinstance(value, str) and known[key] in ("int", "float"):
                text, kind = value, "an integer" if known[key] == "int" else "a number"
                try:
                    value = float(text)
                except ValueError:
                    raise ValueError(f"{key} must be {kind}, got {text!r}") from None
                if known[key] == "int" and math.isfinite(value):  # __post_init__ names a non-finite one
                    if not value.is_integer():
                        raise ValueError(f"{key} must be {kind}, got {text!r}")
                    try:
                        value = int(text)  # keeps every digit of a long one
                    except ValueError:
                        value = int(value)  # an integral float spelling, such as 1e10
            kwargs[key] = value
        return cls(**kwargs)

    def to_mapping(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value if not isinstance(value, float) or math.isfinite(value) else str(value)
        return out


def load_config(path) -> dict[str, str]:
    """Read a flat key=value config file; # comments and blank lines allowed,
    and each key at most once."""
    pairs: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open_text(path, ValueError, f"{path}: ") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}: line {lineno}: expected key=value, got {text!r}")
            key, value = (part.strip() for part in text.split("=", 1))
            if key in pairs:
                raise ValueError(f"{path}: line {lineno}: duplicate key {key!r}, first on line {first_line[key]}")
            pairs[key], first_line[key] = value, lineno
    return pairs


def sample_lifetime(mean_days: float, rng) -> float:
    """One exponential lifetime draw, in seconds; inf (or mean 0) means never."""
    if mean_days <= 0 or math.isinf(mean_days):
        return math.inf
    return float(rng.exponential(mean_days * SECONDS_PER_DAY))


def read_bandwidth_cdf(path) -> tuple[np.ndarray, np.ndarray]:
    """Read `quantile,uplink_bytes_per_sec` CSV rows; quantiles must be
    strictly increasing within [0, 1], and uplinks finite, non-negative and
    non-decreasing, so the table is an inverse CDF."""
    quantiles, values = [], []
    with open_text(path, ValueError, f"{path}: ") as fh:
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
            if not 0 <= q <= 1 or (quantiles and q <= quantiles[-1]):
                raise ValueError(f"{path}: line {lineno}: CDF row {text!r}: quantiles must be strictly "
                                 "increasing within [0, 1]")
            if values and v < values[-1]:
                raise ValueError(f"{path}: line {lineno}: CDF row {text!r}: the uplink falls below "
                                 "the previous row's")
            quantiles.append(q)
            values.append(v)
    if not quantiles:
        raise ValueError(f"{path}: empty bandwidth CDF")
    return np.asarray(quantiles), np.asarray(values)


def sample_bandwidth(config: SimConfig, num_peers: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Per-peer (uplink, downlink) in bytes/s; downlink = 4 x uplink.

    Lognormal mode draws uplinks with the configured median (kB/s) and log-space
    sigma; file mode inverse-transform samples the empirical CDF.
    """
    if config.bandwidth_source == "file":
        q, v = read_bandwidth_cdf(config.bandwidth_file)
        uplink = np.interp(rng.random(num_peers), q, v)
    else:
        with np.errstate(over="ignore"):
            uplink = rng.lognormal(math.log(config.bandwidth_median_kbs), config.bandwidth_sigma, num_peers) * 1000.0
        if not np.isfinite(uplink).all():
            raise ValueError(f"bandwidth_median_kbs = {config.bandwidth_median_kbs} and bandwidth_sigma = "
                             f"{config.bandwidth_sigma} draw an uplink too large for a float")
    uplink = np.maximum(uplink, 1e-6)
    with np.errstate(over="ignore"):  # Simulation names a downlink too large for its slot budget
        return uplink, 4.0 * uplink


def _fill(idx, rem, ends, kept, alloc) -> None:
    """Progressive-filling max-min fair allocation for one priority class.

    idx are the class's rows of alloc, where the grants go, sorted stably by
    remaining demand rem, each above _EPS; ends are their source endpoints,
    then their destination endpoints, as indices into kept, the slot's
    endpoint budgets in allocate_slot_transfers' layout.  kept is updated in
    place, so a later class sees only leftovers.

    Each round grants one equal increment, the smallest fair share or
    remaining demand, to every active transfer; a transfer leaves when its
    demand is met, or when a round finds its share at most _EPS (an
    exhausted endpoint), which grants nothing.  Every active transfer has
    been granted the same increments, so a running total is each leaving
    transfer's grant.  A round works on the array of endpoints rather than
    on per-transfer gathers.  The floats are pinned by
    progressive_filling_reference in tests/oracles.py, and stay exact
    because:

    1. fl(x - lam) is monotone in x, so the subtraction and the compactions
       keep rem sorted: the smallest demand is rem[0], and the demands that
       run out in a round are a prefix.
    2. lam = min(min over endpoints of budget / count, rem[0]), with count
       the active transfers at each endpoint, is the float that the min over
       transfers of min(share_src, share_dst, rem) gives: a min is exact.
       The counts are cast to float once per recount; the division casts an
       int count to the same float.
    3. A grant round subtracts lam once per transfer end (count * lam would
       round differently) and clips at zero; the order of the ends does not
       matter, since every subtraction is of the same lam.  It gathers no
       per-transfer share, and checks only rem[0] for an exit.
    4. An active transfer has rem > _EPS, so a round with lam <= _EPS
       freezes exactly the transfers with an endpoint whose share is at most
       _EPS: one compare over the endpoints and one gather over the ends.
    5. An endpoint that no active transfer uses has count 0; a zero budget
       there would give a share of 0/0 = NaN, which must not win the argmin.
       Such endpoints are parked at an infinite budget, the real one kept
       aside for the write-back: the unused ones at the start and the ones a
       freeze empties.  Only a demand exit can empty an endpoint at a zero
       budget unparked, and a round that then finds a NaN share takes the
       min that ignores NaN.

    The caller silences numpy's divide and invalid warnings around the call.
    """
    count = np.bincount(ends, minlength=kept.size).astype(float)
    budget = np.where(count > 0, kept, np.inf)
    share = np.empty(kept.size)
    total = 0.0
    n = idx.size
    while n:
        np.divide(budget, count, out=share)
        lam = share[share.argmin()]
        if lam != lam:  # a 0/0 share (see 5)
            lam = np.fmin.reduce(share)
        if rem[0] < lam:
            lam = rem[0]
        if lam <= _EPS:
            # an endpoint is exhausted; freeze its transfers, park it and retry
            low = share <= _EPS
            hit = low[ends]
            frozen = hit[:n] | hit[n:]
            alloc[idx[frozen]] = total
            keep = ~frozen
            idx, rem, ends = idx[keep], rem[keep], ends[np.concatenate((keep, keep))]
            np.copyto(kept, budget, where=low)
            budget[low] = np.inf
        else:
            total += lam
            rem -= lam
            np.subtract.at(budget, ends, lam)
            np.maximum(budget, 0.0, out=budget)
            if rem[0] > _EPS:
                continue
            j = rem.searchsorted(_EPS, "right")  # the met demands: a prefix (see 1)
            alloc[idx[:j]] = total
            idx, rem, ends = idx[j:], rem[j:], np.concatenate((ends[j:n], ends[n + j:]))
        n = idx.size
        count = np.bincount(ends, minlength=kept.size).astype(float)
    np.copyto(kept, budget, where=budget < np.inf)


def allocate_slot_transfers(src, dst, demand, restore, up_budget, down_budget) -> np.ndarray:
    """Two-pass fluid allocation for one slot.

    The transfers are numpy columns, one entry each: int src and dst (peer
    indices or SERVER), float demand in bytes and bool restore.  Pass 1
    serves restore transfers max-min fairly; pass 2 serves everything else
    (backups, including maintenance uploads, and repair legs) from the
    residual budgets, so no byte of it moves over a link whose restore demand
    is unmet.  The budgets are read, not changed.  Returns per-transfer byte
    grants.

    The slot's endpoints are laid out once as one array of byte budgets,
    which both passes draw down: every uplink, SERVER's uplink, every
    downlink, SERVER's downlink; SERVER's are infinite.  The transfers with
    demand above _EPS are sorted once, stably, by demand, and their ends
    mapped once into that layout; each class takes its rows in that order.
    """
    num_peers = len(up_budget)
    kept = np.concatenate((up_budget, [np.inf], down_budget, [np.inf]))
    demand = np.asarray(demand, dtype=float)
    alloc = np.zeros(demand.size)
    rows = np.flatnonzero(demand > _EPS)
    if rows.size == 0:
        return alloc
    rows = rows[np.argsort(demand[rows], kind="stable")]
    ends = np.array((src[rows], dst[rows]))
    ends[ends == SERVER] = num_peers
    ends[1] += num_peers + 1
    first = restore[rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        for cls in (first, ~first) if first.any() else (slice(None),):
            picked = rows[cls]
            if picked.size:
                _fill(picked, demand[picked], ends[:, cls].ravel(), kept, alloc)
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
        bits = matrix.bits.view(bool)  # the matrix's 0/1 cells, unpacked once and read as flags
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
        self.avail = bits.mean(axis=1)
        self.measured_availability = float(self.avail.mean())
        # most holders an owner places or uploads to: fixed n, or every other peer
        self.fixed_n, self.holder_cap = None, self.P - 1
        if config.redundancy_policy == FIXED:
            try:
                self.fixed_n = self.holder_cap = fixed_redundancy_n(self.k, max(self.measured_availability, 1e-9),
                                                                    config.fixed_target)
            except SearchCeilingError as exc:  # name the settings behind the search's k and target
                raise SearchCeilingError(f"fixed_target = {config.fixed_target} with k = object_size / "
                                         f"fragment_size = {self.k}: {exc}") from None
        self.uplink, self.downlink = sample_bandwidth(config, self.P, self.rng)
        # per-peer byte budgets of one slot; allocate_slot_transfers only reads them
        with np.errstate(over="ignore"):  # an overflow is named below
            self.up_budget = self.uplink * self.slot
            self.down_budget = self.downlink * self.slot
        if not np.isfinite(self.down_budget).all():  # it is 4 x up_budget, so this checks both
            field = "bandwidth_file" if config.bandwidth_source == "file" else "bandwidth_median_kbs"
            raise ValueError(f"{field} = {getattr(config, field)} draws a downlink whose budget over a "
                             f"{self.slot:g}-second slot is too large for a float")
        self.min_ttb = _ideal_elapsed(bits, self.o / self.uplink, self.slot)
        self.min_ttr = self.o / self.downlink
        self.next_crash = np.array([sample_lifetime(config.mean_lifetime_days, self.rng) for _ in range(self.P)])
        # fewest holders, at least k, that may pass the loss cap at the smallest eTTR, o over the largest
        # downlink; the tail rises with eTTR, so with fewer a decision fails it unevaluated
        self.n_floor = loss_floor(self.k, self.o / self.downlink.max().item(), self.thresholds, self.P)
        # report fields, each written once in place; the math.nan object until then
        self.ttb, self.ttr, self.ettr, self.redundancy = ([math.nan] * self.P for _ in range(4))

        # in-flight transfers, one row each in serial order: the KIND .. SERIAL
        # columns of table[:, :used] and the bytes done[:used]; both grow by doubling
        self.table = np.zeros((6, 16), dtype=np.int64)
        self.done = np.zeros(16)
        self.used = 0
        self._serial = 0
        # vectors over peers; phase, back_at and next_crash are the only copy
        self.cols = np.ascontiguousarray(bits.T)  # cols[col] = bits[:, col], the run's one copy of the trace
        self.phase = np.full(self.P, BACKING_UP, dtype=np.int8)
        self.back_at = np.full(self.P, math.inf)  # return time of an absent peer, inf while present
        # placed[owner, peer]: the id of the fragment peer holds for owner, IN_FLIGHT while an
        # upload from owner to peer is open (reserving the pair and a quota slot of peer), or EMPTY
        self.placed = np.full((self.P, self.P), EMPTY, dtype=np.int32)
        self.placed_count = np.zeros(self.P, dtype=int)  # fragments placed per owner
        # cells of each column that are not EMPTY: what the peer stores and receives, against its quota
        self.occupied = np.zeros(self.P, dtype=int)
        self.next_frag = np.zeros(self.P, dtype=int)  # id of each owner's next new fragment
        self.crash_count = np.zeros(self.P, dtype=int)
        # decisions kept on each owner's placements until _forget: stopping and repair risk (-1 undecided)
        self.needs, self.at_risk = np.full((2, self.P), -1, dtype=np.int8)
        self.episode: list[CrashRecord | None] = [None] * self.P  # open crash episode of a restoring peer
        self.downloaded, self.buffered = np.zeros((2, self.P, 16), dtype=bool)  # owner x fragment id flags
        self.repair_stage = np.full(self.P, NO_REPAIR, dtype=np.int8)
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

    def _place(self, owner: int, frag: int, holder: int) -> None:
        """Turn the owner's IN_FLIGHT cell at holder into frag; the quota slot
        its upload reserved stays taken."""
        self.placed[owner, holder] = frag
        self.placed_count[owner] += 1
        self._forget(owner)

    def _parallel(self, owner: int, uplink: np.ndarray) -> int:
        """The owner's restore parallelism l over holders with these uplinks:
        pinned, or derived from their median."""
        return self.thresholds.parallel or median_parallel(self.downlink.item(owner), uplink, self.k)

    def _ettr(self, owner: int) -> float:
        """eTTR of the owner's current placements; nan below k holders.

        The holders' statistics are read from the placed row and the avail and
        uplink vectors, with no range check on each call: avail is a row mean
        of trace bits, so in [0, 1], and sample_bandwidth clamps every uplink
        to at least 1e-6, even from a CDF of zeros."""
        if self.placed_count.item(owner) < self.k:
            return math.nan
        held = self.placed[owner] >= 0
        uplink = self.uplink[held]
        return rate_ettr(self.o, self.downlink.item(owner), kth_best_rate(self.avail[held], uplink, self.k),
                         self._parallel(owner, uplink))

    def _at_risk(self, owner: int) -> bool:
        """True while the owner's placements fail the loss cap over w + eTTR
        (always, below the floor); kept in at_risk, exact as in
        _needs_fragments."""
        at_risk = self.at_risk.item(owner)
        if at_risk < 0:
            n = self.placed_count.item(owner)
            at_risk = self.at_risk[owner] = n < self.n_floor or not within_loss_cap(
                n, self.k, self._ettr(owner), self.thresholds)
        return bool(at_risk)

    def _needs_fragments(self, owner: int) -> bool:
        """True while the owner's policy wants more fragments placed.

        Crash detection is immediate and global, so the owner's view of its
        placements is exact.  The adaptive decision is kept in needs until
        _place, on_crash or _mark_lost changes the placements.  That is
        exact: its other inputs (o, the owner's downlink and minTTR, k, the
        thresholds, each holder's availability and uplink) are run constants.
        Below the floor the loss cap fails, so the answer is True unevaluated.
        """
        n = self.placed_count.item(owner)
        if self.config.redundancy_policy == FIXED:
            return n < self.fixed_n
        needs = self.needs.item(owner)
        if needs < 0:
            needs = self.needs[owner] = n < self.n_floor or not caps_met(
                n, self.k, self._ettr(owner), self.min_ttr.item(owner), self.thresholds)
        return bool(needs)

    def _open(self, kind: int, src, dst, owner, frags) -> None:
        """Append one row per fragment id in frags, in serial order; src, dst
        and owner are each one value or one per id.  The table doubles until
        the rows fit."""
        n = len(frags)
        while self.used + n > self.done.size:
            self.table = np.concatenate((self.table, np.zeros_like(self.table)), axis=1)
            self.done = np.concatenate((self.done, np.zeros_like(self.done)))
        new = self.table[:, self.used:self.used + n]  # a view; one row write each beats one 2-D write
        new[KIND], new[SRC], new[DST], new[OWNER], new[FRAG] = kind, src, dst, owner, frags
        new[SERIAL] = np.arange(self._serial + 1, self._serial + n + 1)
        self.done[self.used:self.used + n] = 0.0
        self.used += n
        self._serial += n

    def _drop(self, rows) -> None:
        """Mark the rows dead, releasing what their uploads reserved."""
        for row in rows:
            kind, _, dst, owner = self.table[:4, row].tolist()
            self.table[KIND, row] = DEAD
            if kind in UPLOADS:
                self.occupied[dst] -= 1
                self.placed[owner, dst] = EMPTY

    def _owned(self, owner: int, kind: int) -> np.ndarray:
        """Rows of the owner's live transfers of this kind, in serial order."""
        return ((self.table[OWNER, :self.used] == owner) & (self.table[KIND, :self.used] == kind)).nonzero()[0]

    def _cancel(self, owner: int, kind: int) -> None:
        self._drop(self._owned(owner, kind))

    def _eligible(self, owners: np.ndarray, online: np.ndarray) -> np.ndarray:
        """One bool row per owner: the online peers, other than the owner,
        that hold none of its fragments, receive none from it and have a free
        quota slot."""
        ok = (self.placed[owners] == EMPTY) & (online & (self.occupied < self.capacity_slots))
        ok[np.arange(owners.size), owners] = False
        return ok

    def _draw(self, items: list, count: int) -> list:
        """Up to count items drawn uniformly without replacement, in draw order;
        the drawn items leave the list."""
        return [items.pop(int(self.rng.integers(len(items)))) for _ in range(min(count, len(items)))]

    def _open_uploads(self, kind: int, owners: np.ndarray, counts: np.ndarray, online: np.ndarray) -> None:
        """For each owner in turn, open up to its count uploads of new
        fragments, each to a peer drawn uniformly from the peers eligible at
        its turn; the rows go to the table in one write.  The owner sends a
        backup, the server a repair_out.

        The owners interact only through the quota: a reservation makes only
        its own owner's cell IN_FLIGHT, and the online flags change only when
        an owner is lost, which no upload does.  So a row of one eligibility
        matrix, taken before the first draw, is its owner's eligible targets
        at its turn, once each peer whose quota a draw fills is cleared from
        the rows of the owners after it.  Within a row, reserving dst makes
        only dst ineligible, so each later draw is from the same list less
        the peers already drawn."""
        ok = self._eligible(owners, online)
        turns, dsts, frags = [], [], []
        for i, (owner, count) in enumerate(zip(owners.tolist(), counts.tolist())):
            drawn = self._draw(ok[i].nonzero()[0].tolist(), count)
            first = self.next_frag.item(owner)
            self.next_frag[owner] = first + len(drawn)
            for dst in drawn:
                self.occupied[dst] += 1
                if self.occupied.item(dst) == self.capacity_slots:
                    ok[i + 1:, dst] = False
            turns += [i] * len(drawn)
            dsts += drawn
            frags += range(first, first + len(drawn))
        if not dsts:
            return
        by = owners[turns]
        self._open(kind, by if kind == BACKUP else SERVER, dsts, by, frags)
        self.placed[by, dsts] = IN_FLIGHT
        while max(frags) >= self.downloaded.shape[1]:  # widen the fragment-id flags by doubling
            self.downloaded, self.buffered = (np.concatenate((m, np.zeros_like(m)), axis=1)
                                              for m in (self.downloaded, self.buffered))

    def _open_downloads(self, kind: int, owner: int, skip: np.ndarray, count: int, online=True) -> list[int]:
        """Open up to count downloads (restore or repair_in) of the owner's placed fragments, drawn uniformly
        in increasing id order from the ids that skip leaves False and online holders hold; return the ids drawn."""
        row = self.placed[owner]
        held = (row >= 0) & online
        holder = np.full(skip.size, EMPTY)
        holder[row[held]] = np.flatnonzero(held)
        drawn = self._draw(np.flatnonzero((holder >= 0) & ~skip).tolist(), count)
        self._open(kind, holder[drawn], owner if kind == RESTORE else SERVER, owner, drawn)
        return drawn

    def _lost_if_unreachable(self, owner: int) -> bool:
        """Mark the owner lost when fewer than k of its fragments are
        reachable (downloaded, placed on peers or buffered); True if so."""
        row = self.placed[owner]
        reach = self.downloaded[owner] | self.buffered[owner]
        reach[row[row >= 0]] = True
        if np.count_nonzero(reach) < self.k:
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

        # every in-flight transfer touching this peer dies with it
        self._drop(np.flatnonzero((self.table[SRC, :self.used] == idx) | (self.table[DST, :self.used] == idx)))
        self.occupied[idx] = 0  # after _drop, which releases the uploads to idx

        phase = int(self.phase[idx])
        if phase != LOST:
            self.downloaded[idx] = False
            self.repair_stage[idx] = NO_REPAIR
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
        self.occupied[held] -= 1
        self.placed[owner, held] = EMPTY
        self.placed_count[owner] = 0
        self._forget(owner)
        self._close_episode(owner, "lost", LOST)
        self._drop(np.flatnonzero(self.table[OWNER, :self.used] == owner))

    def _close_episode(self, owner: int, outcome: str, phase: int) -> None:
        """End the owner's open crash episode with outcome, and its restore and server repair state with it."""
        self.episode[owner].outcome = outcome
        self.episode[owner] = None
        self.phase[owner] = phase
        self.downloaded[owner] = self.buffered[owner] = False
        self.repair_stage[owner] = NO_REPAIR

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
            if self.repair_stage[idx] == NO_REPAIR:
                if self.placed_count[idx] < self.k:
                    self._lost_if_unreachable(idx)
                    continue
                if self._at_risk(idx):
                    self.repair_stage[idx] = REPAIR_DOWN
            if self.repair_stage[idx] == REPAIR_DOWN:
                self._drive_repair_download(idx)
            if self.repair_stage[idx] == REPAIR_INJECT:
                self._drive_repair_injection(idx, slot_idx)

    def _drive_repair_download(self, owner: int) -> None:
        rows = self._owned(owner, REPAIR_IN)
        buffered = np.count_nonzero(self.buffered[owner])
        needed = self.k - buffered - rows.size
        if needed <= 0:
            if buffered >= self.k:
                self.repair_stage[owner] = REPAIR_INJECT
            return
        # an absent owner has downloaded nothing, and its fragments in flight are placed
        if self._lost_if_unreachable(owner):
            return
        skip = self.buffered[owner].copy()
        skip[self.table[FRAG, rows]] = True
        self._open_downloads(REPAIR_IN, owner, skip, needed)

    def _drive_repair_injection(self, owner: int, slot_idx: int) -> None:
        if not self._at_risk(owner):
            self.repair_stage[owner] = REPAIR_DONE
            self._cancel(owner, REPAIR_OUT)
            return
        active = self._owned(owner, REPAIR_OUT).size
        self._open_uploads(REPAIR_OUT, np.array([owner]), np.array([self.config.backup_parallelism - active]),
                           self._online(slot_idx))

    def maintenance_step(self, owners: np.ndarray, slot_idx: int) -> None:
        """Keep upload tasks open while the policy wants more fragments placed,
        for a batch of owners in index order.

        Serves both the initial backup (phase backing_up) and maintenance after
        losses (phase complete); stalled uploads to currently-offline targets
        do not count against the parallelism budget.  An owner's counts read
        only its own placements and backups, which the owners before it in the
        batch leave as they were.
        """
        needs = [self._needs_fragments(owner) for owner in owners.tolist()]
        if not all(needs):
            owners = owners[needs]
            if owners.size == 0:
                return
        online = self._online(slot_idx)
        # a present owner has no repair upload in flight, so under the adaptive
        # cap at least as many cells of its row are EMPTY as it has targets
        self._open_uploads(BACKUP, owners, self._backup_counts(online)[owners], online)

    def _backup_counts(self, online: np.ndarray) -> np.ndarray:
        """How many new backups each owner may open: backup_parallelism less
        its backups to online targets, and at most what holder_cap leaves
        after its placements and backups in flight."""
        kind, _, dst, owner = self.table[:4, :self.used]
        backup = kind == BACKUP
        backups = owner[backup]
        return np.minimum(self.config.backup_parallelism - np.bincount(backups[online[dst[backup]]], minlength=self.P),
                          self.holder_cap - self.placed_count - np.bincount(backups, minlength=self.P))

    def _restore_step(self, owner: int, slot_idx: int) -> None:
        restores = self._owned(owner, RESTORE)
        busy = self.downloaded[owner].copy()  # downloaded or in flight; a restore never fetches a downloaded id
        busy[self.table[FRAG, restores]] = True
        have = np.count_nonzero(busy)
        # busy fragments are reachable, so k of them rule out a loss
        if have < self.k and self._lost_if_unreachable(owner):
            return
        if self.episode[owner].response_slot == slot_idx and self.crash_count[owner] == 1:
            self.ettr[owner] = self._ettr(owner)
        if have >= self.k:
            return
        row = self.placed[owner]
        parallel = self._parallel(owner, self.uplink[row >= 0])
        online = np.append(self._online(slot_idx), True)  # SERVER = -1 reads the appended True
        # each draw moves one placed id from free to busy, so the shortfall is the same after the draws
        short = self.k - have - np.count_nonzero(~busy[row[row >= 0]])
        count = min(parallel - np.count_nonzero(online[self.table[SRC, restores]]), self.k - have)
        busy[self._open_downloads(RESTORE, owner, busy, count, online[:-1])] = True
        # fall back to the server buffer, lowest ids first, when peers cannot supply k fragments
        self._open(RESTORE, SERVER, owner, owner, np.flatnonzero(self.buffered[owner] & ~busy)[:max(short, 0)])

    def _step_tasks(self, slot_idx: int) -> None:
        """Step each present restoring owner and each present owner in the
        trace that may open an upload, in index order; the uploading owners
        between two restoring ones are one maintenance_step batch.  The
        counts are taken once: one owner's step changes no other owner's
        phase, placements or transfers, and backups to targets present and in
        the trace, which stay online through the step, bound an owner's
        active uploads below."""
        present = self.back_at == math.inf
        steady = present & self.cols[slot_idx]
        opens = steady & (self.phase <= COMPLETE) & (self.needs != 0) & (self._backup_counts(steady) > 0)
        restoring = present & (self.phase == RESTORING)
        steps = np.flatnonzero(restoring | opens)
        # a restore step may mark its owner lost, which changes the online
        # flags and frees quota, so a maintenance batch runs between two of them
        first = 0
        for at in np.flatnonzero(restoring[steps]).tolist() + [steps.size]:
            if at > first:
                self.maintenance_step(steps[first:at], slot_idx)
            if at < steps.size:
                self._restore_step(steps.item(at), slot_idx)
            first = at + 1

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
            self.table[KIND, row] = DEAD  # an upload's reservation becomes its placement
            if kind in UPLOADS:
                self._place(owner, frag, dst)
                if kind == REPAIR_OUT:
                    self.out_bytes[slot_idx] += self.f
                else:
                    self._record_backup_progress(owner, slot_idx)
            elif kind == REPAIR_IN:
                self.buffered[owner, frag] = True
                self.in_bytes[slot_idx] += self.f
            elif kind == RESTORE:
                if src == SERVER:
                    self.out_bytes[slot_idx] += self.f
                self.downloaded[owner, frag] = True
                if np.count_nonzero(self.downloaded[owner]) >= self.k:
                    self._finish_restore(owner, slot_idx)
        live = np.flatnonzero(self.table[KIND, :self.used] != DEAD)  # a stable compaction keeps serial order
        self.table[:, :live.size], self.done[:live.size] = self.table[:, live], self.done[live]
        self.used = live.size

    def _finish_restore(self, owner: int, slot_idx: int) -> None:
        if self.crash_count[owner] == 1:
            self.ttr[owner] = (slot_idx - self.episode[owner].response_slot + 1) * self.slot
        self._close_episode(owner, "restored", COMPLETE if not math.isnan(self.ttb[owner]) else BACKING_UP)
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
            self.buf_bytes[slot_idx] = np.count_nonzero(self.buffered) * self.f

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
