"""Cycle-driven flow-level simulator for inter-DC multicast.

Time advances in controller cycles of ``ΔT`` seconds (3 s by default, the
paper's update interval). Each cycle:

1. the failure schedule is applied;
2. latency-sensitive background traffic on every WAN link is sampled;
3. the *strategy* (BDS's controller or one of the decentralized baselines)
   inspects a :class:`ClusterView` and emits :class:`TransferDirective`s —
   single-hop block transfers between servers, optionally rate-capped;
4. rates are resolved — controller-assigned rates are clipped to capacity,
   baseline flows get max-min fair shares;
5. flows progress by ``rate × ΔT`` bytes, delivering blocks whose transfer
   completes, updating the possession index and all completion metrics.

Multi-hop overlay paths (store-and-forward) emerge across cycles: once a
block lands on an intermediate server it becomes a candidate source in the
next cycle, exactly like BDS's per-cycle choice of ``w_b,s``.
"""

from __future__ import annotations

import bisect
import itertools
import time as _time
from collections import Counter, abc
from dataclasses import FrozenInstanceError, dataclass, field, replace
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.net.background import BackgroundTraffic, delay_inflation
from repro.net.candidates import CandidateTable
from repro.net.cycle_cache import CycleCache, first_cycle_at_or_after
from repro.net.failures import FailureSchedule
from repro.net.flow import (
    FlowKernelStats,
    FlowRows,
    clip_rates_to_capacity,
    max_min_fair_rates,
)
from repro.net.topology import ResourceKey, Topology
from repro.overlay.blocks import Block
from repro.overlay.job import MulticastJob
from repro.overlay.store import PossessionIndex, PossessionMatrix, PossessionReader
from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import check_fraction, check_positive

BlockId = Tuple[str, int]


class TransferDirective:
    """One single-hop transfer order: send blocks of ``job_id`` from src to dst.

    ``rate_cap`` (bytes/s) is set by centralized strategies (BDS) and left
    ``None`` by decentralized ones, whose flows then share bandwidth
    max-min fairly. Blocks are transferred in the listed order, resuming any
    partial progress the destination already accumulated.

    The block list is held one way: as **job-relative block indices**,
    ``block_indices`` — the segment ``column[lo:hi]`` of an int array the
    router cuts all of a cycle's directives from (:meth:`from_segment`),
    and what the simulator gathers possession and sizes with. Indices do
    not depend on how a possession matrix numbers its block columns. The
    constructor takes ``(job_id, index)``
    ids and converts them at once; an id of another job is a
    ``ValueError``. ``block_ids`` is the id tuple, derived on first read
    and cached.
    """

    __slots__ = (
        "job_id",
        "src_server",
        "dst_server",
        "rate_cap",
        "_column",
        "_lo",
        "_hi",
        "_block_ids",
    )

    def __init__(
        self,
        job_id: str,
        block_ids: Sequence[BlockId],
        src_server: str,
        dst_server: str,
        rate_cap: Optional[float] = None,
    ) -> None:
        block_ids = tuple(block_ids)
        foreign = [bid for bid in block_ids if bid[0] != job_id]
        if foreign:
            raise ValueError(
                f"a directive of job {job_id!r} names blocks of other jobs: "
                f"{foreign!r}"
            )
        column = np.array([bid[1] for bid in block_ids], dtype=np.int64)
        self._init(job_id, column, 0, len(column), src_server, dst_server, rate_cap)

    @classmethod
    def from_indices(
        cls,
        job_id: str,
        block_indices: np.ndarray,
        src_server: str,
        dst_server: str,
        rate_cap: Optional[float] = None,
    ) -> "TransferDirective":
        """A directive over blocks ``(job_id, i) for i in block_indices``."""
        return cls.from_segment(
            job_id, block_indices, 0, len(block_indices),
            src_server, dst_server, rate_cap,
        )

    @classmethod
    def from_segment(
        cls,
        job_id: str,
        column: np.ndarray,
        lo: int,
        hi: int,
        src_server: str,
        dst_server: str,
        rate_cap: Optional[float] = None,
    ) -> "TransferDirective":
        """A directive over blocks ``(job_id, i) for i in column[lo:hi]``.

        ``column`` must be a 1-D int64 array. It is kept by reference and
        never written: the router cuts all of a cycle's directives from
        one column, and a (column, lo, hi) triple is smaller than a view.
        """
        self = object.__new__(cls)
        self._init(job_id, column, lo, hi, src_server, dst_server, rate_cap)
        return self

    def _init(self, job_id, column, lo, hi, src_server, dst_server, rate_cap):
        if hi <= lo:
            raise ValueError("a directive needs at least one block")
        if src_server == dst_server:
            raise ValueError("directive endpoints must differ")
        if rate_cap is not None and rate_cap < 0:
            raise ValueError("rate_cap must be >= 0")
        _set_job_id(self, job_id)
        _set_src_server(self, src_server)
        _set_dst_server(self, dst_server)
        _set_rate_cap(self, rate_cap)
        _set_column(self, column)
        _set_lo(self, lo)
        _set_hi(self, hi)
        _set_block_ids(self, None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def block_ids(self) -> Tuple[BlockId, ...]:
        ids = self._block_ids
        if ids is None:
            job_id = self.job_id
            ids = tuple((job_id, i) for i in self.block_indices.tolist())
            _set_block_ids(self, ids)
        return ids

    @property
    def block_indices(self) -> np.ndarray:
        return self._column[self._lo : self._hi]

    def with_rate_cap(self, rate_cap: Optional[float]) -> "TransferDirective":
        """This directive with another ``rate_cap`` (block list shared)."""
        return TransferDirective.from_segment(
            self.job_id, self._column, self._lo, self._hi,
            self.src_server, self.dst_server, rate_cap,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TransferDirective:
            return NotImplemented
        return (
            self.job_id == other.job_id
            and self.src_server == other.src_server
            and self.dst_server == other.dst_server
            and self.rate_cap == other.rate_cap
            and np.array_equal(self.block_indices, other.block_indices)
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.job_id,
                self.block_ids,
                self.src_server,
                self.dst_server,
                self.rate_cap,
            )
        )

    def __repr__(self) -> str:
        return (
            f"TransferDirective(job_id={self.job_id!r}, "
            f"block_ids={self.block_ids!r}, src_server={self.src_server!r}, "
            f"dst_server={self.dst_server!r}, rate_cap={self.rate_cap!r})"
        )


# The slots' own setters fill a directive past the frozen ``__setattr__``,
# without ``object.__setattr__``'s lookup of the name.
(_set_job_id, _set_src_server, _set_dst_server, _set_rate_cap, _set_column,
 _set_lo, _set_hi, _set_block_ids) = (
    TransferDirective.__dict__[name].__set__ for name in TransferDirective.__slots__)


@dataclass(eq=False, repr=False, slots=True)
class DirectiveBatch(abc.Sequence):
    """One decide's directives as columns: a ``Sequence[TransferDirective]``.

    Directive ``i`` sends the blocks ``column[bounds[i]:bounds[i + 1]]``
    (job-relative indices, one int64 column for the whole batch, rows
    directive-major) of job ``job_ids[i]`` from server id ``src[i]`` to
    server id ``dst[i]`` at ``caps[i]`` (``None``: uncapped). Ids index
    ``names``, the possession matrix's ``server_names`` — extended by
    :meth:`pack` with any name the matrix lacks, which validation then
    rejects. The router emits one; the sharded controller concatenates
    and reconciles them; the simulator validates, routes and clips them
    as columns. :class:`TransferDirective` objects are built (once, all
    rows) only when something indexes, iterates or compares the batch.
    """

    column: np.ndarray
    bounds: List[int]
    job_ids: List[str]
    src: List[int]
    dst: List[int]
    caps: List[Optional[float]]
    names: Sequence[str]
    _objects: Optional[List[TransferDirective]] = None

    @classmethod
    def pack(
        cls, directives: Iterable[TransferDirective], matrix: PossessionMatrix
    ) -> "DirectiveBatch":
        """``directives`` in ``matrix``'s server ids; a batch already in
        them is returned as is. The objects are kept, as the batch's
        materialized form."""
        names = matrix.server_names
        if isinstance(directives, DirectiveBatch) and directives.names is names:
            return directives
        objects = list(directives)
        ids = dict(matrix.server_ids)
        src = [ids.setdefault(d.src_server, len(ids)) for d in objects]
        dst = [ids.setdefault(d.dst_server, len(ids)) for d in objects]
        parts = [d.block_indices for d in objects]
        return cls(
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64),
            [0, *itertools.accumulate(len(part) for part in parts)],
            [d.job_id for d in objects],
            src,
            dst,
            [d.rate_cap for d in objects],
            names if len(ids) == len(names) else list(ids),
            objects,
        )

    @classmethod
    def concat(
        cls, parts: Sequence[Sequence[TransferDirective]], matrix: PossessionMatrix
    ) -> "DirectiveBatch":
        """The directives of ``parts`` in order, as one batch (the one
        non-empty part itself)."""
        parts = [cls.pack(part, matrix) for part in parts if len(part)]
        if len(parts) <= 1:
            return parts[0] if parts else cls.pack((), matrix)
        bounds = [0]
        for part in parts:
            shift = bounds[-1]
            bounds += [b + shift for b in part.bounds[1:]]
        return cls(
            np.concatenate([part.column for part in parts]),
            bounds,
            [j for part in parts for j in part.job_ids],
            [s for part in parts for s in part.src],
            [t for part in parts for t in part.dst],
            [c for part in parts for c in part.caps],
            parts[0].names,
        )

    def keep(
        self, flags: Sequence[bool], column: np.ndarray, bounds: List[int]
    ) -> "DirectiveBatch":
        """The directives whose flag is set, over their rows ``column``
        cut at ``bounds``."""
        return DirectiveBatch(column, bounds, *(
            list(itertools.compress(values, flags))
            for values in (self.job_ids, self.src, self.dst, self.caps)
        ), self.names)

    def __len__(self) -> int:
        return len(self.job_ids)

    def _materialized(self) -> List[TransferDirective]:
        if self._objects is None:
            names, column, bounds = self.names, self.column, self.bounds
            self._objects = [
                TransferDirective.from_segment(
                    job_id, column, bounds[i], bounds[i + 1],
                    names[s], names[t], cap,
                )
                for i, (job_id, s, t, cap) in enumerate(
                    zip(self.job_ids, self.src, self.dst, self.caps)
                )
            ]
        return self._objects

    def __getitem__(self, item):
        return self._materialized()[item]

    def __iter__(self) -> Iterator[TransferDirective]:
        return iter(self._materialized())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple, DirectiveBatch)):
            return self._materialized() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"DirectiveBatch({self._materialized()!r})"


@dataclass
class SimConfig:
    """Simulation knobs.

    ``safety_threshold`` is the §5.2 limit: strategies that declare
    ``respects_safety_threshold`` get at most ``threshold × capacity −
    online traffic`` of each WAN link; others may burst up to the full
    residual capacity (and cause the Fig. 6 interference incidents).
    """

    cycle_seconds: float = 3.0
    max_cycles: int = 100_000
    safety_threshold: float = 0.8
    stop_when_complete: bool = True
    record_link_stats: bool = False
    links_of_interest: Tuple[ResourceKey, ...] = ()
    # Per-cycle control-plane overhead: status collection + decision push
    # eat into every flow's usable transfer window (Fig. 12c's first two
    # overhead sources). 0 disables the effect.
    control_overhead_seconds: float = 0.0
    # TCP (re-)establishment cost: a flow whose (src, dst) pair was not
    # active in the previous cycle loses this much of the cycle before
    # transferring (Fig. 12c's third overhead source).
    flow_setup_seconds: float = 0.0
    # Per-cycle CycleStats collection. Day-scale horizons (10^6+ cycles)
    # do not want a ~500-byte record per cycle; turning this off keeps
    # only the aggregate counters and completion metrics. Implies no
    # per-cycle link stats.
    record_cycle_stats: bool = True

    def __post_init__(self) -> None:
        check_positive("cycle_seconds", self.cycle_seconds)
        check_positive("max_cycles", self.max_cycles)
        check_fraction("safety_threshold", self.safety_threshold)
        if self.control_overhead_seconds < 0:
            raise ValueError("control_overhead_seconds must be >= 0")
        if self.flow_setup_seconds < 0:
            raise ValueError("flow_setup_seconds must be >= 0")
        if self.control_overhead_seconds >= self.cycle_seconds:
            raise ValueError(
                "control_overhead_seconds must be < cycle_seconds "
                "(the cycle would have no transfer window)"
            )
        if self.record_link_stats and not self.record_cycle_stats:
            raise ValueError(
                "record_link_stats requires record_cycle_stats "
                "(link stats live on the per-cycle records)"
            )


@dataclass
class CycleStats:
    """Aggregates recorded at the end of each simulated cycle.

    The ``time_*`` fields are the per-stage wall-clock breakdown of the
    cycle's control loop (seconds): building the cluster view, the
    strategy's scheduling and routing steps (when the strategy reports
    them — BDS does; decentralized baselines land entirely in
    ``time_schedule``), resolving flow rates against capacities, and
    progressing/delivering flows. ``time_decide`` is the whole strategy
    call and contains schedule + route plus any strategy-private work —
    all of it on the cycles of a controller outage, when BDS's fallback
    decides and neither step runs (schedule and route are then 0).
    """

    cycle: int
    time: float
    blocks_delivered: int
    bytes_transferred: float
    active_flows: int
    controller_available: bool
    link_bulk_usage: Dict[ResourceKey, float] = field(default_factory=dict)
    link_online_usage: Dict[ResourceKey, float] = field(default_factory=dict)
    max_delay_inflation: float = 1.0
    # Per-stage wall-clock timing breakdown (seconds).
    time_view_build: float = 0.0
    time_decide: float = 0.0
    time_schedule: float = 0.0
    time_route: float = 0.0
    time_rate_resolve: float = 0.0
    time_deliver: float = 0.0
    # Portion of time_deliver spent applying completed deliveries to the
    # possession store and completion bookkeeping (batched or per-pair);
    # the remainder of time_deliver is budget-loop simulator overhead.
    time_deliver_apply: float = 0.0
    # Progressive-filling iterations this cycle that terminated without
    # freezing any flow (numerical stalemate — see repro.net.flow).
    rate_stalemates: int = 0
    # Routing-solver telemetry, forwarded from the strategy's decision
    # record when it reports one (the FPTAS backend; zero/empty for
    # greedy/LP and for decentralized baselines).
    routing_iterations: int = 0
    routing_phases: int = 0
    routing_warm_start: str = ""
    # Event-engine provenance (diagnostics, never fingerprinted): the
    # cycle was skipped inside an idle stretch. ``decision_reused`` is
    # always False — kept because export v9 carries it.
    decision_reused: bool = False
    fast_forwarded: bool = False
    # Sharded control-plane telemetry, forwarded from the strategy's
    # decision record (zeros on the single-controller path and for
    # decentralized baselines): configured shard count, max/mean
    # per-shard schedule+route wall over the shards that decided fresh
    # this cycle, and the outer WAN-reconciliation wall.
    shard_count: int = 0
    time_shard_max: float = 0.0
    time_shard_mean: float = 0.0
    time_reconcile: float = 0.0
    # Shard-local state telemetry, forwarded from the strategy's
    # decision record (zeros when unsharded): the configured decide
    # stride (BDSConfig.shard_stride), max per-shard candidate-table
    # bytes over the shards that decided fresh, and the summed
    # structural size of the jobs those shards saw for the first time.
    shard_stride: int = 0
    shard_state_bytes: int = 0
    shard_payload_bytes: int = 0


#: ``SimResult.stage_time_totals`` key -> the CycleStats field it sums.
_STAGE_TIME_FIELDS = {
    "view_build": "time_view_build",
    "decide": "time_decide",
    "schedule": "time_schedule",
    "route": "time_route",
    "rate_resolve": "time_rate_resolve",
    "deliver": "time_deliver",
    "deliver_apply": "time_deliver_apply",
    "reconcile": "time_reconcile",
}


#: CycleStats field -> the attribute of the strategy's decision record it
#: is forwarded from, on cycles the strategy logged a decision for (an
#: attribute the record lacks leaves the field at its default).
_DECISION_TELEMETRY = {
    "time_schedule": "schedule_runtime",
    "time_route": "routing_runtime",
    "routing_iterations": "routing_iterations",
    "routing_phases": "routing_phases",
    "routing_warm_start": "routing_warm_start",
    "shard_count": "shard_count",
    "time_shard_max": "shard_wall_max",
    "time_shard_mean": "shard_wall_mean",
    "time_reconcile": "reconcile_runtime",
    "shard_stride": "shard_stride",
    "shard_state_bytes": "shard_state_bytes",
    "shard_payload_bytes": "shard_payload_bytes",
}


class CycleStatsLog(abc.Sequence):
    """A run's per-cycle :class:`CycleStats`, skipped idle stretches as runs.

    Reads like the list it replaces (``len``, index, slice, iteration,
    ``==`` against a list, truthiness, pickle). A stretch of cycles the
    event engine skipped in one pass is stored as a single record — its
    first cycle's stats and a count: the cycles of a stretch differ only
    in ``cycle`` and ``time`` — and expanded into per-cycle objects only
    when read as such. :meth:`runs` reads the records as they are.
    """

    def __init__(
        self, stats: Iterable[CycleStats] = (), cycle_seconds: float = 0.0
    ) -> None:
        self._first: List[CycleStats] = list(stats)
        self._count: List[int] = [1] * len(self._first)
        #: Per record, the position of its first cycle (built on demand).
        self._starts: Optional[List[int]] = None
        self._len = len(self._first)
        #: ΔT: cycle ``c`` of a run starts at ``c * cycle_seconds``.
        self.cycle_seconds = cycle_seconds

    def append(self, stats: CycleStats) -> None:
        self.append_run(stats, 1)

    def append_run(self, first: CycleStats, count: int) -> None:
        """``count`` consecutive cycles equal to ``first`` but for
        ``cycle`` (counting up from ``first.cycle``) and ``time``."""
        self._first.append(first)
        self._count.append(count)
        self._starts = None
        self._len += count

    def runs(self) -> Iterator[Tuple[CycleStats, int]]:
        """``(first cycle's stats, number of cycles)`` per record."""
        return zip(self._first, self._count)

    def _expanded(self, first: CycleStats, offset: int) -> CycleStats:
        if offset == 0:
            return first
        cycle = first.cycle + offset
        return replace(
            first,
            cycle=cycle,
            time=cycle * self.cycle_seconds,
            link_bulk_usage=dict(first.link_bulk_usage),
            link_online_usage=dict(first.link_online_usage),
        )

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[CycleStats]:
        for first, count in zip(self._first, self._count):
            for offset in range(count):
                yield self._expanded(first, offset)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self[i] for i in range(*item.indices(self._len))]
        index = item + self._len if item < 0 else item
        if not 0 <= index < self._len:
            raise IndexError("cycle index out of range")
        if self._starts is None:
            self._starts = [0, *itertools.accumulate(self._count)]
        record = bisect.bisect_right(self._starts, index) - 1
        return self._expanded(self._first[record], index - self._starts[record])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, CycleStatsLog)):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"CycleStatsLog({list(self)!r})"


@dataclass
class SimResult:
    """Everything the experiments need from one simulation run."""

    cycles_run: int
    sim_time: float
    wall_time: float
    job_completion: Dict[str, float]
    dc_completion: Dict[Tuple[str, str], float]
    server_completion: Dict[Tuple[str, str], float]
    #: Per-cycle records; a plain list is wrapped into a
    #: :class:`CycleStatsLog` so every reader below can walk runs.
    cycle_stats: Sequence[CycleStats]
    store: PossessionIndex
    all_complete: bool
    # Control-plane feedback-loop samples (one per cycle) when the
    # simulation ran with an AgentMonitor attached.
    feedback_samples: List = field(default_factory=list)
    # Event-engine accounting (diagnostics, never fingerprinted): cycles
    # skipped inside idle stretches — zero for a strategy that does not
    # certify ``decisions_reusable``. ``cycles_decision_reused`` is
    # always 0: kept because export v9 and the perf ledger read it.
    cycles_decision_reused: int = 0
    cycles_fast_forwarded: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.cycle_stats, CycleStatsLog):
            self.cycle_stats = CycleStatsLog(self.cycle_stats)

    def completion_time(self, job_id: str) -> float:
        """Completion time of a job; raises if it never completed."""
        try:
            return self.job_completion[job_id]
        except KeyError:
            raise KeyError(f"job {job_id!r} did not complete") from None

    def server_completion_times(self, job_id: str) -> List[float]:
        """Per-destination-server completion times (the Fig. 5/9a CDF data)."""
        return [
            t for (jid, _server), t in self.server_completion.items() if jid == job_id
        ]

    def blocks_per_cycle(self) -> List[int]:
        """Delivered-block counts per cycle (the Fig. 12a series)."""
        return self._per_cycle("blocks_delivered")

    def _per_cycle(self, field_name: str) -> list:
        """One :class:`CycleStats` field per cycle, read off the runs."""
        series: list = []
        for first, count in self.cycle_stats.runs():
            series += [getattr(first, field_name)] * count
        return series

    def stage_time_totals(self) -> Dict[str, float]:
        """Summed per-stage wall-clock seconds across all cycles: where
        the control loop spends its time (view-build / schedule / route /
        rate-resolve / deliver)."""
        totals = dict.fromkeys(_STAGE_TIME_FIELDS, 0.0)
        for first, count in self.cycle_stats.runs():
            for stage, field_name in _STAGE_TIME_FIELDS.items():
                seconds = getattr(first, field_name)
                if seconds:  # x + 0.0 == x: a skipped stretch adds nothing
                    for _ in range(count):
                        totals[stage] += seconds
        return totals

    def total_rate_stalemates(self) -> int:
        """Waterfill stalemate iterations across the run (diagnostic)."""
        return sum(
            first.rate_stalemates * count
            for first, count in self.cycle_stats.runs()
        )

    def total_bytes_transferred(self) -> float:
        """Bytes moved across all flows over the whole run.

        Folded cycle by cycle, in order (``k`` cycles of ``x`` bytes are
        not ``k * x`` in floats).
        """
        return sum(self._per_cycle("bytes_transferred"))

    def fingerprint(self) -> str:
        """Stable digest of the run's *deterministic* outputs.

        Covers completion metrics, per-cycle delivery counts, and bytes
        moved — everything that must be bit-identical across reruns of the
        same (topology, jobs, strategy, config, seed), but none of the
        wall-clock timing fields. Two runs with equal fingerprints are
        interchangeable for every analysis consumer; the golden, pin and
        parity tests and the perf ledger compare runs through this.
        """
        import hashlib
        import json

        canonical = json.dumps(
            {
                "cycles_run": self.cycles_run,
                "all_complete": self.all_complete,
                "job_completion": sorted(self.job_completion.items()),
                "dc_completion": sorted(
                    (list(k), v) for k, v in self.dc_completion.items()
                ),
                "server_completion": sorted(
                    (list(k), v) for k, v in self.server_completion.items()
                ),
                "blocks_per_cycle": self.blocks_per_cycle(),
                "bytes_per_cycle": self._per_cycle("bytes_transferred"),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def summary(self) -> str:
        """A short human-readable report of the run."""
        lines = [
            f"cycles run      : {self.cycles_run}",
            f"simulated time  : {self.sim_time:.1f}s",
            f"wall time       : {self.wall_time:.2f}s",
            f"jobs completed  : {len(self.job_completion)}",
            f"all complete    : {self.all_complete}",
            f"bytes moved     : {self.total_bytes_transferred():.3g}",
        ]
        for job_id in sorted(self.job_completion):
            lines.append(
                f"  {job_id}: done at {self.job_completion[job_id]:.1f}s"
            )
        return "\n".join(lines)


class ClusterView:
    """Read-only snapshot handed to strategies each cycle.

    This is the "global view" a centralized controller enjoys; decentralized
    baselines deliberately use only slices of it (their local views).

    **Ownership**: the view borrows the simulator's live structures —
    ``bulk_capacities`` and the partial-bytes store are *not* copied. A
    view is valid for the cycle it was built for; strategies must not
    mutate these mappings or hold a view across cycles (the next cycle
    reuses and mutates them in place).

    Possession is read from ``store.matrix`` and nowhere else: the
    scheduler, the router, the baselines' lenses and the accessors below
    all gather from it through the static per-(job, DC) arrays of a
    :class:`~repro.net.candidates.CandidateTable`. The simulator threads
    in its table and its persistent :class:`CycleCache`; a hand-built
    view may omit either and owns one of its own, built on first use —
    with identical results.
    """

    def __init__(
        self,
        topology: Topology,
        store: PossessionReader,
        jobs: Sequence[MulticastJob],
        cycle: int,
        time: float,
        cycle_seconds: float,
        bulk_capacities: Mapping[ResourceKey, float],
        failed_agents: Set[str],
        controller_available: bool,
        partial_bytes: PartialBytes,
        failed_links: frozenset = frozenset(),
        cache: Optional[CycleCache] = None,
        candidates: Optional[CandidateTable] = None,
    ) -> None:
        self.topology = topology
        self.store = store
        self.jobs = list(jobs)
        self.cycle = cycle
        self.time = time
        self.cycle_seconds = cycle_seconds
        self.bulk_capacities = bulk_capacities
        self.failed_agents = set(failed_agents)
        self.controller_available = controller_available
        self.failed_links = frozenset(failed_links)
        self.partial_bytes = partial_bytes
        self._cache = cache if cache is not None else CycleCache()
        self._failed_frozen = frozenset(self.failed_agents)
        self._candidates = candidates

    @property
    def candidates(self) -> CandidateTable:
        """The candidate (block, destination) arrays of this view's jobs."""
        if self._candidates is None:
            self._candidates = CandidateTable(self.jobs, self.store.matrix)
        return self._candidates

    def agent_is_up(self, server_id: str) -> bool:
        return server_id not in self.failed_agents

    def with_extra_failed_agents(self, extra: Iterable[str]) -> "ClusterView":
        """A copy of this view treating ``extra`` servers as failed.

        Used by the controller's partition handling (§5.3): servers in DCs
        cut off from the controller cannot receive commands, so the
        centralized logic must not schedule them as sources or sinks.

        The clone shares this view's :class:`CycleCache` (paths do not
        depend on agent failures) and candidate table.
        """
        return ClusterView(
            topology=self.topology,
            store=self.store,
            jobs=self.jobs,
            cycle=self.cycle,
            time=self.time,
            cycle_seconds=self.cycle_seconds,
            bulk_capacities=self.bulk_capacities,
            failed_agents=self.failed_agents | set(extra),
            controller_available=self.controller_available,
            partial_bytes=self.partial_bytes,
            failed_links=self.failed_links,
            cache=self._cache,
            candidates=self._candidates,
        )

    def flow_resources(
        self, src_server: str, dst_server: str
    ) -> Optional[Tuple[ResourceKey, ...]]:
        """Failure-aware flow resources, or ``None`` when partitioned off.

        Strategies should use this instead of ``topology.flow_resources``
        so their paths detour around failed WAN links (§5.3). Memoized
        per (src, dst) pair while topology and failed links are unchanged.
        """
        cache = self._cache
        table = cache.validate_paths(self.topology.epoch, self.failed_links)
        key = (src_server, dst_server)
        try:
            result = table[key]
            cache.hits += 1
            return result
        except KeyError:
            cache.misses += 1
        try:
            result = self.topology.flow_resources(
                src_server, dst_server, self.failed_links
            )
        except ValueError:
            result = None
        table[key] = result
        return result

    def path_rows(
        self, src: Sequence[int], dst: Sequence[int], names: Sequence[str]
    ) -> List[Tuple[int, ...]]:
        """The failure-aware paths of the ``(src[i], dst[i])`` server-id
        pairs as rows of resource numbers — the cycle cache's
        ``path_ids``, ``()`` when partitioned off. A pair seen for the
        first time is interned through :meth:`flow_resources`; a
        memoized one counts the cache hit that lookup would have."""
        cache = self._cache
        cache.validate_paths(self.topology.epoch, self.failed_links)
        path_ids = cache.path_ids
        paths = [path_ids.get((names[s], names[t])) for s, t in zip(src, dst)]
        cache.hits += len(paths)
        for i in [i for i, path in enumerate(paths) if path is None]:
            cache.hits -= 1  # flow_resources counts this lookup itself
            pair = (names[src[i]], names[dst[i]])
            paths[i] = cache.intern_path(pair, self.flow_resources(*pair))
        return paths

    def received_bytes(self, block_id: BlockId, dst_server: str) -> float:
        """Bytes of ``block_id`` already buffered at ``dst_server``."""
        matrix = self.partial_bytes.matrix
        gid, sid = matrix.gid_of(block_id), matrix.server_ids.get(dst_server)
        if gid is None or sid is None:
            return 0.0
        return self.partial_bytes.get(self.partial_bytes.key(gid, sid), 0.0)

    def eligible_sources(self, block_id: BlockId) -> List[str]:
        """Healthy servers currently holding the block, in name order."""
        failed = self.failed_agents
        return sorted(s for s in self.store.holders(block_id) if s not in failed)


class PartialBytes(dict):
    """Bytes buffered at destinations, of blocks whose transfer is underway.

    One entry per (block, destination server) with bytes buffered, keyed
    ``gid * num_servers + sid`` in the ids of ``matrix``, the live
    possession matrix. The simulator owns it and writes it after each
    cycle's progress walk; views lend it to strategies, read only.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: PossessionMatrix) -> None:
        super().__init__()
        self.matrix = matrix

    def key(self, gids, sids):
        """The key of block column(s) ``gids`` at server id(s) ``sids``."""
        return gids * self.matrix.num_servers + sids

    def gather(self, keys: np.ndarray) -> Optional[np.ndarray]:
        """Buffered bytes of each key of ``keys`` (0.0 where none);
        ``None`` when the store is empty, so callers can skip the
        subtraction (``size - 0.0 == size``). One sort of the store, one
        ``searchsorted`` of ``keys``.
        """
        count = len(self)
        if not count:
            return None
        probe = np.fromiter(self, dtype=np.int64, count=count)
        order = probe.argsort()
        probe = probe[order]
        pos = np.minimum(probe.searchsorted(keys), count - 1)
        values = np.fromiter(self.values(), dtype=float, count=count)
        return values[order[pos]] * (probe[pos] == keys)  # bytes are >= 0


class _BlockColumns:
    """The simulation's static per-block columns, in one flat numbering,
    and the per-job tables its deliveries are booked with.

    A block's flat number is its job's ``base`` plus its job-relative
    index — the id space the simulator gathers sizes, matrix columns and
    block ids in; ``starts`` holds the bases in job order and ``origin``
    each job's origin DC id. Built once, on the first cycle that
    validates a directive.

    Completion is booked per *destination*, a (job, destination DC)
    pair; ``dest[j * num_dcs + d]`` numbers job ``j``'s destination in
    DC id ``d``, or is the sentinel ``len(stripe_lo) - 1`` (a stripe of
    one server id no server has) when ``d`` is not one of the job's
    destination DCs. Destination ``k``'s stripe
    (:meth:`MulticastJob.stripe`) is the ``stripe_width[k]`` server ids
    from ``stripe_sids[stripe_lo[k]]`` on.
    """

    __slots__ = (
        "base", "count", "ids", "sizes", "gids", "starts",
        "origin", "num_dcs", "dest", "stripe_lo", "stripe_width",
        "stripe_sids",
    )

    def __init__(
        self, jobs: Sequence[MulticastJob], store: PossessionIndex
    ) -> None:
        matrix = store.matrix
        self.base: Dict[str, int] = {}
        self.count: Dict[str, int] = {}
        self.ids: List[BlockId] = []
        self.num_dcs = len(matrix.dc_names)
        self.dest = np.full(len(jobs) * self.num_dcs, -1, dtype=np.int64)
        lo: List[int] = []
        width: List[int] = []
        sids: List[int] = []
        for j, job in enumerate(jobs):
            self.base[job.job_id] = len(self.ids)
            self.count[job.job_id] = len(job.blocks)
            self.ids.extend(b.block_id for b in job.blocks)
            for dc in job.dst_dcs:
                servers, _slots = job.stripe(dc)
                self.dest[j * self.num_dcs + matrix.dc_ids[dc]] = len(lo)
                lo.append(len(sids))
                width.append(len(servers))
                sids.extend(matrix.server_ids[s] for s in servers)
        self.dest[self.dest < 0] = len(lo)
        self.stripe_lo = np.array(lo + [len(sids)], dtype=np.int64)
        self.stripe_width = np.array(width + [1], dtype=np.int64)
        self.stripe_sids = np.array(sids + [-1], dtype=np.int64)
        self.starts = np.array(list(self.base.values()), dtype=np.int64)
        self.origin = np.array(
            [matrix.dc_ids[job.src_dc] for job in jobs], dtype=np.int64
        )
        self.sizes = np.concatenate([job.block_sizes() for job in jobs])
        self.gids = np.fromiter(
            (matrix.intern(bid) for bid in self.ids),
            dtype=np.int64,
            count=len(self.ids),
        )


class FlowColumns:
    """One decide's validated directives as row columns.

    Row ``r`` is one block of one directive, directive-major in listed
    order: ``flat[r]`` is the block's flat number, ``src[r]`` and
    ``dst[r]`` the directive's endpoint server ids, ``keys[r]`` the
    row's :class:`PartialBytes` key (block column and destination), and
    ``bounds[i]:bounds[i + 1]`` are directive ``i``'s rows. ``sizes``
    is the rows' block sizes, gathered once for the demand sums, which
    also leave ``buffered`` and ``need`` (``sizes - buffered``, a list).
    """

    __slots__ = ("flat", "src", "dst", "keys", "bounds", "sizes", "buffered", "need")

    def __init__(
        self, flat: np.ndarray, src: np.ndarray, dst: np.ndarray,
        keys: np.ndarray, bounds: List[int], sizes: np.ndarray,
    ) -> None:
        self.flat = flat
        self.src = src
        self.dst = dst
        self.keys = keys
        self.bounds = bounds
        self.sizes = sizes
        self.buffered: Optional[np.ndarray] = None
        self.need: Optional[List[float]] = None

    def take(self, keep: Sequence[bool]) -> "FlowColumns":
        """The columns of the directives whose ``keep`` flag is set."""
        lens = np.diff(self.bounds)
        keep = np.asarray(keep, dtype=bool)
        rows = np.repeat(keep, lens)
        return FlowColumns(
            self.flat[rows],
            self.src[rows],
            self.dst[rows],
            self.keys[rows],
            [0] + lens[keep].cumsum().tolist(),
            self.sizes[rows],
        )


class Simulation:
    """Owns the cycle loop, resource accounting, and metric collection."""

    def __init__(
        self,
        topology: Topology,
        jobs: Sequence[MulticastJob],
        strategy: "OverlayStrategyLike",
        config: Optional[SimConfig] = None,
        background: Optional[BackgroundTraffic] = None,
        failures: Optional[FailureSchedule] = None,
        seed: SeedLike = None,
        pre_seeded: Optional[Mapping[str, Sequence[Block]]] = None,
        replica_set: Optional["ControllerReplicaSetLike"] = None,
        agent_monitor: Optional["AgentMonitorLike"] = None,
    ) -> None:
        """``pre_seeded`` places extra block copies on servers before the
        run (e.g. partially replicated states for the appendix experiment);
        copies landing on a destination's assigned server count as already
        delivered.

        ``replica_set`` (a :class:`repro.core.fault.ControllerReplicaSet`)
        makes controller availability follow leader elections: the failure
        schedule's ``replica_fail``/``replica_recover`` events hit
        individual replicas, and the controller is available while a
        leader exists (plus any blanket ``controller_fail`` still applies).

        ``agent_monitor`` (a :class:`repro.overlay.monitor.AgentMonitor`)
        samples the control-plane feedback loop each cycle; samples land in
        ``SimResult.feedback_samples`` (the live Fig. 11c measurement).
        """
        self.topology = topology
        self.jobs = list(jobs)
        self.strategy = strategy
        self.config = config or SimConfig()
        self.background = background
        self.failures = failures
        self.replica_set = replica_set
        self.agent_monitor = agent_monitor
        self.rng = make_rng(seed)
        self._agents: List = []
        if agent_monitor is not None:
            from repro.overlay.agent import ServerAgent

            self._agents = [
                ServerAgent(s) for s in topology.servers.values()
            ]

        if not self.jobs:
            raise ValueError("need at least one job")
        if self.config.record_link_stats:
            capacities = topology.resource_capacities()
            for key in self.config.links_of_interest:
                if key not in capacities:
                    raise ValueError(
                        f"links_of_interest names {key!r}, "
                        "which is not a resource of the topology"
                    )
        # Every per-job structure below is keyed by job id.
        self._jobs_by_id: Dict[str, MulticastJob] = {}
        for job in self.jobs:
            if job.job_id in self._jobs_by_id:
                raise ValueError(f"duplicate job id {job.job_id!r}")
            self._jobs_by_id[job.job_id] = job
        server_dc = {s.server_id: s.dc for s in topology.servers.values()}
        self.store = PossessionIndex(server_dc)
        for job in self.jobs:
            if not job.is_bound():
                job.bind(topology)
            for server, blocks in job.initial_placement().items():
                self.store.seed(server, blocks)
        if pre_seeded:
            for server, blocks in pre_seeded.items():
                self.store.seed(server, blocks)

        self._partial = PartialBytes(self.store.matrix)
        # Completion bookkeeping: (job, dc) -> how many of the job's
        # blocks their assigned servers in that DC still miss, and
        # (job, server) -> how many of its shard's blocks that server
        # still misses. Both count down on what the store answers per
        # delivery (a new copy or a duplicate); neither names a block.
        # run() fills the completion times per job, (job, dc) and (job,
        # server); the ones pre-seeded copies completed are booked at 0 here.
        self._dc_missing: Dict[Tuple[str, str], int] = {}
        self._server_missing: Dict[Tuple[str, str], int] = {}
        self._job_completion: Dict[str, float] = {}
        self._dc_completion: Dict[Tuple[str, str], float] = {}
        self._server_completion: Dict[Tuple[str, str], float] = {}
        matrix = self.store.matrix
        for job in self.jobs:
            job_id = job.job_id
            # Seeding the source stripe interned every block of the job.
            gids = np.fromiter(
                (matrix.block_gids[b.block_id] for b in job.blocks),
                dtype=np.int64,
                count=len(job.blocks),
            )
            for dc in job.dst_dcs:
                servers, slots = job.stripe(dc)
                sids = np.array(
                    [matrix.server_ids[s] for s in servers], dtype=np.int64
                )
                # Pre-seeded copies on the assigned server count as delivered.
                held = matrix.test_many(sids[slots], gids)
                counts = np.bincount(slots[~held], minlength=len(servers))
                for server, missing in zip(servers, counts.tolist()):
                    if missing:
                        self._server_missing[(job_id, server)] = missing
                    else:
                        self._server_completion[(job_id, server)] = 0.0
                missing = len(gids) - int(held.sum())
                self._dc_missing[(job_id, dc)] = missing
                if not missing:
                    self._dc_completion[(job_id, dc)] = 0.0
            if all((job_id, dc) in self._dc_completion for dc in job.dst_dcs):
                self._job_completion[job_id] = 0.0
        # The (src, dst) pairs with a flow in the last executed cycle
        # (they skip the TCP re-establishment cost). One run consumes the
        # bookkeeping above, so there is only one.
        self._prev_pairs: Set[int] = set()
        self._ran = False

        # Static candidate arrays for the scheduling kernel and the
        # view's pending accessors: every (block, destination/relay DC)
        # pair of every job, as parallel int arrays. Built once, after
        # seeding (so pre-seeded copies compact out on the first cycle's
        # gather). Skipped when the strategy decides against
        # partition-scoped tables (a sharded BDSController, whose
        # shard_signature is true): its shards build their own over this
        # store's matrix, O(pairs/shards) each, and a global O(pairs)
        # build would be dead weight.
        self._cand_table = None
        if not getattr(strategy, "shard_signature", False):
            self._cand_table = CandidateTable(self.jobs, self.store.matrix)

        # Flat per-block columns for directive validation and demand sums
        # (see _BlockColumns); built on first use, not at construction.
        self._cols: Optional[_BlockColumns] = None

        # The persistent per-cycle query cache and the memoized capacity
        # maps (see _bulk_capacities).
        self._cycle_cache = CycleCache()
        self._wan_keys: Tuple[ResourceKey, ...] = tuple(topology.links)
        self._bulk_cache: Dict[float, list] = {}
        self._caps_ref: Optional[Dict[ResourceKey, float]] = None

        # Integer arrival grid (idle-skip bound + O(changes) job
        # filtering): per-job first active cycle, exact on the c*dt float
        # grid so "arrived by cycle c" is the arrival_time <= c*dt
        # predicate bit-for-bit, plus a stable arrival-sorted index. Jobs
        # requesting a coarser per-job cadence (MulticastJob.cycle_seconds,
        # a positive multiple of ΔT) have their arrival quantized up to
        # their own cadence boundary.
        dt = self.config.cycle_seconds
        self._arrival_cycle_by_idx: List[int] = []
        for job in self.jobs:
            arrival = first_cycle_at_or_after(job.arrival_time, dt)
            period = getattr(job, "cycle_seconds", None)
            if period is not None:
                multiple = int(round(period / dt))
                if multiple < 1 or multiple * dt != period:
                    raise ValueError(
                        f"job {job.job_id!r} cycle_seconds ({period}) must "
                        f"be a positive integer multiple of the simulation "
                        f"cycle_seconds ({dt})"
                    )
                if multiple > 1 and arrival % multiple:
                    arrival = (arrival // multiple + 1) * multiple
            self._arrival_cycle_by_idx.append(arrival)
        self._arrival_order: List[int] = sorted(
            range(len(self.jobs)),
            key=self._arrival_cycle_by_idx.__getitem__,
        )
        # run()'s active-job maintenance (see _active_jobs): arrival
        # cycles in arrival order, a pointer past the jobs that have
        # arrived, the indices of those not complete at the last rebuild,
        # and the (jobs-ordered) active list with the completed-job count
        # it was built at.
        self._arrival_cycles: List[int] = [
            self._arrival_cycle_by_idx[i] for i in self._arrival_order
        ]
        self._arrival_ptr = 0
        self._arrived: List[int] = []
        self._active: List[MulticastJob] = []
        self._active_built_at = -1

    # -- per-cycle resource budgets ------------------------------------------

    def _bulk_capacities(self, now: float, respect_threshold: bool) -> Tuple[
        Dict[ResourceKey, float], Dict[ResourceKey, float]
    ]:
        """(bulk capacity, online usage) per resource for this cycle.

        The static part (server NICs, WAN capacity × threshold) is built
        once per threshold and reused. WAN entries are rewritten only
        when something they are computed from moved: the background
        traffic's state (a stepped curve's step; a continuous varying
        curve never repeats, so it samples — and draws from its stream —
        on every call), the failed-link set, or the topology's capacity
        map. The returned dicts are owned by the simulator and reused
        across cycles — consumers must not mutate or retain them.
        """
        caps = self.topology.resource_capacities()
        if caps is not self._caps_ref:
            self._bulk_cache.clear()
            self._caps_ref = caps
            self._wan_keys = tuple(self.topology.links)
        threshold = self.config.safety_threshold if respect_threshold else 1.0
        budget = self._bulk_cache.get(threshold)
        if budget is None:
            bulk = {
                key: threshold * cap if key[0] == "wan" else cap
                for key, cap in caps.items()
            }
            # [bulk, online, what the WAN entries were computed from]
            budget = self._bulk_cache[threshold] = [bulk, {}, None]
        bulk = budget[0]
        background = self.background
        failures = self.failures
        if background is None and failures is None:
            # Steady state: WAN entries are exactly threshold × capacity
            # every cycle; nothing to recompute.
            return bulk, budget[1]
        token = -1 if background is None else background.state_token_at(now)
        state = (
            token,
            frozenset(failures.failed_links) if failures else None,
        )
        if token is not None and state == budget[2]:
            return bulk, budget[1]
        online: Dict[ResourceKey, float] = {}
        for key in self._wan_keys:
            cap = caps[key]
            used = background.usage(key, now, cap) if background else 0.0
            online[key] = used
            usable = max(0.0, threshold * cap - used)
            if failures and not failures.link_is_up(key[1], key[2]):
                usable = 0.0
            bulk[key] = usable
        budget[1] = online
        budget[2] = state
        return bulk, online

    # -- directive validation ----------------------------------------------------

    def _block_columns(self) -> _BlockColumns:
        if self._cols is None:
            self._cols = _BlockColumns(self.jobs, self.store)
        return self._cols

    def _valid_directives(
        self, directives: Iterable[TransferDirective], failed: Set[str]
    ) -> Tuple[DirectiveBatch, FlowColumns]:
        """Drop directives that violate physics or reference failed agents.

        A strategy's list is packed into a :class:`DirectiveBatch` here,
        once. Endpoints are checked per directive — a failed one skips
        the directive before an unknown one raises — and only when some
        agent failed or some name is unknown; the per-block ``src has ∧
        dst lacks`` filter runs as one possession gather over all of the
        cycle's rows. The batch itself is returned when every row
        survives; otherwise a new one with the surviving rows, dropping
        the directives left without any. Order is kept and repeated ids
        inside a directive are not deduped. Returns the surviving
        directives with their row columns.
        """
        matrix = self.store.matrix
        batch = DirectiveBatch.pack(directives, matrix)
        if not batch:
            empty = np.empty(0, dtype=np.int64)
            return batch, FlowColumns(empty, empty, empty, empty, [0], np.empty(0))
        cols = self._block_columns()
        base, count = cols.base, cols.count
        job_ids, bounds = batch.job_ids, batch.bounds
        offset = [base.get(job_id, 0) for job_id in job_ids]
        limit = [count.get(job_id, 0) for job_id in job_ids]
        names, src, dst = batch.names, batch.src, batch.dst
        if failed or len(names) > matrix.num_servers:
            known = matrix.num_servers
            ids = matrix.server_ids
            down = {ids[name] for name in failed if name in ids}
            down.update(i for i in range(known, len(names)) if names[i] in failed)
            src, dst = list(src), list(dst)
            for i, (s, t) in enumerate(zip(batch.src, batch.dst)):
                if s in down or t in down:
                    # No row of it is known, so it is dropped below.
                    limit[i] = src[i] = dst[i] = 0
                elif s >= known:
                    raise KeyError(f"unknown source server {names[s]!r}")
                elif t >= known:
                    raise KeyError(f"unknown destination server {names[t]!r}")

        index = batch.column
        lens = np.diff(bounds)
        offset, limit, src, dst = np.repeat(
            np.array([offset, limit, src, dst], dtype=np.int64), lens, axis=1
        )
        known = (index >= 0) & (index < limit)
        flat = np.where(known, index + offset, 0)
        gids = cols.gids[flat]
        useful = known & matrix.test_transfers(src, dst, gids)

        if not useful.all():
            kept = np.add.reduceat(useful, bounds[:-1], dtype=np.int64).tolist()
            batch = batch.keep(
                [k > 0 for k in kept], index[useful],
                [0, *itertools.accumulate(k for k in kept if k)],
            )
            flat = flat[useful]
            src = src[useful]
            dst = dst[useful]
            gids = gids[useful]
        return batch, FlowColumns(
            flat, src, dst, self._partial.key(gids, dst), batch.bounds,
            cols.sizes[flat],
        )

    def _flow_demands(self, columns: FlowColumns) -> List[float]:
        """Bytes each directive still has to move, in directive order.

        Operands (``size - buffered``) are gathered as arrays; each
        directive's are then folded with the builtin ``sum`` in listed
        order, the reduction these values have always had —
        ``bytes_per_cycle`` is fingerprinted, and numpy's pairwise sum
        differs from it in the last digits. The operands stay on
        ``columns`` as ``need``, for the progress walk.
        """
        buffered = columns.buffered = self._partial.gather(columns.keys)
        sizes = columns.sizes
        need = columns.need = (sizes if buffered is None else sizes - buffered).tolist()
        bounds = columns.bounds
        return [
            sum(need[bounds[i] : bounds[i + 1]]) for i in range(len(bounds) - 1)
        ]

    def _view(
        self,
        cycle: int,
        jobs: Sequence[MulticastJob],
        bulk_caps: Mapping[ResourceKey, float],
        failed: Set[str],
        failed_links: frozenset,
        controller_ok: bool = True,
    ) -> ClusterView:
        """Cycle ``cycle``'s view over the simulator's live structures."""
        dt = self.config.cycle_seconds
        return ClusterView(
            topology=self.topology,
            store=self.store,
            jobs=jobs,
            cycle=cycle,
            time=cycle * dt,
            cycle_seconds=dt,
            bulk_capacities=bulk_caps,
            failed_agents=failed,
            controller_available=controller_ok,
            partial_bytes=self._partial,
            failed_links=failed_links,
            cache=self._cycle_cache,
            candidates=self._cand_table,
        )

    def snapshot_view(self, cycle: int = 0) -> ClusterView:
        """A :class:`ClusterView` of the current state without simulating.

        Used by the controller micro-benchmarks (Fig. 11a, Fig. 13a) to time
        a single decision over a state of a given size.
        """
        respects = getattr(self.strategy, "respects_safety_threshold", False)
        bulk_caps, _online = self._bulk_capacities(cycle * self.config.cycle_seconds, respects)
        failures = self.failures
        return self._view(
            cycle,
            [
                j
                for i, j in enumerate(self.jobs)
                if self._arrival_cycle_by_idx[i] <= cycle
            ],
            bulk_caps,
            set(failures.failed_agents) if failures else set(),
            frozenset(failures.failed_links) if failures else frozenset(),
        )

    # -- main loop -------------------------------------------------------------

    def run(self) -> SimResult:
        """Run until all jobs complete or ``max_cycles`` elapse — once.

        Every executed cycle runs the stages below, in order. One
        shortcut is exact and taken: after a cycle with no active job, a
        strategy that certifies ``decisions_reusable`` would decide the
        same nothing until a job arrives or the failure or background
        state moves, so those cycles are skipped (:meth:`_skip_idle`) —
        unless something must observe every cycle (an agent monitor, an
        ``on_cycle_complete`` hook, replica elections, link stats).
        """
        if self._ran:
            raise RuntimeError(
                "a Simulation runs once (the run consumed its completion "
                "bookkeeping and filled its store): build a new Simulation"
            )
        self._ran = True
        cfg = self.config
        dt = cfg.cycle_seconds
        started = _time.perf_counter()
        strategy = self.strategy
        clips = getattr(strategy, "uses_controller_rates", False)
        respects = getattr(strategy, "respects_safety_threshold", False)
        hook = getattr(strategy, "on_cycle_complete", None)
        can_skip = (
            getattr(strategy, "decisions_reusable", False)
            and self.agent_monitor is None
            and hook is None
            and self.replica_set is None
            and not cfg.record_link_stats
        )
        cycle_stats = CycleStatsLog(cycle_seconds=dt)
        log = cycle_stats if cfg.record_cycle_stats else None
        feedback_samples: List = []
        num_jobs = len(self.jobs)
        cycles_skipped = 0

        cycle = 0
        while cycle < cfg.max_cycles:
            stage_started = _time.perf_counter()
            failed, failed_links, controller_ok = self._advance_failures(cycle)
            # Every timestamp is cycle * dt, never now + dt: landing on
            # cycle c after a skip and ticking to it give the same floats.
            bulk_caps, online = self._bulk_capacities(cycle * dt, respects)
            active_jobs = self._active_jobs(cycle)
            view = self._view(
                cycle, active_jobs, bulk_caps, failed, failed_links, controller_ok
            )
            decide_started = _time.perf_counter()
            raw_directives = strategy.decide(view)
            decide_runtime = _time.perf_counter() - decide_started
            directives, columns = self._valid_directives(raw_directives, failed)
            if self.agent_monitor is not None and controller_ok:
                feedback_samples.append(self._sample_feedback(failed, decide_runtime))
            rate_started = _time.perf_counter()
            directives, columns, paths = self._flow_paths(view, directives, columns)
            rates, stalemates = self._resolve_rates(
                directives, columns, paths, bulk_caps, clips and controller_ok
            )
            deliver_started = _time.perf_counter()
            transferred, done, finish = self._progress_flows(
                cycle, directives, columns, rates
            )
            apply_seconds = 0.0
            if done:
                apply_started = _time.perf_counter()
                self._apply_deliveries(columns, done, finish)
                apply_seconds = _time.perf_counter() - apply_started
            # The rows (and the walk's need list) go before the next decide.
            del columns

            if log is not None:
                stats = CycleStats(
                    cycle=cycle,
                    time=cycle * dt,
                    blocks_delivered=len(done),
                    bytes_transferred=transferred,
                    active_flows=len(directives),
                    controller_available=controller_ok,
                    time_view_build=decide_started - stage_started,
                    time_decide=decide_runtime,
                    time_rate_resolve=deliver_started - rate_started,
                    time_deliver=_time.perf_counter() - deliver_started,
                    time_deliver_apply=apply_seconds,
                    rate_stalemates=stalemates,
                    **self._decision_telemetry(cycle, decide_runtime),
                )
                if cfg.record_link_stats:
                    self._record_link_stats(stats, paths, rates, online)
                log.append(stats)
            if hook is not None:
                hook(view, len(done))
            if cfg.stop_when_complete and len(self._job_completion) == num_jobs:
                cycle += 1
                break
            if can_skip and not active_jobs and not directives:
                skipped = self._skip_idle(cycle, controller_ok, log)
                cycles_skipped += skipped
                cycle += skipped
            cycle += 1

        return SimResult(
            cycles_run=cycle,
            sim_time=cycle * dt,
            wall_time=_time.perf_counter() - started,
            job_completion=self._job_completion,
            dc_completion=self._dc_completion,
            server_completion=self._server_completion,
            cycle_stats=cycle_stats,
            store=self.store,
            all_complete=len(self._job_completion) == num_jobs,
            feedback_samples=feedback_samples,
            cycles_fast_forwarded=cycles_skipped,
        )

    # -- the stages of a cycle, in run()'s order ---------------------------------

    def _advance_failures(self, cycle: int) -> Tuple[Set[str], frozenset, bool]:
        """Apply the failure schedule through ``cycle``.

        Returns (failed agents, failed links, controller reachable).
        Replica events reach the replica set, whose elections tick once
        per cycle and decide reachability with the blanket
        ``controller_fail`` state.
        """
        failures = self.failures
        replicas = self.replica_set
        if failures is None:
            failed: Set[str] = set()
            failed_links: frozenset = frozenset()
            controller_ok = True
        else:
            applied = failures.advance_to(cycle)
            failed = set(failures.failed_agents)
            failed_links = frozenset(failures.failed_links)
            controller_ok = not failures.controller_down
            if replicas is not None:
                for event in applied:
                    if event.kind == "replica_fail":
                        replicas.fail(str(event.target))
                    elif event.kind == "replica_recover":
                        replicas.recover(str(event.target))
        if replicas is not None:
            replicas.tick()
            controller_ok = controller_ok and replicas.has_leader()
        return failed, failed_links, controller_ok

    def _active_jobs(self, cycle: int) -> List[MulticastJob]:
        """Jobs arrived by ``cycle`` and not yet complete, in ``jobs`` order.

        O(changes): the arrival pointer advances over the arrival-sorted
        index, and the list is rebuilt only when it or the completed-job
        count moved. A rebuild prunes the completed jobs from the
        arrived indices, so it costs O(active + arrivals), not
        O(arrived).
        """
        cycles = self._arrival_cycles
        ptr = self._arrival_ptr
        while ptr < len(cycles) and cycles[ptr] <= cycle:
            self._arrived.append(self._arrival_order[ptr])
            ptr += 1
        done = self._job_completion
        if ptr != self._arrival_ptr or len(done) != self._active_built_at:
            self._arrival_ptr = ptr
            jobs = self.jobs
            self._arrived = [
                i for i in sorted(self._arrived) if jobs[i].job_id not in done
            ]
            self._active = [jobs[i] for i in self._arrived]
            self._active_built_at = len(done)
        return self._active

    def _sample_feedback(self, failed: Set[str], decide_runtime: float):
        """One control-plane feedback-loop sample (Fig. 11c)."""
        for agent in self._agents:
            agent.healthy = agent.server_id not in failed
        _snapshots, sample = self.agent_monitor.feedback_loop(
            self._agents, {}, decide_runtime
        )
        return sample

    @staticmethod
    def _flow_paths(
        view: ClusterView,
        directives: DirectiveBatch,
        columns: FlowColumns,
    ) -> Tuple[DirectiveBatch, FlowColumns, List[Tuple[int, ...]]]:
        """Each directive's path as resource numbers of ``view``'s cycle
        cache; drops those partitioned off this cycle."""
        paths = view.path_rows(directives.src, directives.dst, directives.names)
        if () in paths:  # no path: partitioned off
            keep = [bool(path) for path in paths]
            rows = np.repeat(keep, np.diff(directives.bounds))
            columns = columns.take(keep)
            directives = directives.keep(keep, directives.column[rows], columns.bounds)
            paths = [path for path in paths if path]
        return directives, columns, paths

    def _resolve_rates(
        self,
        directives: DirectiveBatch,
        columns: FlowColumns,
        paths: List[Tuple[int, ...]],
        bulk_caps: Mapping[ResourceKey, float],
        clip: bool,
    ) -> Tuple[List[float], int]:
        """Per-directive rates, and the waterfill's stalemate count.

        Demands move every cycle (partial bytes drain them); a flow's
        own bound is the smaller of its rate cap and its demand.
        ``clip``: the controller assigned rates, which are clipped to
        capacity; otherwise flows share max-min fairly.
        """
        dt = self.config.cycle_seconds
        caps = []
        for cap, remaining in zip(directives.caps, self._flow_demands(columns)):
            demand = remaining / dt
            caps.append(demand if cap is None or demand < cap else cap)
        rows = FlowRows(paths, caps, self._cycle_cache.res_keys)
        if clip:
            return clip_rates_to_capacity(rows, caps, bulk_caps), 0
        kernel_stats = FlowKernelStats()
        rates = max_min_fair_rates(rows, bulk_caps, stats=kernel_stats)
        return rates, kernel_stats.stalemates

    def _progress_flows(
        self,
        cycle: int,
        directives: DirectiveBatch,
        columns: FlowColumns,
        rates: Sequence[float],
        moved: Optional[Dict[int, float]] = None,
    ) -> Tuple[float, List[int], List[float]]:
        """Move ``rate × window`` bytes along every flow, block by block.

        A flow walks only the prefix of its rows its budget reaches, on
        the ``columns.need`` that :meth:`_flow_demands` left (sizes less
        the bytes buffered at the cycle's start), and writes the store
        after the walk. That is exact unless walked rows repeat a key:
        then the cycle is walked again with ``moved`` tracking each
        walked key's bytes, so a later row sees an earlier one's progress.

        A (source, destination) pair is the int ``src * num_servers +
        dst``; the pairs with a flow this cycle skip next cycle's set-up.
        Returns the bytes moved, the rows of ``columns`` whose transfer
        completed and their finish times: :meth:`_apply_deliveries` lands
        them after the walk, which reads nothing a delivery mutates, so
        deferring them is order-equivalent.
        """
        cfg = self.config
        dt = cfg.cycle_seconds
        now = cycle * dt
        cycle_end = (cycle + 1) * dt
        partial = self._partial
        prev_pairs = self._prev_pairs
        current_pairs: Set[int] = set()
        num_servers = self.store.matrix.num_servers
        done: List[int] = []
        finish: List[float] = []
        stops: List[int] = []
        takes: List[float] = []
        transferred = 0.0
        need, bounds = columns.need, columns.bounds
        if moved is not None:
            keys, sizes = columns.keys.tolist(), columns.sizes.tolist()
        for i, (src, dst) in enumerate(zip(directives.src, directives.dst)):
            rate = rates[i]
            if rate <= 0:
                continue
            pair = src * num_servers + dst
            window = dt - cfg.control_overhead_seconds
            if pair not in prev_pairs:
                window = max(0.0, window - cfg.flow_setup_seconds)
            current_pairs.add(pair)
            if window <= 0:
                continue
            budget = rate * window
            used = 0.0
            for row in range(bounds[i], bounds[i + 1]):
                if budget <= 1e-12:
                    break
                left = need[row]
                if moved is not None:
                    key = keys[row]
                    if key in moved:
                        left = sizes[row] - moved[key]
                take = left if left <= budget else budget
                budget -= take
                used += take
                # A microbyte of slack absorbs floating-point dust from
                # rate multiplications; without it a block can hover at
                # size - 1e-9 bytes forever (the router will not
                # schedule sub-nanobyte demands).
                if take < left - 1e-6:
                    stops.append(row)
                    takes.append(take)
                    if moved is not None:
                        moved[key] = moved.get(key, partial.get(key, 0.0)) + take
                    break
                done.append(row)
                at = now + (dt - window) + used / rate
                finish.append(cycle_end if cycle_end < at else at)
                if moved is not None:
                    moved[key] = 0.0
            transferred += used
        if moved is None and (done or stops):
            walked = done + stops
            keys = columns.keys[walked].tolist()
            if len(set(keys)) < len(keys):
                return self._progress_flows(cycle, directives, columns, rates, {})
            buffered = columns.buffered
            had = [0.0] * len(keys) if buffered is None else buffered[walked].tolist()
            n = len(done)  # rows done with bytes buffered, then rows stopped in
            moved = {keys[at]: 0.0 for at in range(n) if had[at]}
            moved.update((keys[at], had[at] + take) for at, take in enumerate(takes, n))
        if moved:
            partial.update(moved)
            for key in [key for key, have in moved.items() if not have]:
                del partial[key]
        self._prev_pairs = current_pairs
        return transferred, done, finish

    def _apply_deliveries(
        self, columns: FlowColumns, rows: List[int], finish: List[float]
    ) -> None:
        """Land one cycle's completed transfers, then book them.

        ``rows`` of ``columns`` completed at ``finish`` times, in walk
        order. They land as one ``store.record_deliveries`` scatter,
        which answers which placed a new copy (possession only grows, so
        a duplicate was booked before). A new copy on its block's
        assigned server in one of its job's destination DCs counts that
        (job, server)'s and that (job, DC)'s missing deliveries down,
        once per key; a count reaching zero books its completion at the
        finish time of the delivery that zeroed it — the key's last in
        walk order — and completions are booked in that order (for one
        delivery: server, DC, then job), as a loop over the deliveries
        would. A cycle's batch is often a dozen rows, so the array work
        is counted in calls and the per-key work is on Python ints.
        """
        cols = self._block_columns()
        matrix = self.store.matrix
        rows = np.array(rows, dtype=np.int64)
        flat = columns.flat[rows]
        dst = columns.dst[rows]
        when = np.array(finish)
        job = cols.starts.searchsorted(flat, side="right") - 1
        fresh = self.store.record_deliveries(
            dst, cols.gids[flat], columns.src[rows], when, cols.origin[job]
        )
        if not fresh.all():
            flat, dst, when, job = flat[fresh], dst[fresh], when[fresh], job[fresh]
        dest = cols.dest[job * cols.num_dcs + matrix.server_dc_ids[dst]]
        slot = MulticastJob.stripe_slot(
            flat - cols.starts[job], cols.stripe_width[dest]
        )
        counted = cols.stripe_sids[cols.stripe_lo[dest] + slot] == dst
        if not counted.all():
            job, dst, when = job[counted], dst[counted], when[counted]
        num_servers = matrix.num_servers
        keys = (job * num_servers + dst).tolist()
        when = when.tolist()
        last = {key: at for at, key in enumerate(keys)}
        names, dc_of, jobs = matrix.server_names, self.store.dc_of, self.jobs
        server_missing, dc_missing = self._server_missing, self._dc_missing
        booked: List[Tuple[int, bool, Tuple[str, str]]] = []
        per_dc: Dict[Tuple[str, str], List[int]] = {}
        for key, count in Counter(keys).items():
            job_id, server = jobs[key // num_servers].job_id, names[key % num_servers]
            skey = (job_id, server)
            left = server_missing[skey] - count
            server_missing[skey] = left
            if not left:
                booked.append((last[key], False, skey))
            tally = per_dc.setdefault((job_id, dc_of(server)), [0, -1])
            tally[0] += count
            tally[1] = max(tally[1], last[key])
        for dkey, (count, at) in per_dc.items():
            left = dc_missing[dkey] - count
            dc_missing[dkey] = left
            if not left:
                booked.append((at, True, dkey))
        dc_completion = self._dc_completion
        for at, is_dc, key in sorted(booked):
            if not is_dc:
                self._server_completion[key] = when[at]
                continue
            dc_completion[key] = when[at]
            job_id = key[0]
            dst_dcs = self._jobs_by_id[job_id].dst_dcs
            if all((job_id, dc) in dc_completion for dc in dst_dcs):
                self._job_completion[job_id] = max(
                    dc_completion[(job_id, dc)] for dc in dst_dcs
                )

    def _decision_telemetry(
        self, cycle: int, decide_runtime: float
    ) -> Dict[str, object]:
        """The :class:`CycleStats` fields the strategy's decision record feeds.

        A strategy without a decision log books its whole decide as
        scheduling. One with a log that logged nothing this cycle was in
        a controller outage (the fallback decided): that wall is neither
        scheduling nor routing; ``time_decide`` carries it.
        """
        telemetry: Dict[str, object] = {"time_schedule": decide_runtime}
        last_decision = getattr(self.strategy, "last_decision", None)
        if callable(last_decision):
            decision = last_decision()
            if decision is None or decision.cycle != cycle:
                telemetry["time_schedule"] = 0.0
            else:
                for stat, attr in _DECISION_TELEMETRY.items():
                    if hasattr(decision, attr):
                        telemetry[stat] = getattr(decision, attr)
        return telemetry

    def _record_link_stats(
        self,
        stats: CycleStats,
        paths: List[Tuple[int, ...]],
        rates: Sequence[float],
        online: Mapping[ResourceKey, float],
    ) -> None:
        """Fill ``stats`` with per-link bulk/online usage and the worst
        delay inflation over the links of interest (Fig. 6, Fig. 10).
        ``paths`` are the flows' resource numbers in the cycle cache."""
        cfg = self.config
        res_keys = self._cycle_cache.res_keys
        usage: Dict[ResourceKey, float] = {}
        for path, rate in zip(paths, rates):
            for res in path:
                key = res_keys[res]
                usage[key] = usage.get(key, 0.0) + rate
        caps = self.topology.resource_capacities()
        worst = 1.0
        for key in cfg.links_of_interest or tuple(self.topology.links):
            bulk = stats.link_bulk_usage[key] = usage.get(key, 0.0)
            used = stats.link_online_usage[key] = online.get(key, 0.0)
            worst = max(
                worst,
                delay_inflation((bulk + used) / caps[key], cfg.safety_threshold),
            )
        stats.max_delay_inflation = worst

    def _skip_idle(
        self, cycle: int, controller_ok: bool, log: Optional[CycleStatsLog]
    ) -> int:
        """Skip the idle cycles that follow ``cycle``; returns how many.

        Cycle ``cycle`` executed with no active job and no directive, for
        a strategy whose decide is a pure function of its view: until
        something outside moves, every next cycle is the same nothing.
        The stretch therefore stops short of the next job arrival, the
        next failure event, the next background change-point and
        ``max_cycles`` — the first cycle any of them affects executes
        normally. It lands as one run record, and the failure watermark
        advances past it so later queries agree.
        """
        last = self.config.max_cycles - 1
        if self._arrival_ptr < len(self._arrival_cycles):
            last = min(last, self._arrival_cycles[self._arrival_ptr] - 1)
        if self.failures is not None:
            change = self.failures.next_change_after(cycle)
            if change is not None:
                last = min(last, change - 1)
        if self.background is not None:
            change = self.background.next_change_after(
                cycle, self.config.cycle_seconds
            )
            if change is not None:
                last = min(last, change - 1)
        skipped = last - cycle
        if skipped <= 0:
            return 0
        if log is not None:
            log.append_run(
                CycleStats(
                    cycle=cycle + 1,
                    time=(cycle + 1) * self.config.cycle_seconds,
                    blocks_delivered=0,
                    bytes_transferred=0.0,
                    active_flows=0,
                    controller_available=controller_ok,
                    fast_forwarded=True,
                ),
                skipped,
            )
        if self.failures is not None:
            self.failures.advance_to(last)
        return skipped


class OverlayStrategyLike:
    """Typing helper documenting the strategy duck-type the simulator uses.

    Real strategies subclass :class:`repro.baselines.base.OverlayStrategy`.
    """

    uses_controller_rates: bool = False
    respects_safety_threshold: bool = False

    def decide(self, view: ClusterView) -> Sequence[TransferDirective]:
        raise NotImplementedError


class ControllerReplicaSetLike:
    """Duck-type of :class:`repro.core.fault.ControllerReplicaSet`."""

    def fail(self, name: str) -> None:
        raise NotImplementedError

    def recover(self, name: str) -> None:
        raise NotImplementedError

    def tick(self) -> None:
        raise NotImplementedError

    def has_leader(self) -> bool:
        raise NotImplementedError


class AgentMonitorLike:
    """Duck-type of :class:`repro.overlay.monitor.AgentMonitor`."""

    def feedback_loop(self, agents, blocks_by_server, algorithm_runtime):
        raise NotImplementedError
