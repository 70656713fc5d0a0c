"""What a run reports: per-cycle :class:`CycleStats` and the :class:`SimResult`."""

from __future__ import annotations

import bisect
import itertools
import math
from collections import abc
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.net.topology import ResourceKey
from repro.overlay.store import PossessionIndex


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
    # per-shard schedule+route wall over the shards that decided this
    # cycle, and the outer WAN-reconciliation wall.
    shard_count: int = 0
    time_shard_max: float = 0.0
    time_shard_mean: float = 0.0
    time_reconcile: float = 0.0
    # Shard-local state telemetry, forwarded from the strategy's
    # decision record (zeros when unsharded): max per-shard
    # candidate-table bytes over the shards that decided, and the summed
    # structural size of the jobs those shards saw for the first time.
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


class CycleStatsLog(abc.Sequence):
    """A run's per-cycle :class:`CycleStats`, skipped idle stretches as runs.

    Reads like the list it replaces (``len``, index, slice, iteration,
    ``==`` against a list, truthiness, pickle). A stretch of cycles the
    event engine skipped in one pass is stored as a single record — its
    first cycle's stats and a count: the cycles of a stretch differ only
    in ``cycle`` and ``time`` — and expanded into per-cycle objects only
    when read as such. :meth:`runs` reads the records as they are.
    """

    def __init__(self, cycle_seconds: float) -> None:
        self._first: List[CycleStats] = []
        self._count: List[int] = []
        #: Per record, the position of its first cycle (built on demand).
        self._starts: Optional[List[int]] = None
        self._len = 0
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
    #: Per-cycle records, as runs.
    cycle_stats: CycleStatsLog
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
        runs = list(self.cycle_stats.runs())
        return {
            stage: math.fsum(getattr(first, field_name) * count for first, count in runs)
            for stage, field_name in _STAGE_TIME_FIELDS.items()
        }

    def total_rate_stalemates(self) -> int:
        """Waterfill stalemate iterations across the run (diagnostic)."""
        return sum(
            first.rate_stalemates * count
            for first, count in self.cycle_stats.runs()
        )

    def total_bytes_transferred(self) -> float:
        """Bytes moved across all flows over the whole run."""
        return math.fsum(
            first.bytes_transferred * count for first, count in self.cycle_stats.runs()
        )

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
        """A short human-readable report of the run (``repro simulate``)."""
        lines = [
            f"cycles run        : {self.cycles_run}",
            f"simulated time    : {self.sim_time:.1f}s",
            f"wall time         : {self.wall_time:.2f}s",
            f"jobs completed    : {len(self.job_completion)}",
            f"all complete      : {self.all_complete}",
            f"bytes moved       : {self.total_bytes_transferred():.3g}",
        ]
        for job_id in sorted(self.job_completion):
            lines.append(
                f"  {job_id}: done at {self.job_completion[job_id]:.1f}s"
            )
        return "\n".join(lines)
