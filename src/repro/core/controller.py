"""The BDS controller: fully centralized overlay control (§3, §5.1, Fig. 8).

Each cycle the controller (1) reads the global data-delivery view, (2) runs
the scheduling step, (3) runs the routing step, and (4) emits rate-capped
transfer directives for the agents. When the controller is unreachable
(all replicas down or the DC partitioned away), agents *fall back to the
decentralized overlay protocol* — Gingko — ensuring graceful degradation
(§5.3); performance recovers the cycle the controller returns (Fig. 12a).

**Sharded control plane** (``BDSConfig.shards > 1``): the job set is
partitioned across controller shards — by a platform-stable hash
of job id (:mod:`repro.core.sharding`), or with
``shard_partition="affinity"`` by the greedy source-affinity assigner
(jobs sharing a source DC co-locate, balanced by pair-count weight, hash
tie-breaks), which lowers the outer reconciliation's clip count because
one shard sees the contention on its origin links. Jobs are independent
except for WAN link budgets — blocks belong to exactly one job, so
possession, scheduling, and routing all decompose — and each shard runs
the full vectorized schedule+route pipeline on its own partition.

Each shard owns **only its partition's state**: a
:class:`~repro.core.shardexec.ShardMirror` in this process with a
shard-local possession index, candidate table, and
:class:`~repro.net.cycle_cache.CycleCache`, fed by delivery-log
watermark replay (see :mod:`repro.core.shardexec`) — per-shard memory
and cold-build work are O(pairs/shards). A cycle's
speculated deliveries (§5.1) are handed to the mirrors beside the
replay, and each overlays its own store with its share for that decide.
The shared capacities are resolved afterwards by one outer
max-min waterfill (:func:`repro.net.flow.max_min_fair_rates` — the data plane's
own allocator) over every shard's directives against the
budget-adjusted capacities, so no directive's cap exceeds its global
fair share and the Fig. 10 "sum of assigned rates never exceeds the
budget" property holds at the controller output already.

``shard_stride="auto"`` replaces the static decide cadence with an
adaptive control law: the stride starts maximally staggered (stride =
shards, one shard's decide per cycle — the safe side of the ΔT budget,
since nothing is known about per-shard cost yet) and then tracks an
EWMA of the measured per-shard wall (``time_shard_max``): it narrows
one step at a time while the projected per-cycle controller wall —
``ceil(shards/stride)`` shards' worth of work — stays under 70 % of
half of ``cycle_seconds``, and widens back immediately
when the projection exceeds that budget (narrowing has the hysteresis;
widening has none — the budget is a feasibility bound, §5.2's ΔT, not
a preference).

``shards=1`` takes the original single-controller path, bit-identical to
before the knob existed; ``shards=k`` is deterministic (shards decide
and are combined in index order).
"""

from __future__ import annotations

import math
import time as _time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.base import OverlayStrategy
from repro.baselines.gingko import GingkoStrategy
from repro.core.config import SHARD_STRIDE_AUTO, BDSConfig
from repro.core.decisions import ControlDecision
from repro.core.sharding import AffinityAssigner, stable_shard
from repro.core.shardexec import (
    DecideResult,
    LocalShardRunner,
    build_pipeline,
    schedule_and_route,
)
from repro.core.speculation import DeliverySpeculator, SpeculatedView
from repro.net.simulator import ClusterView, TransferDirective
from repro.overlay.job import MulticastJob
from repro.utils.rng import SeedLike

#: Adaptive-stride control-law constants (``shard_stride="auto"``):
#: smoothing factor of the per-shard wall EWMA, the fraction of ΔT the
#: projected per-cycle controller wall is kept under, and the hysteresis
#: fraction of that budget the projection must fall under before the
#: stride narrows (widening has no hysteresis — the budget is a
#: feasibility bound, §5.2's ΔT, not a preference).
_STRIDE_EWMA_ALPHA = 0.3
_STRIDE_TARGET_FRACTION = 0.5
_STRIDE_NARROW_FRACTION = 0.7


class _ShardPipeline:
    """One shard's replay state for the stride cadence
    (``BDSConfig.shard_stride``): between a shard's decide turns its
    last fresh directives are replayed verbatim (the simulator
    re-validates them and refreshes their demands every cycle), and any
    change of the failure/topology context forces an immediate fresh
    decide.
    """

    __slots__ = ("directives", "context")

    def __init__(self) -> None:
        self.directives: Optional[List[TransferDirective]] = None
        self.context: Optional[tuple] = None


class BDSController(OverlayStrategy):
    """Centralized scheduler + router with decentralized fallback."""

    uses_controller_rates = True
    respects_safety_threshold = True
    # With no active job the controller decides nothing, whatever its
    # replay or speculation state: the event engine may skip idle cycles.
    decisions_reusable = True

    def __init__(
        self,
        config: Optional[BDSConfig] = None,
        fallback: Optional[OverlayStrategy] = None,
        seed: SeedLike = None,
        controller_dc: Optional[str] = None,
    ) -> None:
        """``controller_dc`` locates the controller for §5.3 partition
        handling: when WAN link failures cut DCs off from it, those DCs'
        transfers run on the decentralized fallback while the rest stay
        centrally controlled. ``None`` (default) treats the controller as
        reachable from everywhere."""
        self.config = config or BDSConfig()
        self.controller_dc = controller_dc
        self.scheduler, self.router = build_pipeline(self.config)
        self.fallback = fallback or GingkoStrategy(seed=seed)
        self.decisions: List[ControlDecision] = []
        self._fallback_active = False
        self._speculator = (
            DeliverySpeculator(self.config.speculation_horizon)
            if self.config.speculation_horizon > 0
            else None
        )
        self._previous_directives: List[TransferDirective] = []
        # Sharded control plane (shards > 1): per-shard replay state, the
        # memoized job→shard assignment (sticky — possession state lives
        # where the job lives), the lazily built mirrors, and the
        # adaptive stride state.
        self._pipelines: List[_ShardPipeline] = (
            [_ShardPipeline() for _ in range(self.config.shards)]
            if self.config.shards > 1
            else []
        )
        self._shard_assign: Dict[str, int] = {}
        self._affinity: Optional[AffinityAssigner] = (
            AffinityAssigner(self.config.shards)
            if self.config.shards > 1
            and self.config.shard_partition == "affinity"
            else None
        )
        self._shard_runner: Optional[LocalShardRunner] = None
        self._stride_auto = self.config.shard_stride == SHARD_STRIDE_AUTO
        # Auto mode starts maximally staggered (one shard per cycle) and
        # narrows as measurements show slack; a static stride is taken
        # as configured.
        self._stride: int = (
            max(1, self.config.shards)
            if self._stride_auto
            else int(self.config.shard_stride)
        )
        self._shard_wall_ewma: float = 0.0

    @property
    def fallback_active(self) -> bool:
        """Whether the last cycle ran on the decentralized fallback."""
        return self._fallback_active

    @property
    def shard_signature(self) -> Optional[Tuple[int, int, str]]:
        """The shard layout in force, ``None`` on the single-controller path.

        ``(shards, effective_stride, shard_partition)`` — the
        *effective* stride, which moves under ``shard_stride="auto"``.
        The :class:`~repro.net.simulator.Simulation` reads "sharded" off
        it: shards decide against their own mirrors' candidate tables,
        so it skips building the global one.
        """
        if self.config.shards <= 1:
            return None
        return (
            self.config.shards,
            self._stride,
            self.config.shard_partition,
        )

    def _assign_shard(self, job: MulticastJob) -> int:
        """The job's shard, assigning it on first sight (sticky after)."""
        shard = self._shard_assign.get(job.job_id)
        if shard is None:
            if self._affinity is not None:
                shard = self._affinity.assign(job)
            else:
                shard = stable_shard(job.job_id, self.config.shards)
            self._shard_assign[job.job_id] = shard
        return shard

    def _shard_of_id(self, job_id: str) -> int:
        """Shard ownership lookup by bare job id (the feed's filter).

        Every job with possession churn was bucketed — and therefore
        assigned — before its first delivery, so the memo answers; the
        stable-hash fallback only covers ids the controller has never
        seen (nothing real routes through it, and it is not memoized so
        an affinity assignment made later still wins).
        """
        shard = self._shard_assign.get(job_id)
        if shard is not None:
            return shard
        return stable_shard(job_id, self.config.shards)

    def decide(self, view: ClusterView) -> List[TransferDirective]:
        """One control cycle: schedule, route, emit directives.

        When ``view.controller_available`` is false the decentralized
        fallback decides instead; its flows are *not* rate-capped by the
        simulator because ``uses_controller_rates`` only applies while the
        controller is reachable (the simulator checks both).
        """
        if not view.controller_available:
            self._fallback_active = True
            return self.fallback.decide(view)
        self._fallback_active = False

        # §5.3 partition handling: DCs severed from the controller's DC run
        # on the fallback; the controller only commands its own partition.
        fallback_directives: List[TransferDirective] = []
        if self.controller_dc is not None and view.failed_links:
            reachable = view.topology.reachable_dcs(
                self.controller_dc, view.failed_links
            )
            severed_servers = {
                server.server_id
                for server in view.topology.servers.values()
                if server.dc not in reachable
            }
            if severed_servers:
                fallback_directives = [
                    d
                    for d in self.fallback.decide(view)
                    if view.store.dc_of(d.dst_server) not in reachable
                ]
                view = view.with_extra_failed_agents(severed_servers)

        # §5.1: (server ids, block column ids) expected to land while
        # this decide runs, or None.
        speculated = None
        if self._speculator is not None and self._previous_directives:
            sids, gids = self._speculator.speculate(
                view, self._previous_directives
            )
            if len(gids):
                speculated = (sids, gids)

        if self.config.shards > 1:
            return self._decide_sharded(view, fallback_directives, speculated)

        if speculated:
            view = SpeculatedView(view, *speculated)
        result = schedule_and_route(self.scheduler, self.router, view)
        self._log_decision(view.cycle, result.directives, [result])
        return result.directives + fallback_directives

    def _log_decision(
        self,
        cycle: int,
        directives: List[TransferDirective],
        results: List[DecideResult],
        **shard_telemetry,
    ) -> None:
        """Record the cycle's decision: ``directives`` as emitted, the
        fresh schedule+routes' telemetry summed, and — sharded — the
        control plane's own."""
        decision = ControlDecision(
            cycle=cycle, directives=directives, **shard_telemetry
        )
        warm_starts = set()
        for r in results:
            decision.scheduled_blocks += r.scheduled_blocks
            decision.num_commodities += r.num_commodities
            decision.schedule_runtime += r.schedule_runtime
            decision.routing_runtime += r.routing_runtime
            decision.objective += r.objective
            decision.routing_iterations += r.iterations
            decision.routing_phases += r.phases
            if r.warm_start:
                warm_starts.add(r.warm_start)
        decision.routing_warm_start = (
            "mixed" if len(warm_starts) > 1 else "".join(warm_starts)
        )
        self.decisions.append(decision)
        self._previous_directives = directives

    # -- sharded control plane -------------------------------------------------

    def _decide_sharded(
        self,
        view: ClusterView,
        fallback_directives: List[TransferDirective],
        speculated: Optional[Tuple[np.ndarray, np.ndarray]],
    ) -> List[TransferDirective]:
        """Partitioned decide: per-shard mirrors + WAN reconciliation.

        ``view`` is the real one; the cycle's ``speculated`` deliveries
        cross to the mirrors by name (each numbers blocks its own way).
        """
        cfg = self.config
        pairs: List[Tuple[Tuple[str, int], str]] = []
        if speculated:
            matrix = view.store.matrix
            pairs = [
                (matrix.block_names[gid], matrix.server_names[sid])
                for sid, gid in zip(*(ids.tolist() for ids in speculated))
            ]
        k = cfg.shards
        stride = self._stride
        buckets: List[List[MulticastJob]] = [[] for _ in range(k)]
        for job in view.jobs:
            buckets[self._assign_shard(job)].append(job)

        context = (view._failed_frozen, view.failed_links, view.topology.epoch)

        due: List[int] = []
        for s in range(k):
            pipe = self._pipelines[s]
            if not buckets[s]:
                # Shard has no active jobs: nothing to decide or replay.
                pipe.directives = []
                pipe.context = context
                continue
            # A shard decides on its stride turn; off-turn it replays its
            # cached directives — or contributes nothing if it has not
            # had a turn yet (staggered cold start: this is what bounds
            # the per-cycle controller wall to ~ceil(k/stride) shards'
            # work even on cycle 0). Two events break the cadence: a
            # failure/topology context change invalidates cached
            # directives (refresh immediately rather than replay stale
            # ones), and speculated deliveries make the cycle's
            # possession bespoke.
            if (
                stride <= 1
                or view.cycle % stride == s % stride
                or (pipe.directives is not None and pipe.context != context)
                or pairs
            ):
                due.append(s)

        results: List[DecideResult] = []
        if due:
            # Each due shard decides against its own mirror (possession
            # index, candidate table, cache), fed by watermark replay.
            if self._shard_runner is None:
                self._shard_runner = LocalShardRunner(cfg, self._shard_of_id)
            results = self._shard_runner.decide(view, buckets, due, pairs)
        for s, outcome in zip(due, results):
            pipe = self._pipelines[s]
            pipe.directives = outcome.directives
            pipe.context = context

        directives: List[TransferDirective] = []
        for pipe in self._pipelines:
            if pipe.directives:
                directives.extend(pipe.directives)

        reconcile_started = _time.perf_counter()
        directives, reconciled = self._reconcile_wan(view, directives)
        reconcile_runtime = _time.perf_counter() - reconcile_started

        shard_walls = [r.wall for r in results]
        self._log_decision(
            view.cycle,
            directives,
            results,
            shard_count=k,
            shard_wall_max=max(shard_walls, default=0.0),
            shard_wall_mean=(
                sum(shard_walls) / len(shard_walls) if shard_walls else 0.0
            ),
            reconcile_runtime=reconcile_runtime,
            reconciled_directives=reconciled,
            shard_stride=stride,
            shard_state_bytes=max((r.state_bytes for r in results), default=0),
            shard_candidate_bytes=max(
                (r.candidate_bytes for r in results), default=0
            ),
            shard_payload_bytes=sum(r.payload_bytes for r in results),
        )
        if self._stride_auto and shard_walls:
            self._adapt_stride(max(shard_walls), view.cycle_seconds)
        return directives + fallback_directives

    def _adapt_stride(self, wall_max: float, cycle_seconds: float) -> None:
        """One step of the adaptive-stride control law (auto mode only).

        Updates the EWMA of the measured per-shard wall
        (``time_shard_max``), then projects the per-cycle controller
        wall at a candidate stride q as ``ceil(shards/q) × EWMA`` — the
        work of the shards due on one cycle. Starting from the
        maximally staggered cold-start stride (= shards), the stride
        narrows one step at a time only while the projection one step
        tighter stays under 70 % of half of ``cycle_seconds`` — the
        hysteresis band that keeps a workload
        sitting at the boundary from oscillating — and widens (one step
        at a time, immediately) while the projection at the current
        stride exceeds the budget.
        """
        k = self.config.shards
        ewma = self._shard_wall_ewma
        self._shard_wall_ewma = (
            wall_max
            if ewma <= 0.0
            else (1.0 - _STRIDE_EWMA_ALPHA) * ewma
            + _STRIDE_EWMA_ALPHA * wall_max
        )
        target = _STRIDE_TARGET_FRACTION * cycle_seconds

        def projected(q: int) -> float:
            return math.ceil(k / q) * self._shard_wall_ewma

        stride = self._stride
        if projected(stride) > target:
            while stride < k and projected(stride) > target:
                stride += 1
        else:
            while (
                stride > 1
                and projected(stride - 1) <= _STRIDE_NARROW_FRACTION * target
            ):
                stride -= 1
        self._stride = stride

    def _reconcile_wan(
        self,
        view: ClusterView,
        directives: List[TransferDirective],
    ) -> Tuple[List[TransferDirective], int]:
        """Outer shared-capacity reconciliation over all shards' directives.

        Each shard routed against the *full* link budgets, so the
        combined rate caps can oversubscribe shared resources. One
        max-min waterfill (:func:`repro.net.flow.max_min_fair_rates` —
        the data plane's own allocator) over the combined directives,
        with each directive's requested cap as its flow cap and the
        budget-adjusted capacities (``view.bulk_capacities``) as the
        resource limits, rewrites every cap to at most the directive's
        global fair share. Max-min (rather than a proportional clip)
        matters for quality: a flow that requested no more than its fair
        share keeps its full request, and the freed headroom goes to the
        flows that can use it — a proportional clip starves exactly the
        flows the single controller would have left alone, which showed
        up as a multi-percent completion-time regression. Directives are
        kept in shard-major order and the kernel is deterministic, so
        the pass is too; path lookups go through ``view.flow_resources``,
        sharing the simulator's warm path memos.
        """
        from repro.net.flow import Flow, max_min_fair_rates

        capped: List[int] = []
        flows: List[Flow] = []
        requested: List[float] = []
        for i, d in enumerate(directives):
            if d.rate_cap is None:
                continue
            res = view.flow_resources(d.src_server, d.dst_server)
            if res is None:
                continue  # partitioned off; the simulator drops it too
            flows.append(
                Flow(flow_id=len(capped), resources=res, rate_cap=d.rate_cap)
            )
            capped.append(i)
            requested.append(d.rate_cap)
        if len(capped) <= 1:
            return directives, 0
        rates = max_min_fair_rates(flows, view.bulk_capacities)
        reconciled = 0
        out = list(directives)
        for j, i in enumerate(capped):
            new_cap = float(rates[j])
            if new_cap < requested[j]:
                out[i] = out[i].with_rate_cap(new_cap)
                reconciled += 1
        return out, reconciled

    def last_decision(self) -> Optional[ControlDecision]:
        return self.decisions[-1] if self.decisions else None

    def mean_runtime(self) -> float:
        """Mean controller running time across cycles (Fig. 11a metric)."""
        if not self.decisions:
            return 0.0
        return sum(d.total_runtime for d in self.decisions) / len(self.decisions)
