"""The BDS controller: fully centralized overlay control (§3, §5.1, Fig. 8).

Each cycle the controller (1) reads the global data-delivery view, (2) runs
the scheduling step, (3) runs the routing step, and (4) emits rate-capped
transfer directives for the agents. When the controller is unreachable
(all replicas down or the DC partitioned away), agents *fall back to the
decentralized overlay protocol* — Gingko — ensuring graceful degradation
(§5.3); performance recovers the cycle the controller returns (Fig. 12a).

**Sharded control plane** (``BDSConfig.shards > 1``): the job set is
partitioned across controller shards by a platform-stable hash of job
id (:func:`repro.core.sharding.stable_shard`). Jobs are independent
except for WAN link budgets — blocks belong to exactly one job, so
possession, scheduling, and routing all decompose — and every shard
with an active job runs the full vectorized schedule+route pipeline on
its own partition, every cycle.

A shard is a subset of jobs, not a copy of the store: each shard
decides on the live view restricted to its bucket — on a speculating
cycle (§5.1) the one :class:`~repro.core.speculation.SpeculatedView`
the single controller would read — and keeps private only its
per-decide state (a :class:`~repro.core.shardexec.ShardMirror`: its
partition's candidate table, a
:class:`~repro.net.cycle_cache.CycleCache` and the FPTAS warm store;
see :mod:`repro.core.shardexec`), so per-shard memory and cold-build
work are O(pairs/shards). The shared capacities are resolved afterwards
by one outer
max-min waterfill (:func:`repro.net.flow.max_min_fair_rates` — the data plane's
own allocator) over every shard's directives against the
budget-adjusted capacities, so no directive's cap exceeds its global
fair share and the Fig. 10 "sum of assigned rates never exceeds the
budget" property holds at the controller output already.

``shards=1`` takes the original single-controller path, bit-identical to
before the knob existed; ``shards=k`` is deterministic (shards decide
and are combined in index order).
"""

from __future__ import annotations

import dataclasses
import math
import time as _time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import OverlayStrategy
from repro.baselines.gingko import GingkoStrategy
from repro.core.config import BDSConfig
from repro.core.decisions import ControlDecision
from repro.core.sharding import stable_shard
from repro.core.shardexec import (
    DecideResult,
    LocalShardRunner,
    build_pipeline,
    schedule_and_route,
)
from repro.core.speculation import DeliverySpeculator, SpeculatedView
from repro.net.directive import DirectiveBatch, TransferDirective
from repro.net.view import ClusterView
from repro.overlay.job import MulticastJob
from repro.utils.rng import SeedLike


class BDSController(OverlayStrategy):
    """Centralized scheduler + router with decentralized fallback."""

    uses_controller_rates = True
    respects_safety_threshold = True
    # With no active job the controller decides nothing, whatever its
    # speculation state: the event engine may skip idle cycles.
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
        self._speculator = (
            DeliverySpeculator(self.config.speculation_horizon)
            if self.config.speculation_horizon > 0
            else None
        )
        self._previous_directives: Sequence[TransferDirective] = []
        # Sharded control plane (shards > 1): the lazily built per-shard
        # state.
        self._shard_runner: Optional[LocalShardRunner] = None

    @property
    def shard_signature(self) -> bool:
        """Whether shards decide against their own partition-scoped
        candidate tables: the :class:`~repro.net.simulator.Simulation`
        then skips building the global one."""
        return self.config.shards > 1

    def decide(self, view: ClusterView) -> Sequence[TransferDirective]:
        """One control cycle: schedule, route, emit directives.

        The directives are the router's :class:`DirectiveBatch`
        (concatenated and reconciled across shards), with any partition
        fallback's appended; an outage returns the fallback's own batch.

        When ``view.controller_available`` is false the decentralized
        fallback decides instead; its flows are *not* rate-capped by the
        simulator because ``uses_controller_rates`` only applies while the
        controller is reachable (the simulator checks both).
        """
        if not view.controller_available:
            return self.fallback.decide(view)

        # §5.3 partition handling: DCs severed from the controller's DC run
        # on the fallback; the controller only commands its own partition.
        fallback_directives: Sequence[TransferDirective] = []
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
                batch = DirectiveBatch.pack(
                    self.fallback.decide(view), view.store.matrix
                )
                fallback_directives = batch.keep(
                    [batch.names[dst] in severed_servers for dst in batch.dst]
                )
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
        return DirectiveBatch.concat(
            [result.directives, fallback_directives], view.store.matrix
        )

    def _log_decision(
        self,
        cycle: int,
        directives: Sequence[TransferDirective],
        results: List[DecideResult],
        **shard_telemetry,
    ) -> None:
        """Record the cycle's decision: ``directives`` as emitted, the
        schedule+routes' telemetry summed, and — sharded — the
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
        fallback_directives: Sequence[TransferDirective],
        speculated: Optional[Tuple[np.ndarray, np.ndarray]],
    ) -> Sequence[TransferDirective]:
        """Partitioned decide: per-shard decides + WAN reconciliation.

        ``view`` is the real one; the shards read it, or the
        :class:`SpeculatedView` of the cycle's ``speculated`` deliveries.
        """
        cfg = self.config
        if self._shard_runner is None:
            # The shards' candidate tables index the live matrix.
            self._shard_runner = LocalShardRunner(cfg, view.store.matrix)
        k = cfg.shards
        buckets: List[List[MulticastJob]] = [[] for _ in range(k)]
        for job in view.jobs:
            buckets[stable_shard(job.job_id, k)].append(job)
        shard_view = SpeculatedView(view, *speculated) if speculated else view
        results = self._shard_runner.decide(shard_view, buckets)
        directives = DirectiveBatch.concat(
            [r.directives for r in results if r.directives],
            view.store.matrix,
        )

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
                math.fsum(shard_walls) / len(shard_walls) if shard_walls else 0.0
            ),
            reconcile_runtime=reconcile_runtime,
            reconciled_directives=reconciled,
            shard_state_bytes=max((r.state_bytes for r in results), default=0),
            shard_payload_bytes=sum(r.payload_bytes for r in results),
        )
        return DirectiveBatch.concat(
            [directives, fallback_directives], view.store.matrix
        )

    def _reconcile_wan(
        self,
        view: ClusterView,
        directives: DirectiveBatch,
    ) -> Tuple[DirectiveBatch, int]:
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
        the pass is too.

        The batch stays columns: a capped directive's path is its pair's
        row of the simulator's cycle cache (as the data plane reads it),
        and the lowered caps come back as a new caps column over the
        same rows.
        """
        from repro.net import flow

        capped = [i for i, cap in enumerate(directives.caps) if cap is not None]
        paths = view.path_rows(
            [directives.src[i] for i in capped],
            [directives.dst[i] for i in capped],
        )
        # A pair partitioned off is left out; the simulator drops it too.
        capped = [i for i, path in zip(capped, paths) if path]
        paths = [path for path in paths if path]
        requested = [directives.caps[i] for i in capped]
        if len(capped) <= 1:
            return directives, 0
        rates = flow.max_min_fair_rates(
            flow.FlowRows(paths, requested, view._cache.res_keys),
            view.bulk_capacities,
        )
        caps = list(directives.caps)
        reconciled = 0
        for i, asked, rate in zip(capped, requested, rates):
            if rate < asked:
                caps[i] = rate
                reconciled += 1
        if not reconciled:
            return directives, 0
        # Rows, bounds and endpoints shared; objects rebuilt on request.
        return dataclasses.replace(directives, caps=caps, _objects=None), reconciled

    def last_decision(self) -> Optional[ControlDecision]:
        return self.decisions[-1] if self.decisions else None
