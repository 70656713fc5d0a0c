"""The BDS controller: fully centralized overlay control (§3, §5.1, Fig. 8).

Each cycle the controller (1) reads the global data-delivery view, (2) runs
the scheduling step, (3) runs the routing step, and (4) emits rate-capped
transfer directives for the agents. When the controller is unreachable
(all replicas down or the DC partitioned away), agents *fall back to the
decentralized overlay protocol* — Gingko — ensuring graceful degradation
(§5.3); performance recovers the cycle the controller returns (Fig. 12a).
Every view the controller decides on besides the simulator's is that
view's :meth:`~repro.net.view.ClusterView.replace`: the partition clone
(§5.3) and, on a speculating cycle (§5.1), the view with the previous
directives' expected deliveries landed
(:func:`~repro.core.speculation.speculate`). Each decide is logged as
one :class:`~repro.core.decisions.ControlDecision`, the record
:func:`~repro.core.shardexec.schedule_and_route` returns (folded across
shards by :meth:`ControlDecision.fold
<repro.core.decisions.ControlDecision.fold>`); its directives are what
the next cycle speculates on.

**Sharded control plane** (``BDSConfig.shards > 1``): the job set is
partitioned across controller shards by a platform-stable hash of job
id (:func:`repro.core.sharding.stable_shard`). Jobs are independent
except for WAN link budgets — blocks belong to exactly one job, so
possession, scheduling, and routing all decompose — and every shard
with an active job runs the full vectorized schedule+route pipeline on
its own partition, every cycle.

A shard is a subset of jobs, not a copy of the store: each shard
decides on the view the single controller would read (speculated or
not), restricted to its bucket, and keeps private only its
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
import time as _time
from typing import List, Optional, Sequence, Tuple

from repro.baselines.base import OverlayStrategy
from repro.baselines.gingko import GingkoStrategy
from repro.core.config import BDSConfig
from repro.core.decisions import ControlDecision
from repro.core.sharding import stable_shard
from repro.core.shardexec import (
    LocalShardRunner,
    build_pipeline,
    schedule_and_route,
)
from repro.core.speculation import speculate
from repro.net.directive import DirectiveBatch, TransferDirective
from repro.net.view import ClusterView
from repro.overlay.job import MulticastJob
from repro.overlay.store import PossessionOverlay
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
        # What §5.1's speculation reads: the last decision's directives.
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
        cfg = self.config
        if cfg.shards > 1 and self._shard_runner is None:
            # The shards' candidate tables index the live matrix.
            self._shard_runner = LocalShardRunner(cfg, view.store.matrix)

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
                view = view.replace(
                    failed_agents=view.failed_agents | severed_servers
                )

        # §5.1: decide on the view with the deliveries expected to land
        # while this decide runs already landed.
        if cfg.speculation_horizon > 0 and self._previous_directives:
            sids, gids = speculate(
                view, self._previous_directives, cfg.speculation_horizon
            )
            if len(gids):
                view = view.replace(store=PossessionOverlay(view.store, sids, gids))

        if cfg.shards > 1:
            decision = self._decide_sharded(view)
        else:
            decision = schedule_and_route(self.scheduler, self.router, view)
        self.decisions.append(decision)
        self._previous_directives = decision.directives
        return DirectiveBatch.concat(
            [decision.directives, fallback_directives], view.store.matrix
        )

    # -- sharded control plane -------------------------------------------------

    def _decide_sharded(self, view: ClusterView) -> ControlDecision:
        """Partitioned decide: per-shard decides + WAN reconciliation."""
        k = self.config.shards
        buckets: List[List[MulticastJob]] = [[] for _ in range(k)]
        for job in view.jobs:
            buckets[stable_shard(job.job_id, k)].append(job)
        shards = self._shard_runner.decide(view, buckets)
        directives = DirectiveBatch.concat(
            [s.directives for s in shards if s.directives], view.store.matrix
        )
        reconcile_started = _time.perf_counter()
        directives, reconciled = self._reconcile_wan(view, directives)
        return ControlDecision.fold(
            view.cycle,
            directives,
            shards,
            shard_count=k,
            reconcile_runtime=_time.perf_counter() - reconcile_started,
            reconciled_directives=reconciled,
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
