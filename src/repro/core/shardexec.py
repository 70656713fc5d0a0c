"""Shard-local execution for the sharded controller.

A shard (``BDSConfig.shards > 1``) is a subset of the jobs, not a copy
of the store. Each shard with an active job decides on the
controller's :class:`~repro.net.view.ClusterView`, replaced
(:meth:`~repro.net.view.ClusterView.replace`) by its bucket of jobs
and its own cache and table: it reads the simulator's
:class:`~repro.overlay.store.PossessionIndex` — or, on a speculating
cycle (§5.1), the controller's one overlay of it — together with the
clock, budgets, failure sets, partial bytes and topology. Possession is
held once, in the store.

What a shard keeps private is its per-decide state, in a
:class:`ShardMirror` (it mirrors nothing; the perf ledger reads
``LocalShardRunner._mirrors[i].cache`` by these names): the
scheduler/router pair with the router's FPTAS warm
store, a persistent :class:`~repro.net.cycle_cache.CycleCache`, and a
partition-scoped :class:`~repro.net.candidates.CandidateTable` over the
live possession matrix, grown the first time each job reaches the shard
— so candidate memory is O(its partition's pairs) and the simulator
skips its global table. :class:`ShardFeed` says which jobs those are.

A shard decides exactly what a single controller would decide for its
jobs: blocks belong to exactly one job, so holders, duplicate counts and
iteration orders are those of the global view.

Determinism: shards are decided in shard-index order, so the
combined directive list is a function of the view alone.

:func:`build_pipeline` and :func:`schedule_and_route` are the one
schedule+route a shard and the single controller (``shards=1``, on the
global view) both run; its record is the
:class:`~repro.core.decisions.ControlDecision` the controller logs, or
folds across shards.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.config import BDSConfig
from repro.core.decisions import ControlDecision
from repro.core.routing import BDSRouter
from repro.core.scheduling import RarestFirstScheduler
from repro.net.candidates import CandidateTable
from repro.net.cycle_cache import CycleCache
from repro.net.view import ClusterView
from repro.overlay.job import MulticastJob
from repro.overlay.store import PossessionMatrix


@dataclass
class ShardPayload:
    """The jobs a shard sees for the first time this cycle."""

    new_jobs: List[MulticastJob] = field(default_factory=list)

    def approx_bytes(self) -> int:
        """Structural size of the new jobs (bytes): 256 per job and 96
        per block, fixed per-entry costs so the telemetry is
        deterministic."""
        return sum(256 + 96 * job.num_blocks for job in self.new_jobs)


def build_pipeline(
    config: BDSConfig,
) -> Tuple[RarestFirstScheduler, BDSRouter]:
    """The scheduler/router pair ``config`` describes (the router with a
    private FPTAS warm store)."""
    scheduler = RarestFirstScheduler(
        max_blocks_per_cycle=config.max_blocks_per_cycle,
        use_relays=config.use_relays,
    )
    router = BDSRouter(
        backend=config.routing_backend,
        merge_blocks=config.merge_blocks,
    )
    return scheduler, router


def schedule_and_route(scheduler, router, view: ClusterView) -> ControlDecision:
    """One schedule+route over ``view``: its decision, the telemetry read
    off the scheduler and the router's diagnostics."""
    selections = scheduler.select(view)
    directives, diag = router.route(view, selections)
    return ControlDecision(
        cycle=view.cycle,
        directives=directives,
        scheduled_blocks=len(selections),
        num_commodities=diag.num_commodities,
        schedule_runtime=scheduler.last_runtime,
        routing_runtime=diag.runtime,
        objective=diag.objective,
        routing_iterations=diag.iterations,
        routing_phases=diag.phases,
        routing_warm_start=diag.warm_start,
    )


class ShardMirror:
    """One shard's private per-decide state.

    The scheduler/router pair (with the router's private FPTAS warm
    store), a persistent :class:`CycleCache`, and the candidate table of
    the jobs the shard has seen, indexed by ``matrix`` — the live
    store's, never a speculated twin of it, so a gather over an overlay
    compacts no rows.
    """

    def __init__(self, config: BDSConfig, matrix: PossessionMatrix) -> None:
        self.scheduler, self.router = build_pipeline(config)
        self.cache = CycleCache()
        self.candidates = CandidateTable((), matrix)

    def decide(
        self,
        view: ClusterView,
        bucket: Sequence[MulticastJob],
        payload: ShardPayload,
    ) -> ControlDecision:
        """One schedule+route of ``bucket`` (the shard's active jobs)
        over ``view``'s possession, clock, budgets, failures and partial
        bytes. The decision carries the shard's own telemetry: its wall
        (as ``shard_wall_max`` and ``shard_wall_mean``), the bytes of the
        arrays it owns (its candidate table) after this decide, and the
        structural size of the payload of new jobs that fed it."""
        for job in payload.new_jobs:
            self.candidates.ensure_job(job)
        view = view.replace(jobs=bucket, cache=self.cache, candidates=self.candidates)
        started = _time.perf_counter()
        decision = schedule_and_route(self.scheduler, self.router, view)
        decision.shard_wall_max = decision.shard_wall_mean = (
            _time.perf_counter() - started
        )
        decision.shard_state_bytes = self.candidates.state_bytes()
        decision.shard_payload_bytes = payload.approx_bytes()
        return decision


class ShardFeed:
    """Which jobs each shard has seen.

    The known sets are built from the buckets the controller hands in,
    so a job the controller never bucketed (one that arrived and finished
    under the decentralized fallback) reaches no shard.
    """

    def __init__(self, shards: int) -> None:
        self._known_jobs: List[Set[str]] = [set() for _ in range(shards)]

    def payload(
        self, shard: int, bucket: Sequence[MulticastJob]
    ) -> ShardPayload:
        """The bucket's jobs ``shard`` has not seen before."""
        known = self._known_jobs[shard]
        new_jobs = [job for job in bucket if job.job_id not in known]
        known.update(job.job_id for job in new_jobs)
        return ShardPayload(new_jobs=new_jobs)


class LocalShardRunner:
    """The shards' private state, fed and decided in the controller's
    process over ``matrix``, the live store's possession matrix."""

    def __init__(self, config: BDSConfig, matrix: PossessionMatrix) -> None:
        self.config = config
        self.matrix = matrix
        self.feed = ShardFeed(config.shards)
        self._mirrors: List[Optional[ShardMirror]] = [None] * config.shards

    def decide(
        self,
        view: ClusterView,
        buckets: Sequence[Sequence[MulticastJob]],
    ) -> List[ControlDecision]:
        """Decide every shard whose bucket holds a job, in shard-index
        order; ``buckets[i]`` is shard i's active jobs."""
        results: List[ControlDecision] = []
        for shard, bucket in enumerate(buckets):
            if not bucket:
                continue
            payload = self.feed.payload(shard, bucket)
            mirror = self._mirrors[shard]
            if mirror is None:
                mirror = self._mirrors[shard] = ShardMirror(
                    self.config, self.matrix
                )
            results.append(mirror.decide(view, bucket, payload))
        return results
