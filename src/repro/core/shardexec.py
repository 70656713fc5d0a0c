"""Shard-local execution for the sharded controller.

This module owns the *partition-scoped state* side of the sharded
control plane (``BDSConfig.shards > 1``): each shard decides against a
:class:`ShardMirror` — its own :class:`~repro.overlay.store.
PossessionIndex` (shard-local block interning and bitsets), its own
:class:`~repro.net.candidates.CandidateTable`, and its own
:class:`~repro.net.cycle_cache.CycleCache` — so per-shard possession and
candidate memory is O(its partition's pairs), not O(total pairs). The
mirrors live in the controller's process (:class:`LocalShardRunner`)
and read everything that is not shard-specific — the clock, budgets,
failure sets, partial bytes, topology — off the live view.

What is shard-specific is possession, and :class:`ShardFeed` keeps each
mirror's current: the first time a job reaches its shard the feed
snapshots that job's current holders outright; every later possession
change arrives through the **delivery-log watermark replay** — the feed
keeps one cursor per shard into the store's append-only delivery log
and forwards only the records of jobs the mirror knows (blocks belong
to exactly one job, jobs to exactly one shard). Replays re-apply via
``seed`` (idempotent: an already-set possession bit is a no-op), so
overlap between a snapshot and the log can never double-count.
``PossessionIndex.seed`` does not write the delivery log, so initial
placements are covered by the snapshot alone. Possession is monotone
while a simulation runs (the simulator never drops copies mid-run;
disk-loss enters as *agent* failure), so a mirror can never hold a copy
the global store has lost.

A mirror decides exactly what a single controller would decide for its
jobs (shard-local gid numbering differs with arrival order, but nothing
downstream compares gids across jobs; holders, duplicate counts, and
iteration orders are equal). A cycle's *speculated* deliveries (§5.1)
ride along in the payload and are overlaid on the mirror's store for
that one decide — never applied: followers apply the leader's log,
nothing else.

Determinism: due shards are fed and decided in shard-index order, so
the combined directive list is a function of the view alone.

:func:`build_pipeline` and :func:`schedule_and_route` are the one
schedule+route a mirror and the single controller (``shards=1``, on the
global view) both run.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.config import BDSConfig
from repro.core.routing import BDSRouter
from repro.core.scheduling import RarestFirstScheduler
from repro.net.candidates import CandidateTable
from repro.net.cycle_cache import CycleCache
from repro.net.simulator import ClusterView, TransferDirective
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.overlay.store import PossessionIndex, PossessionOverlay

BlockId = Tuple[str, int]


@dataclass
class ShardPayload:
    """One due shard's possession delta against its mirror."""

    #: Jobs the mirror has not seen yet, with a holders snapshot as
    #: ``(job_id, server_id, block-index array)`` batches — one entry
    #: per (new job, holding server), in job order then ascending
    #: server-row order, each carrying the ascending indices of that
    #: job's blocks the server holds. The batched form keeps 10^6-block
    #: snapshots out of per-block Python loops on both sides.
    new_jobs: List[MulticastJob] = field(default_factory=list)
    new_holders: List[Tuple[str, str, np.ndarray]] = field(
        default_factory=list
    )
    #: Possession deltas since this shard's previous payload:
    #: ``(block_id, dst_server)`` in delivery-log order.
    deliveries: List[Tuple[BlockId, str]] = field(default_factory=list)
    #: This cycle's speculated deliveries of the shard's blocks, same
    #: shape. Read by this decide only; the mirror never applies them.
    speculated: List[Tuple[BlockId, str]] = field(default_factory=list)

    def approx_bytes(self) -> int:
        """Structural size estimate of the delta (bytes).

        New jobs (dominated by their block lists), holders snapshots,
        the watermark delivery replay and the speculated deliveries, at
        fixed per-entry costs, so the telemetry is deterministic.
        """
        total = 0
        for job in self.new_jobs:
            total += 256 + 96 * len(job.blocks)
        for _job_id, _server, indices in self.new_holders:
            total += 48 + 8 * len(indices)
        total += 56 * (len(self.deliveries) + len(self.speculated))
        return total


@dataclass
class DecideResult:
    """One schedule+route's output: a shard's, or the single controller's."""

    directives: List[TransferDirective]
    scheduled_blocks: int
    num_commodities: int
    objective: float
    schedule_runtime: float
    routing_runtime: float
    iterations: int
    phases: int
    warm_start: str
    wall: float
    #: Set by a mirror: its possession-array and candidate-table bytes
    #: after this decide, and the structural size of the delta that fed
    #: it.
    state_bytes: int = 0
    candidate_bytes: int = 0
    payload_bytes: int = 0


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
        epsilon=config.epsilon,
        max_sources_per_group=config.max_sources_per_group,
        merge_blocks=config.merge_blocks,
    )
    return scheduler, router


def schedule_and_route(scheduler, router, view: ClusterView) -> DecideResult:
    """One schedule+route over ``view``, with its telemetry read off."""
    started = _time.perf_counter()
    selections = scheduler.select(view)
    directives, diag = router.route(view, selections)
    wall = _time.perf_counter() - started
    return DecideResult(
        directives=directives,
        scheduled_blocks=len(selections),
        num_commodities=diag.num_commodities,
        objective=diag.objective,
        schedule_runtime=getattr(scheduler, "last_runtime", 0.0),
        routing_runtime=diag.runtime,
        iterations=diag.iterations,
        phases=diag.phases,
        warm_start=diag.warm_start,
        wall=wall,
    )


class ShardMirror:
    """One shard's partition-scoped control state.

    Owns everything shard-specific a shard needs to decide: a
    shard-local possession index (only the shard's blocks are ever
    interned, so its matrix capacity — bits, dup counts, DC counts —
    grows with the partition, not the cluster), the shard's candidate
    table built incrementally as jobs arrive, the scheduler/router pair
    (with the router's private FPTAS warm store), and a persistent
    :class:`CycleCache`. Fed by :meth:`apply`-ing :class:`ShardPayload`
    deltas; :meth:`decide` runs one schedule+route over a plain
    :class:`ClusterView` of the mirror's store — overlaid with the
    payload's speculated deliveries, if any.
    """

    def __init__(
        self,
        topology: Topology,
        config: BDSConfig,
        block_capacity: int = 64,
    ) -> None:
        server_dc = {
            server.server_id: server.dc
            for server in topology.servers.values()
        }
        # Right-size the matrix to the partition: callers pass the block
        # count of the shard's first job batch, so per-shard possession
        # arrays start at ~pairs/k instead of the cluster-scale floor.
        self.store = PossessionIndex(server_dc, block_capacity=block_capacity)
        self.scheduler, self.router = build_pipeline(config)
        self.cache = CycleCache()
        self.candidates = CandidateTable((), self.store.matrix)

    def apply(self, payload: ShardPayload) -> None:
        """Fold one delta payload into the mirror (idempotent seeds).

        Each new job's blocks are interned as one contiguous column
        range up front, so the holders snapshot and the delivery replay
        land as whole-array ``set_many`` batches (``base + block-index``)
        instead of per-block facade calls — the final possession bits
        and duplicate counts are identical to the sequential form
        (seeds are idempotent and commute across distinct (server,
        block) pairs).
        """
        store = self.store
        matrix = store.matrix
        job_base: Dict[str, int] = {}
        for job in payload.new_jobs:
            base = matrix.intern_block_range(job.job_id, len(job.blocks))
            job_base[job.job_id] = base
            self.candidates.ensure_job(
                job,
                gids=np.arange(base, base + len(job.blocks), dtype=np.int64),
            )
        for job_id, server, indices in payload.new_holders:
            store.seed_gids(server, job_base[job_id] + indices)
        if payload.deliveries:
            gid_of = matrix.block_gids
            by_server: Dict[str, List[int]] = {}
            for block_id, dst in payload.deliveries:
                by_server.setdefault(dst, []).append(gid_of[block_id])
            for dst, gids in by_server.items():
                store.seed_gids(dst, np.asarray(gids, dtype=np.int64))

    def decide(
        self,
        view: ClusterView,
        bucket: Sequence[MulticastJob],
        payload: ShardPayload,
    ) -> DecideResult:
        """One schedule+route of ``bucket`` (the shard's active jobs)
        over the mirror, under the live ``view``'s clock, budgets,
        failures and partial bytes."""
        store = self.store
        if payload.speculated:
            matrix = store.matrix
            pairs = [
                (matrix.server_ids[dst], matrix.block_gids[block_id])
                for block_id, dst in payload.speculated
            ]
            store = PossessionOverlay(
                store, *np.array(pairs, dtype=np.int64).T
            )
        result = schedule_and_route(
            self.scheduler,
            self.router,
            ClusterView(
                topology=view.topology,
                store=store,
                jobs=bucket,
                cycle=view.cycle,
                time=view.time,
                cycle_seconds=view.cycle_seconds,
                bulk_capacities=view.bulk_capacities,
                failed_agents=view.failed_agents,
                controller_available=True,
                partial_bytes=view._partial,
                failed_links=view.failed_links,
                cache=self.cache,
                candidates=self.candidates,
            ),
        )
        result.state_bytes = self.store.state_bytes()
        result.candidate_bytes = self.candidates.state_bytes()
        result.payload_bytes = payload.approx_bytes()
        return result


class ShardFeed:
    """Delta bookkeeping between the live store and the mirrors.

    Tracks per shard which jobs the mirror already knows and a watermark
    into the store's append-only delivery log; :meth:`payload` emits
    exactly the delta between the mirror's last feeding and the live
    view. A record is forwarded only if its job is one the mirror knows:
    the known set is built from the buckets the controller hands in, so
    hash and affinity partitioning feed the same mirrors they decide,
    and a job the controller never bucketed (one that arrived and
    finished under the decentralized fallback) reaches no mirror.
    """

    def __init__(self, shards: int) -> None:
        self._known_jobs: List[Set[str]] = [set() for _ in range(shards)]
        self._watermarks: List[int] = [0] * shards

    def payload(
        self,
        view: ClusterView,
        shard: int,
        bucket: Sequence[MulticastJob],
        speculated: Sequence[Tuple[BlockId, str]] = (),
    ) -> ShardPayload:
        """The shard's delta payload for this cycle's view.

        ``speculated`` is the cycle's speculated ``(block_id, dst_server)``
        deliveries, all shards'; the payload carries this shard's.
        """
        known = self._known_jobs[shard]
        new_jobs = [job for job in bucket if job.job_id not in known]
        new_holders: List[Tuple[str, str, np.ndarray]] = []
        store = view.store
        matrix = store.matrix
        for job in new_jobs:
            known.add(job.job_id)
            # One row-gather per (job, server): gather the job's column
            # ids once, then test each server's bit row against them.
            # Keys are built as (job_id, index) tuples directly — block
            # ids are exactly that, and skipping the Block objects keeps
            # the gather from pointer-chasing 10^6 dataclass instances
            # inside the decide wall.
            gid_map = matrix.block_gids
            n_blocks = len(job.blocks)
            job_id = job.job_id
            get_gid = gid_map.get
            gids = np.fromiter(
                (get_gid((job_id, i), -1) for i in range(n_blocks)),
                dtype=np.int64,
                count=n_blocks,
            )
            seen = gids >= 0
            if not seen.any():
                continue
            sub_gids = gids[seen]
            sub_idx = np.flatnonzero(seen)
            held = matrix.dup[sub_gids] > 0
            if not held.any():
                continue
            sub_gids = sub_gids[held]
            sub_idx = sub_idx[held]
            names = matrix.server_names
            for sid in range(matrix.num_servers):
                mask = matrix.test_row_many(sid, sub_gids)
                if mask.any():
                    new_holders.append(
                        (job.job_id, names[sid], sub_idx[mask])
                    )
        log = store.deliveries
        watermark = self._watermarks[shard]
        deliveries = [
            (record.block_id, record.dst_server)
            for record in log[watermark:]
            if record.block_id[0] in known
        ]
        self._watermarks[shard] = len(log)
        return ShardPayload(
            new_jobs=new_jobs,
            new_holders=new_holders,
            deliveries=deliveries,
            speculated=[pair for pair in speculated if pair[0][0] in known],
        )


class LocalShardRunner:
    """The shards' mirrors, fed and decided in the controller's process.

    One extra (partitioned) copy of possession state buys per-shard
    candidate tables and caches that are O(pairs/shards).
    """

    def __init__(self, config: BDSConfig) -> None:
        self.config = config
        self.feed = ShardFeed(config.shards)
        self._mirrors: List[Optional[ShardMirror]] = [None] * config.shards

    def decide(
        self,
        view: ClusterView,
        buckets: Sequence[Sequence[MulticastJob]],
        due: Sequence[int],
        speculated: Sequence[Tuple[BlockId, str]] = (),
    ) -> List[DecideResult]:
        """Run the due shards' decides in shard-index order."""
        results: List[DecideResult] = []
        for shard in due:
            bucket = buckets[shard]
            payload = self.feed.payload(view, shard, bucket, speculated)
            mirror = self._mirrors[shard]
            if mirror is None:
                # Matrix-capacity hint: the first payload's block count.
                blocks = sum(len(job.blocks) for job in payload.new_jobs)
                mirror = ShardMirror(
                    view.topology, self.config, block_capacity=max(64, blocks)
                )
                self._mirrors[shard] = mirror
            mirror.apply(payload)
            results.append(mirror.decide(view, bucket, payload))
        return results
