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

import itertools
import math
import time as _time
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
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
from repro.net.directive import DirectiveBatch, TransferDirective
from repro.net.failures import FailureSchedule
from repro.net.flow import (
    FlowKernelStats,
    FlowRows,
    clip_rates_to_capacity,
    max_min_fair_rates,
)
from repro.net.result import CycleStats, CycleStatsLog, SimResult
from repro.net.topology import ResourceKey, Topology
from repro.net.view import ClusterView, PartialBytes
from repro.overlay.blocks import Block
from repro.overlay.job import MulticastJob
from repro.overlay.store import PossessionIndex
from repro.utils.rng import SeedLike
from repro.utils.validation import check_count, check_fraction, check_positive

if TYPE_CHECKING:
    from repro.baselines.base import OverlayStrategy
    from repro.core.fault import ControllerReplicaSet
    from repro.overlay.monitor import AgentMonitor


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

    def __post_init__(self) -> None:
        check_positive("cycle_seconds", self.cycle_seconds)
        check_count("max_cycles", self.max_cycles, 1)
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


class _BlockColumns:
    """The simulation's static per-block columns, and the per-job tables
    its deliveries are booked with.

    The simulation interns its jobs first, in order, so a block's matrix
    row is its flat number: its job's ``base`` plus its job-relative
    index. ``starts`` holds the bases in job order and ``origin`` each
    job's origin DC id. Built once, on the first cycle that validates a
    directive.

    Completion is booked per *destination*, a (job, destination DC)
    pair; ``dest[j * num_dcs + d]`` numbers job ``j``'s destination in
    DC id ``d``, or is the sentinel ``len(stripe_lo) - 1`` (a stripe of
    one server id no server has) when ``d`` is not one of the job's
    destination DCs. Destination ``k``'s stripe
    (:meth:`MulticastJob.stripe`) is the ``stripe_width[k]`` server ids
    from ``stripe_sids[stripe_lo[k]]`` on.
    """

    __slots__ = (
        "base", "count", "sizes", "starts",
        "origin", "num_dcs", "dest", "stripe_lo", "stripe_width",
        "stripe_sids",
    )

    def __init__(
        self, jobs: Sequence[MulticastJob], store: PossessionIndex
    ) -> None:
        matrix = store.matrix
        self.base = {job.job_id: matrix.spans[job.job_id][0] for job in jobs}
        self.count = {job.job_id: job.num_blocks for job in jobs}
        self.num_dcs = len(matrix.dc_names)
        self.dest = np.full(len(jobs) * self.num_dcs, -1, dtype=np.int64)
        lo: List[int] = []
        width: List[int] = []
        sids: List[int] = []
        for j, job in enumerate(jobs):
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
        if (
            self.starts.tolist() != np.cumsum([0, *self.count.values()])[:-1].tolist()
            or matrix.num_blocks != len(self.sizes)
        ):
            raise ValueError("the matrix's rows are not the jobs' blocks in order")


class FlowColumns:
    """One decide's validated directives as row columns.

    Row ``r`` is one block of one directive, directive-major in listed
    order: ``flat[r]`` is the block's flat number (its matrix row),
    ``src[r]`` and ``dst[r]`` the directive's endpoint server ids,
    ``keys[r]`` the row's :class:`PartialBytes` key (block row and
    destination), and ``bounds[i]:bounds[i + 1]`` are directive ``i``'s
    rows. ``sizes`` is the rows' block sizes, gathered once for the
    demand sums, which also leave ``buffered`` and ``need``
    (``sizes - buffered``, a list).
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


@dataclass(slots=True)
class RunState:
    """What a run evolves, and nothing else.

    ``store`` holds possession and the delivery log, ``partial`` the
    bytes buffered at destinations. ``dc_missing`` (per job and
    destination DC) and ``server_missing`` (per job and assigned server)
    count missing blocks down on what the store answers per delivery; at
    zero, the completion dicts book the time. ``prev_pairs`` are the last
    executed cycle's (src, dst) pair ints (they skip the TCP set-up), and
    ``arrival_ptr`` counts the arrived prefix of the arrival order.
    """

    store: PossessionIndex
    partial: PartialBytes
    dc_missing: Dict[Tuple[str, str], int]
    server_missing: Dict[Tuple[str, str], int]
    job_completion: Dict[str, float]
    dc_completion: Dict[Tuple[str, str], float]
    server_completion: Dict[Tuple[str, str], float]
    prev_pairs: Set[int]
    arrival_ptr: int


class Simulation:
    """Owns the cycle loop, resource accounting, and metric collection.

    It holds configuration, the run's :class:`RunState` ``state``, and
    derived data, which :meth:`_reset_derived` alone starts cold.
    """

    def __init__(
        self,
        topology: Topology,
        jobs: Sequence[MulticastJob],
        strategy: OverlayStrategy,
        config: Optional[SimConfig] = None,
        background: Optional[BackgroundTraffic] = None,
        failures: Optional[FailureSchedule] = None,
        seed: SeedLike = None,
        pre_seeded: Optional[Mapping[str, Sequence[Block]]] = None,
        replica_set: Optional[ControllerReplicaSet] = None,
        agent_monitor: Optional[AgentMonitor] = None,
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
        # ``seed`` is unused, kept for callers that pass it (the frozen perf ledger).
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
        store = PossessionIndex(server_dc)
        matrix = store.matrix
        for job in self.jobs:
            if not job.is_bound():
                job.bind(topology)
            base = matrix.intern_job(job.job_id, job.num_blocks)
            servers, slots = job.stripe(job.src_dc)
            for slot, server in enumerate(servers):
                matrix.set_many(
                    matrix.server_ids[server], base + np.flatnonzero(slots == slot)
                )
        if pre_seeded:
            for server, blocks in pre_seeded.items():
                store.seed(server, blocks)

        # Completion bookkeeping; the completions pre-seeded copies made
        # are booked at 0.
        state = self.state = RunState(
            store, PartialBytes(matrix), {}, {}, {}, {}, {}, set(), 0
        )
        for job in self.jobs:
            job_id = job.job_id
            gids = matrix.spans[job_id][0] + np.arange(job.num_blocks)
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
                        state.server_missing[(job_id, server)] = missing
                    else:
                        state.server_completion[(job_id, server)] = 0.0
                missing = len(gids) - int(held.sum())
                state.dc_missing[(job_id, dc)] = missing
                if not missing:
                    state.dc_completion[(job_id, dc)] = 0.0
            if all((job_id, dc) in state.dc_completion for dc in job.dst_dcs):
                state.job_completion[job_id] = 0.0
        self._ran = False

        # Integer arrival grid (idle-skip bound + O(changes) job
        # filtering): per-job first active cycle, exact on the c*dt float
        # grid so "arrived by cycle c" is the arrival_time <= c*dt
        # predicate bit-for-bit, as a stable arrival-sorted index and the
        # cycles in that order.
        dt = self.config.cycle_seconds
        arrivals = [first_cycle_at_or_after(job.arrival_time, dt) for job in self.jobs]
        self._arrival_order = sorted(range(len(self.jobs)), key=arrivals.__getitem__)
        self._arrival_cycles = [arrivals[i] for i in self._arrival_order]
        self._reset_derived()

    def _reset_derived(self) -> None:
        """Start the derived data cold, from the configuration and
        ``state``: the only place it is built. The candidate table (every
        (block, destination/relay DC) pair) is built now, unless a
        sharded strategy (``shard_signature``) builds its own per shard;
        the block columns on first use; the cycle cache, the capacity
        maps and the active list as the run asks.
        """
        self._cand_table = None
        if not getattr(self.strategy, "shard_signature", False):
            self._cand_table = CandidateTable(self.jobs, self.state.store.matrix)
        self._cols: Optional[_BlockColumns] = None
        self._cycle_cache = CycleCache()
        self._wan_keys: Tuple[ResourceKey, ...] = tuple(self.topology.links)
        self._bulk_cache: Dict[float, list] = {}
        self._caps_ref: Optional[Dict[ResourceKey, float]] = None
        self._arrived: List[int] = self._arrival_order[: self.state.arrival_ptr]
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
            self._cols = _BlockColumns(self.jobs, self.state.store)
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
        matrix = self.state.store.matrix
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
        useful = known & matrix.test_transfers(src, dst, flat)

        if not useful.all():
            kept = np.add.reduceat(useful, bounds[:-1], dtype=np.int64).tolist()
            batch = batch.keep(
                [k > 0 for k in kept], index[useful],
                [0, *itertools.accumulate(k for k in kept if k)],
            )
            flat = flat[useful]
            src = src[useful]
            dst = dst[useful]
        return batch, FlowColumns(
            flat, src, dst, self.state.partial.key(flat, dst), batch.bounds,
            cols.sizes[flat],
        )

    def _flow_demands(self, columns: FlowColumns) -> List[float]:
        """Bytes each directive still has to move, in directive order.

        Operands (``size - buffered``) are gathered as arrays; each
        directive's are then folded with ``math.fsum``. The operands
        stay on ``columns`` as ``need``, for the progress walk.
        """
        buffered = columns.buffered = self.state.partial.gather(columns.keys)
        sizes = columns.sizes
        need = columns.need = (sizes if buffered is None else sizes - buffered).tolist()
        bounds = columns.bounds
        return [
            math.fsum(need[bounds[i] : bounds[i + 1]]) for i in range(len(bounds) - 1)
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
            store=self.state.store,
            jobs=jobs,
            cycle=cycle,
            time=cycle * dt,
            cycle_seconds=dt,
            bulk_capacities=bulk_caps,
            failed_agents=failed,
            controller_available=controller_ok,
            partial_bytes=self.state.partial,
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
        arrived = self._arrival_order[: bisect_right(self._arrival_cycles, cycle)]
        return self._view(
            cycle,
            [self.jobs[i] for i in sorted(arrived)],
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
        state = self.state
        cycle_stats = CycleStatsLog(cycle_seconds=dt)
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
            cycle_stats.append(stats)
            if hook is not None:
                hook(view, len(done))
            if cfg.stop_when_complete and len(state.job_completion) == num_jobs:
                cycle += 1
                break
            if can_skip and not active_jobs and not directives:
                skipped = self._skip_idle(cycle, controller_ok, cycle_stats)
                cycles_skipped += skipped
                cycle += skipped
            cycle += 1

        return SimResult(
            cycles_run=cycle,
            sim_time=cycle * dt,
            wall_time=_time.perf_counter() - started,
            job_completion=state.job_completion,
            dc_completion=state.dc_completion,
            server_completion=state.server_completion,
            cycle_stats=cycle_stats,
            store=state.store,
            all_complete=len(state.job_completion) == num_jobs,
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
        state = self.state
        ptr = state.arrival_ptr
        while ptr < len(cycles) and cycles[ptr] <= cycle:
            self._arrived.append(self._arrival_order[ptr])
            ptr += 1
        done = state.job_completion
        if ptr != state.arrival_ptr or len(done) != self._active_built_at:
            state.arrival_ptr = ptr
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
        paths = view.path_rows(directives.src, directives.dst)
        if () in paths:  # no path: partitioned off
            keep = [bool(path) for path in paths]
            columns = columns.take(keep)
            directives = directives.keep(keep)
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
        partial = self.state.partial
        prev_pairs = self.state.prev_pairs
        current_pairs: Set[int] = set()
        num_servers = self.state.store.matrix.num_servers
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
        self.state.prev_pairs = current_pairs
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
        state = self.state
        matrix = state.store.matrix
        rows = np.array(rows, dtype=np.int64)
        flat = columns.flat[rows]
        dst = columns.dst[rows]
        when = np.array(finish)
        job = cols.starts.searchsorted(flat, side="right") - 1
        fresh = state.store.record_deliveries(
            dst, flat, columns.src[rows], when, cols.origin[job]
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
        names, dc_of, jobs = matrix.server_names, state.store.dc_of, self.jobs
        server_missing, dc_missing = state.server_missing, state.dc_missing
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
        dc_completion = state.dc_completion
        for at, is_dc, key in sorted(booked):
            if not is_dc:
                state.server_completion[key] = when[at]
                continue
            dc_completion[key] = when[at]
            job_id = key[0]
            dst_dcs = self._jobs_by_id[job_id].dst_dcs
            if all((job_id, dc) in dc_completion for dc in dst_dcs):
                state.job_completion[job_id] = max(
                    dc_completion[(job_id, dc)] for dc in dst_dcs
                )

    def _decision_telemetry(
        self, cycle: int, decide_runtime: float
    ) -> Dict[str, object]:
        """The :class:`CycleStats` fields the strategy's decision record
        (a :class:`~repro.core.decisions.ControlDecision`) feeds, by name.

        A strategy without a decision log books its whole decide as
        scheduling. One with a log that logged nothing this cycle was in
        a controller outage (the fallback decided): that wall is neither
        scheduling nor routing; ``time_decide`` carries it.
        """
        last_decision = getattr(self.strategy, "last_decision", None)
        if not callable(last_decision):
            return {"time_schedule": decide_runtime}
        decision = last_decision()
        if decision is None or decision.cycle != cycle:
            return {"time_schedule": 0.0}
        return {
            "time_schedule": decision.schedule_runtime,
            "time_route": decision.routing_runtime,
            "routing_iterations": decision.routing_iterations,
            "routing_phases": decision.routing_phases,
            "routing_warm_start": decision.routing_warm_start,
            "shard_count": decision.shard_count,
            "time_shard_max": decision.shard_wall_max,
            "time_shard_mean": decision.shard_wall_mean,
            "time_reconcile": decision.reconcile_runtime,
            "shard_state_bytes": decision.shard_state_bytes,
            "shard_payload_bytes": decision.shard_payload_bytes,
        }

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
        self, cycle: int, controller_ok: bool, log: CycleStatsLog
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
        ptr = self.state.arrival_ptr
        if ptr < len(self._arrival_cycles):
            last = min(last, self._arrival_cycles[ptr] - 1)
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
