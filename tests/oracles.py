"""Reference implementations: the loops the array and scalar kernels replaced.

Each function is the body of a loop that used to live under ``src/``,
lifted verbatim into a pure function. Nothing under ``src/`` imports this
module; the property tests run the production kernels against these:

* ``tests/test_columnar_handoff.py`` — the per-block Python loops that sat
  between the scheduler kernel and the store scatter, result for result
  and float for float;
* ``tests/test_object_free_decide.py`` — the object-building middle of
  the decide (one ``ScheduledBlock`` per selected row, one ``Commodity``
  per group, the incidence-backed greedy water-fill, the dict-keyed deal
  and reuse certificate) and the per-cycle WAN budget loop, bit for bit;
* ``tests/test_fptas_kernel.py`` — the ``np.add.reduceat`` Fleischer loop
  the scalar FPTAS kernel replaced, bit for bit;
* ``tests/test_mcf_fptas.py`` — the exact LP built as one named
  ``LinearProgram`` variable per path (``solve_lp_named``), against the
  CSR ``solve_lp_incidence`` builds from the incidence arrays, bit for
  bit;
* ``tests/test_baseline_lens.py`` — the five decentralized baselines as
  they were, one ``store.has`` probe per (neighbour, block), directive for
  directive and random draw for random draw;
* ``tests/test_baseline_batches.py`` — the lens's per-pair
  ``TransferDirective`` builder (``lens_directives``), against the
  batch it emits; ``count_calls`` counts what the golden runs construct
  (the ``golden_builds`` fixture of ``tests/conftest.py``);
* ``tests/test_scheduler_kernel.py`` — the store-query-per-candidate
  rarest-first selection (``RarestFirstScheduler._select_legacy`` as it
  was) and the dict-of-sets possession index (``PossessionIndex`` with
  ``vectorized=False`` as it was), query for query;
* ``tests/test_flow.py`` and ``tests/test_flow_kernel.py`` — the
  waterfill that rebuilds its per-resource load every iteration
  (``repro.net.flow._max_min_fair_rates_reference`` as it was), against
  the event-driven kernel, float for float and stalemate for stalemate;
* ``tests/test_directive_batch.py`` — the object-based emission, the
  scalar clip (``repro.net.flow.clip_rates_to_capacity_scalar`` as it
  was) and the ``Flow``-per-directive WAN reconcile
  (``BDSController._reconcile_wan`` as it was), against the directive
  batch and the one clip kernel over path-id rows;
* ``tests/test_progress_walk.py`` — the progress walk that visited
  every row up to the budget's end and probed a ``(block_id, server)``
  dict per row (``Simulation._progress_flows`` as it was), float for
  float;
* ``tests/test_overlay.py`` — the ``has``/``holders`` proxy a speculated
  view's store was (``repro.core.speculation._SpeculatedStore`` as it
  was) and the full pending scans, against the bit-matrix overlay; and
  the speculator that read the previous directives as objects
  (``speculate``), against the one that reads the batch's columns.

Some definitions here left ``src/`` because only tests called them
(``tests/test_layering.py`` keeps ``src/`` to what the system runs):
``split_into_blocks``, the loop a job's block formula is checked
against; ``PathMCF``, the exact-LP reference the FPTAS tests price against; the
store's name-keyed queries below; ``route_dcs``, ``cdf``,
``with_rate_cap``, ``read_generated`` and ``residual_budget`` (the §5.2
budget, which ``bulk_capacities`` is built on). ``Flow`` is how the
kernel tests state a flow: ``flow_rows`` turns flows into the
``FlowRows`` the rate kernels take, and ``fair_rates_by_id`` /
``clip_by_id`` answer by ``flow_id``.

No reference function reads possession through a view accessor or a
matrix: each asks ``view.store`` one ``has``/``holders``/``dc_of`` at a
time, so it is a reference for whatever ``view.store`` is — the live
index, a ``DictPossessionIndex``, a ``SpeculatedStoreOracle``. The
name-keyed queries the store's facade does not serve are functions
here: ``dc_has_block`` over that same facade; ``blocks_on``,
``dc_copy_count`` and ``duplicate_count`` over a live store's matrix
(the tests compare them against the dict-backed index).
"""

from __future__ import annotations

import bisect
import heapq
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.analysis.experiments import BEGIN, END
from repro.core.decisions import ScheduledBlock
from repro.lp.fptas import max_multicommodity_flow
from repro.lp.incidence import PathIncidence
from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import check_fraction, check_non_negative, check_positive
from repro.lp.mcf import Commodity, MCFResult, solve_lp_incidence
from repro.lp.model import LinearProgram
from repro.net.flow import (
    FlowKernelStats,
    FlowRows,
    clip_rates_to_capacity,
    max_min_fair_rates,
)
from repro.net.topology import ResourceKey, Topology
from repro.net.directive import TransferDirective
from repro.net.view import ClusterView
from repro.overlay.blocks import DEFAULT_BLOCK_SIZE, Block
from repro.overlay.store import DeliveryRecord

BlockId = Tuple[str, int]
GroupKey = Tuple[str, str, Tuple[str, ...]]


# -- job: the split as a list of blocks, striping as a per-(DC, block) table --


def line_topology(
    dc_names: Sequence[str], servers_per_dc: int, wan_capacity: float, uplink: float
) -> Topology:
    """A chain of DCs: each joined to the next by one pair of WAN links."""
    topo = Topology()
    for name in dc_names:
        topo.add_dc(name)
        for j in range(servers_per_dc):
            topo.add_server(f"{name}-s{j}", name, uplink, uplink)
    for a, b in zip(dc_names, dc_names[1:]):
        topo.add_bidirectional_link(a, b, wan_capacity)
    return topo


def split_into_blocks(
    job_id: str, total_bytes: float, block_size: float = DEFAULT_BLOCK_SIZE
) -> List[Block]:
    """Split ``total_bytes`` into fixed-size blocks; the tail may be smaller.

    The loop ``MulticastJob`` kept its blocks as (``job.blocks`` was this
    list) before it kept them as a formula.
    """
    check_positive("total_bytes", total_bytes)
    check_positive("block_size", block_size)
    blocks: List[Block] = []
    remaining = float(total_bytes)
    index = 0
    while remaining > 1e-9:
        size = min(block_size, remaining)
        blocks.append(Block(job_id=job_id, index=index, size=size))
        remaining -= size
        index += 1
    return blocks


# -- job: striping as a per-(DC, block) table --------------------------------


def striping_table(job, topology) -> Dict[Tuple[str, BlockId], str]:
    """``MulticastJob.bind`` as one entry per (involved DC, block): block
    ``i`` on the DC's server ``i % len(servers)``."""
    table: Dict[Tuple[str, BlockId], str] = {}
    for dc in (job.src_dc,) + job.dst_dcs + job.relay_dcs:
        servers = topology.servers_in(dc)
        if not servers:
            raise ValueError(f"DC {dc!r} has no servers")
        for block in job.blocks:
            server = servers[block.index % len(servers)]
            table[(dc, block.block_id)] = server.server_id
    return table


def shard_map(job, table, dc) -> Dict[str, List[Block]]:
    """``dc``'s server -> blocks map read off ``table``, in block order."""
    shard: Dict[str, List[Block]] = {}
    for block in job.blocks:
        shard.setdefault(table[(dc, block.block_id)], []).append(block)
    return shard


def missing_counts(jobs, tables, store):
    """``RunState``'s ``(dc_missing, server_missing)``: one table
    lookup and one ``store.has`` per (block, destination DC)."""
    dc_missing: Dict[Tuple[str, str], int] = {}
    server_missing: Dict[Tuple[str, str], int] = {}
    for job in jobs:
        for dc in job.dst_dcs:
            missing = 0
            for block in job.blocks:
                server = tables[job.job_id][(dc, block.block_id)]
                if store.has(server, block.block_id):
                    continue
                missing += 1
                key = (job.job_id, server)
                server_missing[key] = server_missing.get(key, 0) + 1
            dc_missing[(job.job_id, dc)] = missing
    return dc_missing, server_missing


# -- view: the full pending scans and the holder filter ----------------------


def pending_deliveries(view, job) -> List[Tuple[Block, str, str]]:
    """Undelivered (block, dst_dc, assigned dst server) triples: every
    (destination DC, block) pair asked of the store."""
    pending = []
    for dc in job.dst_dcs:
        for block in job.blocks:
            server = job.assigned_server(dc, block.block_id)
            if not view.store.has(server, block.block_id):
                pending.append((block, dc, server))
    return pending


def pending_relay_placements(view, job) -> List[Tuple[Block, str, str]]:
    """(block, relay_dc, relay server) for every block a relay DC lacks."""
    return [
        (block, dc, job.assigned_server(dc, block.block_id))
        for dc in job.relay_dcs
        for block in job.blocks
        if not dc_has_block(view.store, dc, block.block_id)
    ]


def eligible_sources(view, block_id: BlockId) -> List[str]:
    """Healthy holders of the block, in the store's set order."""
    return [s for s in view.store.holders(block_id) if s not in view.failed_agents]


# -- router: per-selection pick + merge ---------------------------------------


def pick_sources(
    by_dc: Mapping[Hashable, Sequence],
    dst_dc: Hashable,
    index: int,
    max_sources: int,
    dedupe: bool = True,
) -> tuple:
    """Source picks for one selection from its usable holders by DC.

    A holder in the destination's own DC first, then the other DCs in
    sorted order from a block-dependent offset, one holder each, rotated
    by block index. ``dedupe`` is the historical ``candidate not in
    picked`` guard.
    """
    picked: List = []
    local = by_dc.get(dst_dc)
    if local:
        picked.append(local[index % len(local)])
    other_dcs = sorted(dc for dc in by_dc if dc != dst_dc and by_dc[dc])
    if other_dcs:
        start = index % len(other_dcs)
        for dc in other_dcs[start:] + other_dcs[:start]:
            if len(picked) >= max_sources:
                break
            servers = by_dc[dc]
            candidate = servers[index % len(servers)]
            if not dedupe or candidate not in picked:
                picked.append(candidate)
    return tuple(picked[:max_sources])


def candidate_sources(view, entry, max_sources: int) -> Tuple[str, ...]:
    """Usable holders of one selection, by DC, then :func:`pick_sources`."""
    holders = sorted(
        s
        for s in eligible_sources(view, entry.block.block_id)
        if s != entry.dst_server
        and view.flow_resources(s, entry.dst_server) is not None
    )
    by_dc: Dict[str, List[str]] = {}
    for holder in holders:
        by_dc.setdefault(view.store.dc_of(holder), []).append(holder)
    return pick_sources(by_dc, entry.dst_dc, entry.block.index, max_sources)


def merge_selections(
    view, selections, max_sources: int, merge_blocks: bool
) -> Dict[GroupKey, list]:
    """Selections merged by (job, destination, source set), §5.1.

    Dict insertion order is group order: first appearance.
    """
    groups: Dict[GroupKey, list] = {}
    for i, entry in enumerate(selections):
        sources = candidate_sources(view, entry, max_sources)
        if not sources:
            continue
        label = entry.dst_server if merge_blocks else f"{entry.dst_server}#{i}"
        groups.setdefault((entry.job_id, label, sources), []).append(entry)
    return groups


# -- router: per-block commodity demand ---------------------------------------


def build_commodities(view, groups: Mapping[GroupKey, list]):
    """One commodity per group with bytes left, and each group's blocks."""
    commodities: List[Commodity] = []
    group_blocks: Dict[GroupKey, list] = {}
    dt = view.cycle_seconds
    for key, entries in groups.items():
        dst_server = entries[0].dst_server
        blocks = [e.block for e in entries]
        remaining = math.fsum(
            b.size - view.received_bytes(b.block_id, dst_server) for b in blocks
        )
        if remaining <= 0:
            continue
        paths = tuple(
            tuple(view.flow_resources(src, dst_server) or ()) for src in key[2]
        )
        if any(not p for p in paths):
            continue
        commodities.append(Commodity(name=key, paths=paths, demand=remaining / dt))
        group_blocks[key] = blocks
    return commodities, group_blocks


# -- router: rotate / partial-first / deal ------------------------------------


def to_directives(
    view,
    commodities: Sequence[Commodity],
    group_blocks: Mapping[GroupKey, list],
    rates: Mapping[Tuple[GroupKey, int], float],
) -> List[TransferDirective]:
    """Each group's blocks, in send order, dealt across its flowing sources."""
    directives: List[TransferDirective] = []
    for commodity in commodities:
        key = commodity.name
        job_id, _dst_label, sources = key
        blocks = group_blocks[key]
        dst_server = commodity.paths[0][-1][1]
        offset = zlib.crc32(dst_server.encode()) % len(blocks)
        rotated = blocks[offset:] + blocks[:offset]
        partial = [
            b for b in rotated if view.received_bytes(b.block_id, dst_server) > 0
        ]
        if partial:
            partial_ids = {b.block_id for b in partial}
            blocks = partial + [b for b in rotated if b.block_id not in partial_ids]
        else:
            blocks = rotated
        per_source = []
        for pi, src in enumerate(sources):
            rate = rates.get((key, pi), 0.0)
            if rate > 1e-9:
                per_source.append((src, rate))
        if not per_source:
            continue
        total_rate = math.fsum(rate for _s, rate in per_source)
        total_bytes = math.fsum(b.size for b in blocks)
        budgets = {src: rate / total_rate * total_bytes for src, rate in per_source}
        assigned: Dict[str, list] = {src: [] for src, _r in per_source}
        for block in blocks:
            src = max(budgets, key=lambda s: budgets[s])
            assigned[src].append(block)
            budgets[src] -= block.size
        used_rate = math.fsum(r for s, r in per_source if assigned[s])
        spare = total_rate - used_rate
        for src, rate in per_source:
            if not assigned[src]:
                continue
            share = rate + (spare * rate / used_rate if used_rate > 0 else 0.0)
            directives.append(
                TransferDirective(
                    job_id=job_id,
                    block_ids=tuple(b.block_id for b in assigned[src]),
                    src_server=src,
                    dst_server=dst_server,
                    rate_cap=share,
                )
            )
    return directives


def route(view, selections, router) -> Tuple[List[Commodity], List[TransferDirective]]:
    """The whole per-selection routing pipeline around ``router``'s solver."""
    groups = merge_selections(
        view, selections, router.max_sources_per_group, router.merge_blocks
    )
    commodities, group_blocks = build_commodities(view, groups)
    if not commodities:
        return [], []
    rates, _stats = solve(router, view, commodities, view.bulk_capacities)
    return commodities, to_directives(view, commodities, group_blocks, rates)


# -- scheduler: one object per selected row -----------------------------------


def make_scheduled(job_id, block, dst_dc, dst_server, duplicates, is_relay):
    """A ScheduledBlock without the frozen-dataclass ``__init__``."""
    sb = ScheduledBlock.__new__(ScheduledBlock)
    sb.__dict__.update(
        job_id=job_id,
        block=block,
        dst_dc=dst_dc,
        dst_server=dst_server,
        duplicates=duplicates,
        is_relay=is_relay,
    )
    return sb


def scheduled_blocks(
    group_refs: Sequence[tuple],
    names: Sequence[str],
    sel_slot: Sequence[int],
    sel_idx: Sequence[int],
    sel_dst: Sequence[int],
    sel_dup: Sequence[int],
) -> List[ScheduledBlock]:
    """The vectorized kernel's per-row zip loop (minus its object cache).

    ``group_refs[slot]`` is the ``(job, destination DC, is relay)`` of the
    candidate group a selected row came from.
    """
    selected: List[ScheduledBlock] = []
    for slot, idx, dst, dup in zip(sel_slot, sel_idx, sel_dst, sel_dup):
        job, dc, is_relay = group_refs[slot]
        selected.append(
            make_scheduled(job.job_id, job.blocks[idx], dc, names[dst], dup, is_relay)
        )
    return selected


# -- router: Commodity objects, shared incidence, dict-keyed rates ------------


def grouping_commodities(view, grouping) -> Tuple[List[Commodity], List[int]]:
    """One commodity per group with bytes left; and which group each is."""
    commodities: List[Commodity] = []
    members: List[int] = []
    dt = view.cycle_seconds
    sizes, buffered, bounds = grouping.sizes, grouping.buffered, grouping.bounds
    operands = (sizes if buffered is None else sizes - buffered).tolist()
    for g, record in enumerate(grouping.records):
        remaining = math.fsum(operands[bounds[g] : bounds[g + 1]])
        if remaining <= 0:
            continue
        key = grouping.key(g)
        dst_server = grouping.names[record[1]]
        paths = tuple(
            tuple(view.flow_resources(src, dst_server) or ()) for src in key[2]
        )
        if any(not p for p in paths):
            continue  # a link failed between grouping and routing
        commodities.append(Commodity(name=key, paths=paths, demand=remaining / dt))
        members.append(g)
    return commodities, members


def solve_greedy(
    commodities: Sequence[Commodity],
    capacities: Mapping[ResourceKey, float],
    fair_rounds: int = 3,
) -> Dict[Tuple[Hashable, int], float]:
    """The greedy water-fill over a compiled ``PathIncidence``.

    Unusable paths (a resource missing from ``capacities`` or without
    capacity) are dropped by the lenient build; rates are keyed
    ``(commodity name, original path index)`` in first-touch order.
    """
    inc = PathIncidence.build(commodities, capacities, strict=False)
    residual: List[float] = inc.caps.tolist()
    rates: Dict[Tuple[Hashable, int], float] = {}
    remaining: Dict[int, float] = {
        i: (c.demand if c.demand is not None else float("inf"))
        for i, c in enumerate(commodities)
    }
    starts = inc.path_starts.tolist()
    lens = inc.path_lens.tolist()
    flat = inc.flat_res.tolist()
    orig = inc.path_orig_index.tolist()
    paths_of: List[List[Tuple[int, List[int]]]] = []
    for ci in range(inc.num_commodities):
        lo, hi = inc.commodity_path_range[ci]
        paths_of.append(
            [(orig[p], flat[starts[p] : starts[p] + lens[p]]) for p in range(lo, hi)]
        )

    def push_flow(index: int, limit_fraction: float) -> None:
        plist = paths_of[index]
        if not plist:
            return
        demand = remaining[index]
        while demand > 1e-9:
            best_pi, best_room, best_idxs = -1, 0.0, None
            for pi, idxs in plist:
                room = min(residual[i] for i in idxs)
                if room > best_room:
                    best_room = room
                    best_pi = pi
                    best_idxs = idxs
            if best_pi < 0 or best_room <= 1e-9:
                break
            push = min(demand, best_room * limit_fraction)
            if push <= 1e-9:
                break
            key = (commodities[index].name, best_pi)
            rates[key] = rates.get(key, 0.0) + push
            for i in best_idxs:
                residual[i] -= push
            demand -= push
            if limit_fraction < 1.0:
                break  # one quantum per fair-round visit
        remaining[index] = demand

    active = [i for i, d in remaining.items() if d > 1e-9]
    for _round in range(fair_rounds):
        if not active:
            break
        share = 1.0 / max(len(active), 1)
        for i in active:
            push_flow(i, share)
        active = [i for i in active if remaining[i] > 1e-9]
    for i in range(len(commodities)):
        if remaining[i] > 1e-9:
            push_flow(i, 1.0)
    return rates


def solve(router, view, commodities, capacities):
    """Backend dispatch over one shared lenient incidence: (rates, stats).

    ``router`` supplies the backend, ε and the FPTAS warm store.
    """
    if router.backend == "greedy":
        return solve_greedy(commodities, capacities), (0, 0, "")
    incidence = PathIncidence.build(commodities, capacities, strict=False)
    if router.backend == "lp":
        return dict(solve_lp_incidence(incidence).path_flows), (0, 0, "")
    warm = router._warm.validate(view.topology.epoch, view.failed_links)
    result = max_multicommodity_flow(
        commodities, capacities, epsilon=router.epsilon, warm=warm,
        incidence=incidence,
    )
    if result.warm_state is not None:
        router._warm.store(view.topology.epoch, view.failed_links, result.warm_state)
    return dict(result.path_flows), (
        result.iterations, result.phases, result.warm_start,
    )


def grouping_directives(
    grouping,
    jobs,
    commodities: Sequence[Commodity],
    members: Sequence[int],
    rates: Mapping[Tuple[Hashable, int], float],
) -> List[TransferDirective]:
    """Each group's index segment dealt across its flowing sources.

    The columnar deal as it read its rates: one ``rates.get((name,
    path index))`` per candidate source, with block sizes from
    ``jobs``' ``Block`` objects.
    """
    job_of = {job.job_id: job for job in jobs}
    index_list = grouping.indices.tolist()
    buffered = grouping.buffered
    half_received = None if buffered is None else (buffered > 0).tolist()
    bounds = grouping.bounds
    dst_servers = [grouping.names[record[1]] for record in grouping.records]
    emitted: List[tuple] = []
    sent: List[int] = []
    for commodity, g in zip(commodities, members):
        key = commodity.name
        job_id, _label, sources = key
        flowing = []
        flows = []
        for pi, src in enumerate(sources):
            rate = rates.get((key, pi), 0.0)
            if rate > 1e-9:
                flowing.append(src)
                flows.append(rate)
        if not flowing:
            continue
        lo = bounds[g]
        hi = bounds[g + 1]
        dst_server = dst_servers[g]
        offset = zlib.crc32(dst_server.encode()) % (hi - lo)
        order = index_list[lo + offset : hi] + index_list[lo : lo + offset]
        if half_received is not None and True in half_received[lo:hi]:
            first = half_received[lo + offset : hi] + half_received[lo : lo + offset]
            order = [i for i, f in zip(order, first) if f] + [
                i for i, f in zip(order, first) if not f
            ]
        at = len(sent)
        if len(flowing) == 1:
            sent += order
            emitted.append((job_id, at, len(sent), flowing[0], dst_server, flows[0]))
            continue
        blocks = job_of[job_id].blocks
        sizes = [blocks[i].size for i in order]
        total_rate = math.fsum(flows)
        total_bytes = math.fsum(sizes)
        budgets = [rate / total_rate * total_bytes for rate in flows]
        parts: List[List[int]] = [[] for _ in flows]
        for i, size in zip(order, sizes):
            to = budgets.index(max(budgets))
            parts[to].append(i)
            budgets[to] -= size
        used_rate = math.fsum([rate for rate, part in zip(flows, parts) if part])
        spare = total_rate - used_rate
        for src, rate, part in zip(flowing, flows, parts):
            if part:
                sent += part
                share = rate + (spare * rate / used_rate if used_rate > 0 else 0.0)
                emitted.append((job_id, at, len(sent), src, dst_server, share))
                at = len(sent)
    column = np.array(sent, dtype=np.int64)
    return [
        TransferDirective.from_segment(job_id, column, lo, hi, src, dst_server, cap)
        for job_id, lo, hi, src, dst_server, cap in emitted
    ]


# -- simulator: the per-cycle WAN budget loop ---------------------------------


def residual_budget(
    capacity: float, online_usage: float, threshold: float = 0.8
) -> float:
    """Bandwidth available to bulk traffic on one link (§5.2).

    ``max(0, threshold × capacity − online)``: bulk may use what remains
    under the safety threshold after latency-sensitive traffic is served
    (``Simulation._bulk_capacities`` computes it inline, link by link).
    """
    check_positive("capacity", capacity)
    check_non_negative("online_usage", online_usage)
    check_fraction("threshold", threshold)
    return max(0.0, threshold * capacity - online_usage)


def bulk_capacities(
    caps: Mapping[ResourceKey, float],
    threshold: float,
    background,
    failures,
    now: float,
) -> Tuple[Dict[ResourceKey, float], Dict[ResourceKey, float]]:
    """(bulk capacity, online usage) per resource, rebuilt from scratch.

    Every WAN link samples ``background.usage`` once, in ``caps`` order
    (a continuous noisy curve draws from its stream once per link per
    call); a failed link has no bulk capacity.
    """
    online: Dict[ResourceKey, float] = {}
    bulk: Dict[ResourceKey, float] = {}
    for key, cap in caps.items():
        if key[0] != "wan":
            bulk[key] = cap
            continue
        used = background.usage(key, now, cap) if background else 0.0
        online[key] = used
        usable = residual_budget(cap, used, threshold)
        if failures and not failures.link_is_up(key[1], key[2]):
            usable = 0.0
        bulk[key] = usable
    return bulk, online


# -- simulator: scalar validation and per-flow remaining ----------------------


def valid_directives(
    has: Callable[[str, BlockId], bool],
    servers,
    directives: Sequence[TransferDirective],
    failed,
) -> List[TransferDirective]:
    """Drop directives that violate physics or reference failed agents."""
    valid: List[TransferDirective] = []
    for d in directives:
        if d.src_server in failed or d.dst_server in failed:
            continue
        if d.src_server not in servers:
            raise KeyError(f"unknown source server {d.src_server!r}")
        if d.dst_server not in servers:
            raise KeyError(f"unknown destination server {d.dst_server!r}")
        useful = tuple(
            bid
            for bid in d.block_ids
            if has(d.src_server, bid) and not has(d.dst_server, bid)
        )
        if not useful:
            continue
        if useful != d.block_ids:
            d = TransferDirective(
                job_id=d.job_id,
                block_ids=useful,
                src_server=d.src_server,
                dst_server=d.dst_server,
                rate_cap=d.rate_cap,
            )
        valid.append(d)
    return valid


def partial_map(view) -> Dict[Tuple[BlockId, str], float]:
    """``view.partial_bytes`` as the ``(block_id, dst_server) -> bytes``
    dict it was."""
    partial = view.partial_bytes
    matrix, n = partial.matrix, partial.matrix.num_servers
    keys = np.array(list(partial), dtype=np.int64)
    return {
        (block_id, matrix.server_names[key % n]): have
        for block_id, key, have in zip(
            matrix.block_ids(keys // n), keys.tolist(), partial.values()
        )
    }


def progress_flows(
    config, cycle, directives, columns, rates, block_ids, partial, prev_pairs
) -> Tuple[float, List[int], List[float], Set[Tuple[str, str]]]:
    """``Simulation._progress_flows`` as the per-row loop it was.

    Every row up to the budget's end is visited in order and probes
    ``partial``, the ``(block_id, dst_server) -> bytes`` dict, which the
    walk updates as it goes (so a repeated key sees the earlier row's
    progress). ``block_ids[flat]`` names a flat block number. Mutates
    ``partial``; returns the bytes moved, the rows done, their finish
    times and the (src, dst) pairs that had a flow.
    """
    cfg = config
    dt = cfg.cycle_seconds
    now = cycle * dt
    cycle_end = (cycle + 1) * dt
    current_pairs: Set[Tuple[str, str]] = set()
    done: List[int] = []
    finish: List[float] = []
    transferred = 0.0
    flat = columns.flat.tolist()
    sizes = columns.sizes.tolist()
    bounds = columns.bounds
    for i, d in enumerate(directives):
        rate = rates.get(i, 0.0)
        if rate <= 0:
            continue
        dst = d.dst_server
        pair = (d.src_server, dst)
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
            key = (block_ids[flat[row]], dst)
            have = partial.get(key, 0.0)
            need = sizes[row] - have
            take = min(need, budget)
            budget -= take
            used += take
            if take >= need - 1e-6:
                partial.pop(key, None)
                done.append(row)
                finish.append(min(now + (dt - window) + used / rate, cycle_end))
            else:
                partial[key] = have + take
        transferred += used
    return transferred, done, finish, current_pairs


def flow_remaining(
    size_of: Mapping[BlockId, float],
    partial: Mapping[Tuple[BlockId, str], float],
    directive: TransferDirective,
) -> float:
    """Bytes a directive still has to move."""
    return math.fsum(
        size_of[bid] - partial.get((bid, directive.dst_server), 0.0)
        for bid in directive.block_ids
    )


# -- scheduler: one store query per candidate ---------------------------------


def select_rarest_first(view, scheduler) -> List[ScheduledBlock]:
    """``scheduler.select(view)`` by per-candidate store queries and a
    key-callable sort: no candidate table, no memo."""
    candidates: List[Tuple[int, int, int, int, ScheduledBlock]] = []
    for job in view.jobs:
        priority = getattr(job, "priority", 0)
        pending = [
            (block, dc, server, False)
            for block, dc, server in pending_deliveries(view, job)
        ]
        if scheduler.use_relays and job.relay_dcs:
            pending.extend(
                (block, dc, server, True)
                for block, dc, server in pending_relay_placements(view, job)
            )
        for block, dst_dc, dst_server, is_relay in pending:
            if dst_server in view.failed_agents:
                continue
            holders = view.store.holders(block.block_id)
            duplicates = len(holders)
            if duplicates == 0:
                continue
            if all(s in view.failed_agents for s in holders):
                continue  # no eligible source
            candidates.append(
                (
                    1 if is_relay else 0,
                    -priority,
                    duplicates,
                    block.index,
                    ScheduledBlock(
                        job_id=job.job_id,
                        block=block,
                        dst_dc=dst_dc,
                        dst_server=dst_server,
                        duplicates=duplicates,
                        is_relay=is_relay,
                    ),
                )
            )
    candidates.sort(key=lambda item: item[:4])
    selected = [entry for _r, _p, _dup, _idx, entry in candidates]
    if scheduler.max_blocks_per_cycle:
        selected = selected[: scheduler.max_blocks_per_cycle]
    return selected


# -- flow: one object per flow, and the kernels keyed by flow id ---------------


@dataclass
class Flow:
    """A unidirectional transfer consuming a fixed set of resources.

    ``rate_cap`` optionally bounds the rate from above (BDS's bandwidth
    allocation, or a per-flow application limit); ``demand`` optionally
    bounds it by how much the flow can actually use this cycle
    (remaining bytes / cycle length).
    """

    flow_id: Hashable
    resources: Tuple[ResourceKey, ...]
    rate_cap: Optional[float] = None
    demand: Optional[float] = None

    def effective_cap(self) -> float:
        """The flow's own upper bound, +inf when unconstrained."""
        cap = float("inf")
        if self.rate_cap is not None:
            cap = min(cap, self.rate_cap)
        if self.demand is not None:
            cap = min(cap, self.demand)
        return cap


def flow_rows(flows: Sequence[Flow]) -> FlowRows:
    """The rows the rate kernels run on, one per flow, resources numbered
    in first-appearance order."""
    numbers: Dict[ResourceKey, int] = {}
    paths = [
        [numbers.setdefault(res, len(numbers)) for res in flow.resources]
        for flow in flows
    ]
    return FlowRows(paths, [flow.effective_cap() for flow in flows], list(numbers))


def fair_rates_by_id(
    flows: Sequence[Flow],
    capacities: Mapping[ResourceKey, float],
    stats: Optional[FlowKernelStats] = None,
    kernel: Callable = max_min_fair_rates,
) -> Dict[Hashable, float]:
    """``kernel`` (the waterfill) over ``flows``' rows, as ``{flow_id:
    rate}``: a duplicate id keeps the highest rate any of its flows froze
    at (the textbook loop's last write)."""
    rates = kernel(flow_rows(flows), capacities, stats)
    by_id: Dict[Hashable, float] = {flow.flow_id: 0.0 for flow in flows}
    for flow, rate in zip(flows, rates):
        if rate > by_id[flow.flow_id]:
            by_id[flow.flow_id] = rate
    return by_id


def clip_by_id(
    flows: Sequence[Flow],
    requested: Mapping[Hashable, float],
    capacities: Mapping[ResourceKey, float],
) -> Dict[Hashable, float]:
    """:func:`repro.net.flow.clip_rates_to_capacity` over ``flows``' rows,
    keyed by ``flow_id``: an absent id requests 0, and a repeated id's
    last flow wins."""
    asked = [requested.get(flow.flow_id, 0.0) for flow in flows]
    clipped = clip_rates_to_capacity(flow_rows(flows), asked, capacities)
    return {flow.flow_id: rate for flow, rate in zip(flows, clipped)}


# -- flow: the waterfill that rebuilds its load every iteration ---------------


def max_min_fair_rates_reference(
    flows: Sequence[Flow],
    capacities: Mapping[ResourceKey, float],
    stats: Optional[FlowKernelStats] = None,
) -> Dict[Hashable, float]:
    """Progressive filling, ``load`` rebuilt from the active flows each
    iteration; :func:`repro.net.flow.max_min_fair_rates` must match it
    bit for bit on every input, and count the same stalemates (an
    iteration that freezes no flow ends the loop)."""
    rates: Dict[Hashable, float] = {f.flow_id: 0.0 for f in flows}
    active: List[Flow] = [f for f in flows if f.effective_cap() > 0]
    for flow in flows:
        if flow.effective_cap() <= 0:
            rates[flow.flow_id] = 0.0
    residual: Dict[ResourceKey, float] = dict(capacities)
    level = 0.0

    while active:
        load: Dict[ResourceKey, int] = {}
        for flow in active:
            for res in flow.resources:
                load[res] = load.get(res, 0) + 1

        increment = float("inf")
        for res, count in load.items():
            if res not in residual:
                raise KeyError(f"flow references unknown resource {res!r}")
            increment = min(increment, residual[res] / count)
        for flow in active:
            increment = min(increment, flow.effective_cap() - level)
        if increment == float("inf"):
            raise ValueError("unbounded allocation: no capacities bind any flow")
        increment = max(increment, 0.0)

        level += increment
        for flow in active:
            rates[flow.flow_id] = level
        for res, count in load.items():
            residual[res] -= increment * count
            if residual[res] < 0:
                residual[res] = 0.0

        still_active: List[Flow] = []
        for flow in active:
            capped = flow.effective_cap() - level <= 1e-12
            saturated = any(residual[res] <= 1e-9 for res in flow.resources)
            if not (capped or saturated):
                still_active.append(flow)
        if len(still_active) == len(active):
            if stats is not None:
                stats.stalemates += 1
            break
        active = still_active
    return rates


# -- flow: the clip and the object-based reconcile ----------------------------


def clip_rates_to_capacity_scalar(
    flows: Sequence[Flow],
    requested: Mapping[Hashable, float],
    capacities: Mapping[ResourceKey, float],
) -> Dict[Hashable, float]:
    """The scalar one-pass clip (dict bookkeeping)."""
    usage: Dict[ResourceKey, float] = {}
    for flow in flows:
        r = requested.get(flow.flow_id, 0.0)
        for res in flow.resources:
            usage[res] = usage.get(res, 0.0) + r
    scale: Dict[ResourceKey, float] = {}
    for res, used in usage.items():
        cap = capacities.get(res)
        if cap is None:
            raise KeyError(f"flow references unknown resource {res!r}")
        scale[res] = 1.0 if used <= cap or used <= 0 else cap / used
    result: Dict[Hashable, float] = {}
    for flow in flows:
        r = requested.get(flow.flow_id, 0.0)
        factor = min((scale[res] for res in flow.resources), default=1.0)
        result[flow.flow_id] = r * factor
    return result


def resource_utilization(
    flows: Sequence[Flow],
    rates: Mapping[Hashable, float],
) -> Dict[ResourceKey, float]:
    """Aggregate bytes/second crossing each resource under ``rates``."""
    usage: Dict[ResourceKey, float] = {}
    for flow in flows:
        r = rates.get(flow.flow_id, 0.0)
        for res in flow.resources:
            usage[res] = usage.get(res, 0.0) + r
    return usage


def from_indices(
    job_id: str,
    block_indices: np.ndarray,
    src_server: str,
    dst_server: str,
    rate_cap: Optional[float] = None,
) -> TransferDirective:
    """A directive over blocks ``(job_id, i) for i in block_indices``."""
    return TransferDirective.from_segment(
        job_id, block_indices, 0, len(block_indices), src_server, dst_server,
        rate_cap,
    )


def with_rate_cap(
    directive: TransferDirective, rate_cap: Optional[float]
) -> TransferDirective:
    """``directive`` with another ``rate_cap`` (block list shared)."""
    return TransferDirective.from_segment(
        directive.job_id, directive._column, directive._lo, directive._hi,
        directive.src_server, directive.dst_server, rate_cap,
    )


def reconcile_wan(
    view: ClusterView,
    directives: List[TransferDirective],
) -> Tuple[List[TransferDirective], int]:
    """``BDSController._reconcile_wan`` as it was: a ``Flow`` per capped
    directive, its resources re-interned by the waterfill, and a
    ``with_rate_cap`` copy per lowered cap.

    Outer shared-capacity reconciliation over all shards' directives.

    Each shard routed against the *full* link budgets, so the
    combined rate caps can oversubscribe shared resources. One
    max-min waterfill (here the reference loop, which the event kernel
    matches bit for bit) over the combined directives,
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
    rates = max_min_fair_rates_reference(flows, view.bulk_capacities)
    reconciled = 0
    out = list(directives)
    for j, i in enumerate(capped):
        new_cap = float(rates[j])
        if new_cap < requested[j]:
            out[i] = with_rate_cap(out[i], new_cap)
            reconciled += 1
    return out, reconciled


# -- workload -----------------------------------------------------------------


def cdf(distribution, value: float) -> float:
    """P(X <= value) of a ``PiecewiseLinearCDF``: the forward
    interpolation its ``quantile`` inverts."""
    xs, ps = distribution._xs, distribution._ps
    x = math.log10(value) if distribution.log_space else value
    if x <= xs[0]:
        return 0.0
    if x >= xs[-1]:
        return 1.0
    hi = bisect.bisect_right(xs, x)
    lo = hi - 1
    if xs[hi] == xs[lo]:
        return ps[hi]
    return ps[lo] + (ps[hi] - ps[lo]) * (x - xs[lo]) / (xs[hi] - xs[lo])


# -- experiments --------------------------------------------------------------


def read_generated(path) -> str:
    """The text between the two marker lines of ``path`` (the block
    ``repro experiment all --write`` rewrites)."""
    text = Path(path).read_text(encoding="utf-8")
    start = text.index(BEGIN) + len(BEGIN) + 1
    return text[start : text.index(END, start)]


# -- topology -----------------------------------------------------------------


def route_dcs(topology, src_dc: str, dst_dc: str) -> Tuple[str, ...]:
    """The DC sequence of the WAN route, including both endpoints."""
    return (src_dc,) + tuple(key[2] for key in topology.route(src_dc, dst_dc))


# -- store: the name-keyed queries the facade does not serve ------------------


def duplicate_count(store, block_id: BlockId) -> int:
    """Copies of ``block_id`` cluster-wide (the §4.3 rarity measure): a
    matrix-backed store's ``dup`` cell, the column the schedulers read
    (0 for an unknown block); ``len(holders)`` for a store without one."""
    matrix = getattr(store, "matrix", None)
    if matrix is None:
        return len(store.holders(block_id))
    gid = matrix.gid_of(block_id)
    return 0 if gid is None else int(matrix.dup[gid])


def dc_has_block(store, dc: str, block_id: BlockId) -> bool:
    """Whether some server of ``dc`` holds ``block_id``."""
    return any(store.dc_of(server) == dc for server in store.holders(block_id))


def blocks_on(store, server_id: str) -> FrozenSet[BlockId]:
    """The blocks one server holds: a ``has`` probe per block the
    store's matrix names (empty for an unknown server)."""
    matrix = store.matrix
    return frozenset(
        b
        for b in matrix.block_ids(np.arange(matrix.num_blocks))
        if store.has(server_id, b)
    )


def dc_copy_count(store, dc: str, block_id: BlockId) -> int:
    """Copies of ``block_id`` inside DC ``dc``: the holders of a
    matrix-backed store's block row that sit in ``dc`` (0 for an unknown
    DC or block)."""
    matrix = store.matrix
    gid = matrix.gid_of(block_id)
    did = matrix.dc_ids.get(dc)
    if gid is None or did is None:
        return 0
    return int(np.count_nonzero(matrix.server_dc_ids[matrix.holder_ids(gid)] == did))


# -- store: the dict-of-sets possession index ---------------------------------


class DictPossessionIndex:
    """``repro.overlay.store.PossessionIndex``'s facade over dicts of sets.

    Same updates, queries and ``deliveries`` log;
    no ``matrix``. ``holders``/``blocks_on`` return the live internal
    sets (read-only by contract).
    """

    def __init__(self, server_dc: Mapping[str, str]) -> None:
        self._server_dc: Dict[str, str] = dict(server_dc)
        self.deliveries: List[DeliveryRecord] = []
        self._holders: Dict[BlockId, Set[str]] = {}
        self._server_blocks: Dict[str, Set[BlockId]] = {
            s: set() for s in self._server_dc
        }
        self._dc_counts: Dict[Tuple[str, BlockId], int] = {}

    def seed(self, server_id: str, blocks: Iterable[Block]) -> None:
        for block in blocks:
            self._add(block.block_id, server_id)

    def record_delivery(
        self,
        block: Block,
        src_server: str,
        dst_server: str,
        time: float,
        origin_dc: str,
    ) -> Optional[DeliveryRecord]:
        if self.has(dst_server, block.block_id):
            return None
        self._add(block.block_id, dst_server)
        record = DeliveryRecord(
            block_id=block.block_id,
            src_server=src_server,
            dst_server=dst_server,
            time=time,
            from_origin_dc=self.dc_of(src_server) == origin_dc,
        )
        self.deliveries.append(record)
        return record

    def record_deliveries(
        self, events: Sequence[Tuple[Block, str, str, float, str]]
    ) -> List[Optional[DeliveryRecord]]:
        return [self.record_delivery(*event) for event in events]

    def _add(self, block_id: BlockId, server_id: str) -> None:
        if server_id not in self._server_dc:
            raise KeyError(f"unknown server {server_id!r}")
        holders = self._holders.setdefault(block_id, set())
        if server_id in holders:
            return
        holders.add(server_id)
        self._server_blocks[server_id].add(block_id)
        dc = self._server_dc[server_id]
        key = (dc, block_id)
        self._dc_counts[key] = self._dc_counts.get(key, 0) + 1

    def dc_of(self, server_id: str) -> str:
        return self._server_dc[server_id]

    def has(self, server_id: str, block_id: BlockId) -> bool:
        return block_id in self._server_blocks.get(server_id, ())

    def holders(self, block_id: BlockId) -> AbstractSet[str]:
        return self._holders.get(block_id, frozenset())

    def blocks_on(self, server_id: str) -> AbstractSet[BlockId]:
        return self._server_blocks.get(server_id, frozenset())

    def dc_copy_count(self, dc: str, block_id: BlockId) -> int:
        return self._dc_counts.get((dc, block_id), 0)

    def origin_fraction_by_server(self) -> Dict[str, float]:
        totals: Dict[str, int] = {}
        from_origin: Dict[str, int] = {}
        for record in self.deliveries:
            totals[record.dst_server] = totals.get(record.dst_server, 0) + 1
            if record.from_origin_dc:
                from_origin[record.dst_server] = (
                    from_origin.get(record.dst_server, 0) + 1
                )
        return {
            server: from_origin.get(server, 0) / count
            for server, count in totals.items()
        }


def delivery_columns(matrix, events):
    """``(block, src, dst, time, origin_dc)`` events as the parallel
    columns ``PossessionIndex.record_deliveries`` takes (the blocks' jobs
    interned)."""
    return (
        np.array([matrix.server_ids[e[2]] for e in events], dtype=np.int64),
        np.array([matrix.gid_of(e[0].block_id) for e in events], dtype=np.int64),
        np.array([matrix.server_ids[e[1]] for e in events], dtype=np.int64),
        np.array([e[3] for e in events], dtype=np.float64),
        np.array([matrix.dc_ids.get(e[4], -1) for e in events], dtype=np.int64),
    )


# -- simulator: one cycle's deliveries, landed and booked one by one ----------


def apply_deliveries(sim, events) -> None:
    """``Simulation._apply_deliveries`` as the per-delivery loop it was.

    ``events`` are ``(job_id, block, src, dst, when)`` in walk order;
    each lands with ``store.record_delivery`` and, when it placed a new
    copy on its block's assigned server in a destination DC, counts down
    and books in place.
    """
    state = sim.state
    dc_missing, server_missing = state.dc_missing, state.server_missing
    dc_completion = state.dc_completion
    for job_id, block, src, dst, when in events:
        job = sim._jobs_by_id[job_id]
        if state.store.record_delivery(block, src, dst, when, job.src_dc) is None:
            continue  # the destination already held the block
        dst_dc = state.store.dc_of(dst)
        dkey = (job_id, dst_dc)
        if dkey not in dc_missing:
            continue  # delivery to a relay DC: not completion-tracked
        if job.assigned_server(dst_dc, block.block_id) != dst:
            continue  # landed on a non-assigned server of a dest DC
        skey = (job_id, dst)
        server_missing[skey] -= 1
        if server_missing[skey] == 0:
            state.server_completion[skey] = when
        dc_missing[dkey] -= 1
        if dc_missing[dkey] == 0:
            dc_completion[dkey] = when
            if all((job_id, dc) in dc_completion for dc in job.dst_dcs):
                state.job_completion[job_id] = max(
                    dc_completion[(job_id, dc)] for dc in job.dst_dcs
                )


# -- store: real possession plus speculated copies, behind a proxy ------------


class SpeculatedStoreOracle:
    """Read-only possession overlay: a real store + speculated deliveries.

    ``extra`` are ``(block_id, dst_server)`` pairs. Every query the proxy
    does not answer itself goes to the wrapped store.
    """

    def __init__(self, store, extra: Iterable[Tuple[BlockId, str]]) -> None:
        self._store = store
        self._extra_by_server: Dict[str, Set[BlockId]] = {}
        self._extra_holders: Dict[BlockId, Set[str]] = {}
        for block_id, dst_server in extra:
            self._extra_by_server.setdefault(dst_server, set()).add(block_id)
            self._extra_holders.setdefault(block_id, set()).add(dst_server)

    def __getattr__(self, name):
        if name == "matrix":  # it would answer without the extra copies
            raise AttributeError("a speculated store oracle has no matrix")
        return getattr(self._store, name)

    def has(self, server_id: str, block_id: BlockId) -> bool:
        if block_id in self._extra_by_server.get(server_id, ()):
            return True
        return self._store.has(server_id, block_id)

    def holders(self, block_id: BlockId) -> Set[str]:
        return self._store.holders(block_id) | self._extra_holders.get(
            block_id, set()
        )

    def blocks_on(self, server_id: str) -> Set[BlockId]:
        return blocks_on(self._store, server_id) | self._extra_by_server.get(
            server_id, set()
        )


def speculate(view, previous_directives, horizon_seconds: float):
    """The deliveries ``previous_directives`` land within
    ``horizon_seconds``, as ``(server ids, block column ids)``:
    ``repro.core.speculation.DeliverySpeculator.speculate`` as it was,
    one ``TransferDirective`` per row and its endpoints by name."""
    matrix = view.store.matrix
    partial = view.partial_bytes
    sizes = {job.job_id: job.block_sizes() for job in view.jobs}
    sids: List[int] = []
    gids: List[int] = []
    for directive in previous_directives:
        if not directive.rate_cap or directive.rate_cap <= 0:
            continue
        src = matrix.server_ids.get(directive.src_server)
        dst = matrix.server_ids.get(directive.dst_server)
        if src is None or dst is None:
            continue
        job_id = directive.job_id
        size_of = sizes.get(job_id)
        if size_of is None:
            continue
        base, count = matrix.spans.get(job_id, (0, 0))
        budget = directive.rate_cap * horizon_seconds
        for index in directive.block_indices.tolist():
            if budget <= 0:
                break
            if not 0 <= index < count:
                continue
            gid = base + index
            if matrix.test_many(dst, gid):
                continue
            if not matrix.test_many(src, gid):
                continue
            remaining = float(size_of[index]) - partial.get(
                partial.key(gid, dst), 0.0
            )
            if remaining <= budget:
                sids.append(dst)
                gids.append(gid)
            budget -= min(remaining, budget)
    return np.array(sids, dtype=np.int64), np.array(gids, dtype=np.int64)


# -- MCF: the exact-LP reference over explicit paths --------------------------


def solve_lp_named(inc: PathIncidence) -> MCFResult:
    """``solve_lp_incidence`` as it was: one named ``LinearProgram``
    variable per usable path, and the constraint rows as name → coefficient
    dicts (resources ascending, then capped commodities)."""
    if inc.num_paths == 0:
        return MCFResult(objective=0.0, path_flows={})
    lp = LinearProgram(maximize=True)
    var_names: List[str] = []
    for pid in range(inc.num_paths):
        name = f"f_{int(inc.path_commodity[pid])}_{int(inc.path_orig_index[pid])}"
        var_names.append(name)
        lp.add_variable(name, lower=0.0, objective=1.0)
    by_resource: Dict[int, Dict[str, float]] = {}
    for pid, name in enumerate(var_names):
        lo = inc.path_starts[pid]
        for ri in inc.flat_res[lo : lo + inc.path_lens[pid]].tolist():
            row = by_resource.setdefault(ri, {})
            row[name] = row.get(name, 0.0) + 1.0
    for ri in sorted(by_resource):
        lp.add_constraint(by_resource[ri], "<=", float(inc.caps[ri]))
    for ci in range(inc.num_commodities):
        demand = inc.demands[ci]
        lo, hi = inc.commodity_path_range[ci]
        if not (demand < float("inf")) or lo == hi:
            continue
        lp.add_constraint(
            {var_names[pid]: 1.0 for pid in range(lo, hi)}, "<=", float(demand)
        )
    solution = lp.solve()
    flows: Dict[Tuple[Hashable, int], float] = {}
    for pid, name in enumerate(var_names):
        rate = solution.values[name]
        if rate > 1e-12:
            ci = int(inc.path_commodity[pid])
            key = (inc.commodities[ci].name, int(inc.path_orig_index[pid]))
            flows[key] = flows.get(key, 0.0) + rate
    return MCFResult(objective=solution.objective, path_flows=flows)


class PathMCF:
    """A max-throughput MCF instance over explicit paths: the exact LP
    (Fig. 13a's 'standard' route) every backend is priced against.

    Objective (paper Eq. 5): maximize total flow. Constraints: per-resource
    capacity (Eq. 1 & 2 collapsed onto the resource set of each path) and
    per-commodity demand (the per-cycle volume bound of Eq. 3). The
    instance is compiled once into a strict
    :class:`~repro.lp.incidence.PathIncidence` (an unknown resource
    raises ``KeyError``); both solves run over it.
    """

    def __init__(
        self,
        commodities: Sequence[Commodity],
        capacities: Mapping[ResourceKey, float],
    ) -> None:
        self.commodities = list(commodities)
        self.capacities = dict(capacities)
        self.incidence = PathIncidence.build(
            self.commodities, self.capacities, strict=True
        )

    def solve_lp(self) -> MCFResult:
        """Exact solution via the dense LP."""
        return solve_lp_incidence(self.incidence)

    def solve_fptas(self, epsilon: float = 0.1, warm=None) -> MCFResult:
        """ε-approximate solution via Fleischer's FPTAS over the same
        incidence (``warm`` as in ``max_multicommodity_flow``)."""
        result = max_multicommodity_flow(
            self.commodities,
            self.capacities,
            epsilon=epsilon,
            warm=warm,
            incidence=self.incidence,
        )
        return MCFResult(objective=result.objective, path_flows=result.path_flows)


def commodity_flow(result: MCFResult, name: Hashable) -> float:
    """Total allocated rate of one commodity."""
    return sum(
        rate for (cname, _i), rate in result.path_flows.items() if cname == name
    )


def resource_usage(
    result: MCFResult, commodities: Sequence[Commodity]
) -> Dict[ResourceKey, float]:
    """Aggregate usage per resource implied by the path flows."""
    by_name = {c.name: c for c in commodities}
    usage: Dict[ResourceKey, float] = {}
    for (cname, pi), rate in result.path_flows.items():
        for res in by_name[cname].paths[pi]:
            usage[res] = usage.get(res, 0.0) + rate
    return usage


# -- FPTAS: the reduceat phase loop the scalar kernel replaced ----------------


def reduceat_run_fleischer(
    ext,
    epsilon: float,
    delta: float,
    lengths: np.ndarray,
    raw: np.ndarray,
    max_iterations: Optional[int],
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """``repro.lp.fptas._run_fleischer`` as it was: one ``reduceat`` per oracle.

    Same arguments (``ext`` is a ``repro.lp.fptas._Instance``), same
    in-place contract. Per commodity it reduces a slice of the flat
    incidence with ``np.add.reduceat`` and takes ``np.argmin``; a push is
    a fancy-index multiply, or ``np.multiply.at`` when any path crosses a
    resource twice.
    """
    inc = ext.inc
    segments: List[Optional[Tuple[int, np.ndarray, np.ndarray]]] = []
    for ci in range(inc.num_commodities):
        lo, hi = inc.commodity_path_range[ci]
        if lo == hi:
            segments.append(None)
            continue
        flo = ext.starts[lo]
        fhi = ext.starts[hi - 1] + ext.lens[hi - 1]
        segments.append((lo, ext.flat[flo:fhi], ext.starts[lo:hi] - flo))
    any_dup = any(
        len(set(inc.flat_res[s : s + n].tolist())) != n
        for s, n in zip(inc.path_starts.tolist(), inc.path_lens.tolist())
    )

    m = len(ext.used_res)
    limit = (
        int(10 * m * math.log(m + 2) / (epsilon**2) + 1000)
        if max_iterations is None
        else max_iterations
    )
    one_plus = 1.0 + epsilon
    log_one_plus = math.log(one_plus)

    heap: List[Tuple[float, int]] = []
    for ci, seg in enumerate(segments):
        if seg is None:
            continue
        lo, seg_flat, local_starts = seg
        plens = np.add.reduceat(lengths[seg_flat], local_starts)
        best = float(plens.min())
        if best < 1.0:
            heap.append((best, ci))
    heapq.heapify(heap)

    iterations = 0
    phases = 0
    threshold = delta * one_plus
    while heap and iterations < limit:
        top = heap[0][0]
        if threshold <= top:
            k = math.floor(math.log(top / delta) / log_one_plus) + 1
            threshold = delta * one_plus**k
            while threshold <= top:  # float-rounding guard
                threshold *= one_plus
        t_cur = min(threshold, 1.0)
        phases += 1
        while heap and heap[0][0] < t_cur and iterations < limit:
            _cached, ci = heapq.heappop(heap)
            lo, seg_flat, local_starts = segments[ci]
            plens = np.add.reduceat(lengths[seg_flat], local_starts)
            pl = int(np.argmin(plens))
            best = float(plens[pl])
            while best < t_cur and iterations < limit:
                pid = lo + pl
                bottleneck = ext.min_cap[pid]
                raw[pid] += bottleneck
                s = ext.starts[pid]
                idxs = ext.flat[s : s + ext.lens[pid]]
                factors = 1.0 + epsilon * bottleneck / ext.caps[idxs]
                if any_dup:
                    np.multiply.at(lengths, idxs, factors)
                else:
                    lengths[idxs] *= factors
                iterations += 1
                plens = np.add.reduceat(lengths[seg_flat], local_starts)
                pl = int(np.argmin(plens))
                best = float(plens[pl])
            if best < 1.0:
                heapq.heappush(heap, (best, ci))
    return lengths, raw, iterations, phases


# -- baselines: the per-(neighbour, block) store.has loops --------------------


class BaselineState:
    """What a baseline carries from one ``decide`` to the next."""

    def __init__(self, seed: SeedLike = None) -> None:
        self.rng = make_rng(seed)
        # Gingko/Bullet: (job_id, receiver) -> neighbours/peers this epoch;
        # Akamai: job_id -> dc -> reflectors; chain: job_id -> relay chain.
        self.memo: Dict = {}
        self.last_epoch = -1


def missing_blocks_by_server(view, job) -> Dict[str, list]:
    """Per destination server: its still-missing shard blocks.

    Only includes blocks that have at least one healthy holder, so a
    directive can actually be formed for them.
    """
    result: Dict[str, list] = {}
    for block, _dc, server in pending_deliveries(view, job):
        if server not in view.failed_agents and eligible_sources(
            view, block.block_id
        ):
            result.setdefault(server, []).append(block)
    return result


def directives_for_partition(job, dst_server, partition) -> List[TransferDirective]:
    """Build one directive per (source, dst_server) from a block split."""
    directives: List[TransferDirective] = []
    for src, blocks in partition.items():
        if not blocks or src == dst_server:
            continue
        directives.append(
            TransferDirective(
                job_id=job.job_id,
                block_ids=tuple(b.block_id for b in sorted(blocks)),
                src_server=src,
                dst_server=dst_server,
            )
        )
    return directives


def lens_directives(lens, rows) -> List[TransferDirective]:
    """:meth:`JobPossession.directives` as objects: one per (destination,
    source) pair of the ``(dst, src, idx)`` column triples ``rows``, in
    order of first appearance, with its blocks in row order; a row
    without a sender (``src`` negative) is dropped. The per-pair builder
    the lens's batch replaced, as a dict of lists."""
    pairs: Dict[Tuple[int, int], List[int]] = {}
    columns = (np.concatenate(column).tolist() for column in zip(*rows))
    for dst, src, idx in zip(*columns):
        if src >= 0:
            pairs.setdefault((dst, src), []).append(idx)
    names = lens.names
    return [
        TransferDirective(
            lens.job.job_id, [(lens.job.job_id, i) for i in idx], names[s], names[d]
        )
        for (d, s), idx in pairs.items()
    ]


def count_calls(monkeypatch, owner, name: str) -> list:
    """The first argument of every call of ``owner.name`` from now on,
    which still runs: ``self`` for a method, so counting a constructor's
    hook (``Block.__post_init__``, ``TransferDirective._init``) lists
    the objects built."""
    calls: list = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def origin_holder(view, job, block, exclude=None) -> Optional[str]:
    """The source-DC server holding ``block``: the lowest id among several.

    (The loops this replaces took the first source-DC entry of the
    holder set, which moved with ``PYTHONHASHSEED`` once a block had two
    copies in the source DC.)
    """
    for server in sorted(eligible_sources(view, block.block_id)):
        if view.store.dc_of(server) == job.src_dc and server != exclude:
            return server
    return None


def gingko_decide(
    view,
    state: BaselineState,
    view_size: int = 10,
    epoch_cycles: int = 5,
    fetch_parallelism: int = 3,
    blocks_per_request: int = 8,
) -> List[TransferDirective]:
    def sample_neighbors(job_id, dst_server):
        pool: List[str] = []
        seen = set()
        for job in view.jobs:
            if job.job_id != job_id:
                continue
            for block in job.blocks:
                for holder in view.store.holders(block.block_id):
                    if holder not in seen and holder != dst_server:
                        if holder not in view.failed_agents:
                            seen.add(holder)
                            pool.append(holder)
        if not pool:
            return []
        pool.sort()
        size = min(view_size, len(pool))
        idx = state.rng.choice(len(pool), size=size, replace=False)
        return [pool[int(i)] for i in idx]

    def fetch_from_neighbors(missing, neighbors, picks):
        partition: Dict[str, list] = {}
        for block in sorted(missing):
            holders = [
                n
                for n in neighbors
                if view.store.has(n, block.block_id) and n not in view.failed_agents
            ]
            if not holders:
                continue
            pick = None
            for holder in holders:
                if holder in partition:
                    pick = holder
                    break
            if pick is None:
                if len(partition) >= fetch_parallelism:
                    continue
                u = picks[len(partition)]
                pick = holders[min(int(u * len(holders)), len(holders) - 1)]
            bucket = partition.setdefault(pick, [])
            if len(bucket) >= blocks_per_request:
                continue
            bucket.append(block)
        return partition

    epoch = view.cycle // epoch_cycles
    refresh = epoch != state.last_epoch
    state.last_epoch = epoch
    directives: List[TransferDirective] = []
    for job in view.jobs:
        by_server = missing_blocks_by_server(view, job)
        if not by_server:
            continue
        # Every redrawn receiver's neighbours first, then one pick draw
        # per receiver and sender it may ask.
        for dst_server in by_server:
            key = (job.job_id, dst_server)
            if refresh or key not in state.memo:
                state.memo[key] = sample_neighbors(job.job_id, dst_server)
        picks = state.rng.random((len(by_server), fetch_parallelism))
        for row, (dst_server, missing) in enumerate(by_server.items()):
            partition = fetch_from_neighbors(
                missing, state.memo[(job.job_id, dst_server)], picks[row].tolist()
            )
            directives.extend(directives_for_partition(job, dst_server, partition))
    return directives


def bullet_decide(
    view,
    state: BaselineState,
    ransub_size: int = 10,
    num_peers: int = 4,
    refresh_interval: int = 5,
    blocks_per_peer: int = 8,
) -> List[TransferDirective]:
    def ransub_peers(dst_server, missing):
        holders = set()
        for block in missing:
            holders.update(eligible_sources(view, block.block_id))
        holders.discard(dst_server)
        candidates = sorted(holders)
        if not candidates:
            return []
        size = min(ransub_size, len(candidates))
        subset_idx = state.rng.choice(len(candidates), size=size, replace=False)
        subset = [candidates[int(i)] for i in subset_idx]
        return subset[:num_peers]

    def partition_disjoint(missing, peers):
        partition: Dict[str, list] = {p: [] for p in peers}
        if not peers:
            return {}
        turn = 0
        for block in sorted(missing):
            eligible = [
                p
                for p in peers
                if view.store.has(p, block.block_id)
                and len(partition[p]) < blocks_per_peer
            ]
            if not eligible:
                continue
            pick = eligible[turn % len(eligible)]
            partition[pick].append(block)
            turn += 1
        return {p: blocks for p, blocks in partition.items() if blocks}

    epoch = view.cycle // refresh_interval
    refresh = epoch != state.last_epoch
    state.last_epoch = epoch
    directives: List[TransferDirective] = []
    for job in view.jobs:
        by_server = missing_blocks_by_server(view, job)
        for dst_server, missing in by_server.items():
            key = (job.job_id, dst_server)
            if refresh or key not in state.memo:
                state.memo[key] = ransub_peers(dst_server, missing)
            partition = partition_disjoint(missing, state.memo[key])
            directives.extend(directives_for_partition(job, dst_server, partition))
    return directives


def akamai_decide(
    view, state: BaselineState, reflectors_per_dc: int = 1, window: int = 16
) -> List[TransferDirective]:
    def source_to_reflectors(job, reflectors):
        directives: List[TransferDirective] = []
        for _dc, dc_reflectors in reflectors.items():
            for i, reflector in enumerate(dc_reflectors):
                if reflector in view.failed_agents:
                    continue
                wanted = [
                    b
                    for b in job.blocks
                    if b.index % len(dc_reflectors) == i
                    and not view.store.has(reflector, b.block_id)
                ]
                partition: Dict[str, list] = {}
                for block in wanted[:window]:
                    src = origin_holder(view, job, block, reflector)
                    if src is None:
                        continue
                    partition.setdefault(src, []).append(block)
                directives.extend(directives_for_partition(job, reflector, partition))
        return directives

    def reflector_holder(block, dc_reflectors):
        for reflector in dc_reflectors:
            if reflector not in view.failed_agents and view.store.has(
                reflector, block.block_id
            ):
                return reflector
        return None

    def reflectors_to_edges(job, reflectors):
        directives: List[TransferDirective] = []
        by_server = missing_blocks_by_server(view, job)
        for dst_server, missing in by_server.items():
            dc = view.store.dc_of(dst_server)
            dc_reflectors = reflectors.get(dc, ())
            if dst_server in dc_reflectors:
                continue  # the reflector itself is fed by layer 1
            partition: Dict[str, list] = {}
            for block in sorted(missing)[:window]:
                src = reflector_holder(block, dc_reflectors)
                if src is None or src == dst_server:
                    continue
                partition.setdefault(src, []).append(block)
            directives.extend(directives_for_partition(job, dst_server, partition))
        return directives

    directives: List[TransferDirective] = []
    for job in view.jobs:
        if job.job_id not in state.memo:
            state.memo[job.job_id] = {
                dc: [
                    s.server_id
                    for s in view.topology.servers_in(dc)[:reflectors_per_dc]
                ]
                for dc in job.dst_dcs
            }
        reflectors = state.memo[job.job_id]
        directives.extend(source_to_reflectors(job, reflectors))
        directives.extend(reflectors_to_edges(job, reflectors))
    return directives


def chain_decide(
    view, state: BaselineState, window: int = 16
) -> List[TransferDirective]:
    def upstream_holder(job, chain, hop, block, exclude):
        if hop > 0:
            upstream = chain[hop - 1]
            if upstream not in view.failed_agents and view.store.has(
                upstream, block.block_id
            ):
                return upstream
            return None
        return origin_holder(view, job, block, exclude)

    def feed_chain(job, chain):
        directives: List[TransferDirective] = []
        for hop, relay in enumerate(chain):
            if relay in view.failed_agents:
                continue
            missing = [
                b for b in job.blocks if not view.store.has(relay, b.block_id)
            ][:window]
            partition: Dict[str, list] = {}
            for block in missing:
                src = upstream_holder(job, chain, hop, block, relay)
                if src is None:
                    continue
                partition.setdefault(src, []).append(block)
            directives.extend(directives_for_partition(job, relay, partition))
        return directives

    def fan_out_inside_dcs(job, chain):
        directives: List[TransferDirective] = []
        by_server = missing_blocks_by_server(view, job)
        relay_by_dc = {view.store.dc_of(r): r for r in chain}
        for dst_server, missing in by_server.items():
            relay = relay_by_dc.get(view.store.dc_of(dst_server))
            if relay is None or relay == dst_server:
                continue
            blocks = [
                b for b in sorted(missing) if view.store.has(relay, b.block_id)
            ][:window]
            if not blocks:
                continue
            directives.extend(
                directives_for_partition(job, dst_server, {relay: blocks})
            )
        return directives

    directives: List[TransferDirective] = []
    for job in view.jobs:
        if job.job_id not in state.memo:
            state.memo[job.job_id] = [
                view.topology.servers_in(dc)[0].server_id for dc in job.dst_dcs
            ]
        chain = state.memo[job.job_id]
        directives.extend(feed_chain(job, chain))
        directives.extend(fan_out_inside_dcs(job, chain))
    return directives


def direct_decide(view, window: int = 32) -> List[TransferDirective]:
    directives: List[TransferDirective] = []
    for job in view.jobs:
        by_server = missing_blocks_by_server(view, job)
        for dst_server, missing in by_server.items():
            partition: Dict[str, list] = {}
            for block in sorted(missing)[:window]:
                src = origin_holder(view, job, block)
                if src is None or src == dst_server:
                    continue
                partition.setdefault(src, []).append(block)
            directives.extend(directives_for_partition(job, dst_server, partition))
    return directives
