"""Reference implementations: the loops the columnar hand-off replaced.

Each function is the body of a per-block Python loop that used to sit
between the scheduler kernel and the store scatter, lifted verbatim into
a pure function. Nothing under ``src/`` imports this module; the
property tests (``tests/test_columnar_handoff.py``) run the array
kernels against these, result for result and float for float.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Hashable, List, Mapping, Sequence, Tuple

from repro.lp.mcf import Commodity
from repro.net.simulator import TransferDirective

BlockId = Tuple[str, int]
GroupKey = Tuple[str, str, Tuple[str, ...]]


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
        for s in view.eligible_sources(entry.block.block_id)
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
        remaining = sum(
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
        total_rate = sum(rate for _s, rate in per_source)
        total_bytes = sum(b.size for b in blocks)
        budgets = {src: rate / total_rate * total_bytes for src, rate in per_source}
        assigned: Dict[str, list] = {src: [] for src, _r in per_source}
        for block in blocks:
            src = max(budgets, key=lambda s: budgets[s])
            assigned[src].append(block)
            budgets[src] -= block.size
        used_rate = sum(r for s, r in per_source if assigned[s])
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
    rates, _stats = router._solve(view, commodities, view.bulk_capacities)
    return commodities, to_directives(view, commodities, group_blocks, rates)


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


def flow_remaining(
    size_of: Mapping[BlockId, float],
    partial: Mapping[Tuple[BlockId, str], float],
    directive: TransferDirective,
) -> float:
    """Bytes a directive still has to move."""
    return sum(
        size_of[bid] - partial.get((bid, directive.dst_server), 0.0)
        for bid in directive.block_ids
    )
