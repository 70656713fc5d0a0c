"""The columnar decide→deliver hand-off against its per-block oracles.

The router's pick/merge/size/deal kernels and the simulator's one-gather
validation replaced per-block Python loops; ``tests/oracles.py`` keeps
those loops as pure functions. Everything here is equality — directive
for directive, commodity for commodity, float for float — over generated
scenarios, plus the :class:`TransferDirective` contract the legacy
readers rely on.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
import zlib
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests import oracles
from repro.analysis.runner import make_strategy
from repro.core.config import BDSConfig
from repro.core.controller import BDSController
from repro.core.decisions import SelectionBatch
from repro.core.routing import BDSRouter
from repro.core.scheduling import RarestFirstScheduler
from repro.net.directive import TransferDirective
from repro.net.failures import FailureEvent, FailureSchedule
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import MB, MBps

# -- scenarios ------------------------------------------------------------------


def _scenario(seed: int, wide: bool = False, line: bool = False):
    """A randomized (topology, jobs, failures, pre-seeded copies) tuple.

    Covers: jobs whose last block is short, jobs of one or two blocks
    (fewer blocks than flowing sources), relay DCs, extra copies on
    arbitrary servers (holders inside the destination DC), agent
    failures, and link failures — on a line topology those cut some
    holders off from some destinations. ``wide`` crosses 64 servers (a
    holder set then spans two signature words).
    """
    rng = random.Random(seed)
    num_dcs = rng.randint(3, 5)
    dcs = [f"dc{i}" for i in range(num_dcs)]
    servers = 14 if wide else rng.randint(1, 4)
    if line:
        topo = oracles.line_topology(dcs, servers, 40 * MBps, 5 * MBps)
    else:
        topo = Topology.full_mesh(
            num_dcs=num_dcs, servers_per_dc=servers,
            wan_capacity=40 * MBps, uplink=5 * MBps,
        )
    jobs = []
    for j in range(rng.randint(1, 3)):
        src = rng.choice(dcs)
        others = [d for d in dcs if d != src]
        rng.shuffle(others)
        num_dsts = rng.randint(1, len(others))
        leftovers = others[num_dsts:]
        job = MulticastJob(
            job_id=f"job{j}",
            src_dc=src,
            dst_dcs=tuple(sorted(others[:num_dsts])),
            relay_dcs=tuple(leftovers[:1]) if leftovers and rng.random() < 0.5 else (),
            total_bytes=rng.choice([1, 2, 7, 12, 24]) * 4 * MB
            - rng.choice([0, 1, 123_457]),
            block_size=4 * MB,
            priority=rng.randint(0, 1),
        )
        job.bind(topo)
        jobs.append(job)
    names = sorted(topo.servers)
    pre_seeded = {}
    for _ in range(rng.randint(0, 6)):
        job = rng.choice(jobs)
        pre_seeded.setdefault(rng.choice(names), []).append(rng.choice(job.blocks))
    events = []
    if rng.random() < 0.5:
        events.append(FailureEvent(cycle=1, kind="agent_fail", target=rng.choice(names)))
    if rng.random() < 0.5:
        a = rng.randrange(num_dcs - 1)
        events.append(FailureEvent(cycle=1, kind="link_fail", target=(dcs[a], dcs[a + 1])))
        events.append(FailureEvent(cycle=1, kind="link_fail", target=(dcs[a + 1], dcs[a])))
    return topo, jobs, FailureSchedule(events) if events else None, pre_seeded


def _midrun(seed: int, cycles: int, **shape) -> Simulation:
    """A simulation ``cycles`` cycles in: possession spread, partial bytes live."""
    topo, jobs, failures, pre_seeded = _scenario(seed, **shape)
    sim = Simulation(
        topology=topo,
        jobs=jobs,
        strategy=make_strategy("bds", seed=seed),
        config=SimConfig(max_cycles=max(cycles, 1), stop_when_complete=False),
        failures=failures,
        pre_seeded=pre_seeded,
        seed=seed,
    )
    if cycles:
        sim.run()
    return sim


# -- the router kernels against the per-selection loops -----------------------


@given(
    sizes=st.lists(st.integers(0, 4), min_size=1, max_size=6),
    dst_dc=st.integers(0, 5),
    index=st.integers(0, 10_000),
    max_sources=st.integers(1, 4),
)
def test_pick_dedupe_never_fires(sizes, dst_dc, index, max_sources):
    """DC buckets are disjoint, so a pick cannot repeat an earlier one."""
    by_dc, server = {}, 0
    for dc, n in enumerate(sizes):
        by_dc[dc] = list(range(server, server + n))
        server += n
    assert oracles.pick_sources(
        by_dc, dst_dc, index, max_sources, dedupe=True
    ) == oracles.pick_sources(by_dc, dst_dc, index, max_sources, dedupe=False)


def _assert_router_matches_oracle(sim, max_sources, merge, cap=0):
    view = sim.snapshot_view(sim.config.max_cycles)
    scheduler = RarestFirstScheduler(max_blocks_per_cycle=cap)
    selections = scheduler.select(view)
    # The columnar path is the one under test.
    assert isinstance(selections, SelectionBatch)
    router = BDSRouter(max_sources_per_group=max_sources, merge_blocks=merge)
    directives, diagnostics = router.route(view, selections)
    want_commodities, want = oracles.route(
        view, selections,
        BDSRouter(max_sources_per_group=max_sources, merge_blocks=merge),
    )
    assert directives == want
    assert diagnostics.num_commodities == len(want_commodities)
    if selections:
        cache = view._cache
        grouping = router._group_columns(view, selections)
        members, demands, paths = router._build_commodities(view, grouping)
        # Names, paths, demands: exact.
        assert [grouping.key(g) for g in members] == [
            c.name for c in want_commodities
        ]
        assert demands == [c.demand for c in want_commodities]
        assert [
            tuple(tuple(cache.res_keys[i] for i in path) for path in candidates)
            for candidates in paths
        ] == [c.paths for c in want_commodities]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cycles=st.integers(0, 3),
    max_sources=st.sampled_from([1, 2, 3]),
    merge=st.booleans(),
    line=st.booleans(),
)
@example(seed=512, cycles=2, max_sources=1, merge=False, line=True)
@example(seed=512, cycles=2, max_sources=1, merge=True, line=True)
def test_router_equals_per_selection_oracle(seed, cycles, max_sources, merge, line):
    """The two examples kill the mutant (applied to a copy of
    ``core/routing.py``) that leaves groups without a usable source in
    their first-appearance place instead of after every other group:
    seed 512 (a line topology with a failed link) lists one ahead of
    groups that have a source, which would then drop out with it."""
    _assert_router_matches_oracle(
        _midrun(seed, cycles, line=line), max_sources, merge
    )


@pytest.mark.parametrize(
    "seed, max_sources, merge",
    [
        # The merging, three-source cases keep their seed-only ids.
        pytest.param(seed, k, merge, id=str(seed) if (k, merge) == (3, True)
                     else f"{seed}-{k}-{'merge' if merge else 'no-merge'}")
        for seed in range(4) for k in (1, 3, 4) for merge in (True, False)
    ],
)
def test_router_equals_oracle_past_64_servers(seed, max_sources, merge):
    _assert_router_matches_oracle(_midrun(seed, 2, wide=True), max_sources, merge)


def _two_word_sim(failed):
    """70 servers (two holder words), two jobs two cycles in, with copies
    seeded on, and agent failures at cycle 1 of, the servers at ``failed``
    (sids)."""
    topo = Topology.full_mesh(
        num_dcs=5, servers_per_dc=14, wan_capacity=40 * MBps, uplink=5 * MBps
    )
    names = sorted(topo.servers)
    jobs = []
    for j, src in enumerate(("dc0", "dc3")):
        job = MulticastJob(
            job_id=f"job{j}", src_dc=src,
            dst_dcs=tuple(d for d in ("dc1", "dc2", "dc4") if d != src),
            total_bytes=24 * 4 * MB - 123_457, block_size=4 * MB,
        )
        job.bind(topo)
        jobs.append(job)
    pre_seeded = {names[sid]: jobs[0].blocks[::2] + jobs[1].blocks[1::3] for sid in failed}
    events = [FailureEvent(cycle=1, kind="agent_fail", target=names[sid]) for sid in failed]
    sim = Simulation(
        topology=topo, jobs=jobs, strategy=make_strategy("bds", seed=0),
        config=SimConfig(max_cycles=2, stop_when_complete=False),
        failures=FailureSchedule(events), pre_seeded=pre_seeded, seed=0,
    )
    sim.run()
    assert {names[sid] for sid in failed} <= set(sim.snapshot_view(2).failed_agents)
    return sim


@pytest.mark.parametrize("merge", [True, False])
@pytest.mark.parametrize("max_sources", [1, 3, 4])
def test_router_equals_oracle_with_failed_agents_at_the_word_boundary(
    max_sources, merge
):
    """Servers 63 and 64 — the last bit of the first holder word and the
    first bit of the second — hold copies and fail mid-run: the
    failed-agent mask must clear both words (a mask applied to the first
    word only, as a mutant, fails here and nowhere else)."""
    _assert_router_matches_oracle(_two_word_sim((63, 64)), max_sources, merge)


@pytest.mark.parametrize("merge", [True, False])
def test_router_equals_oracle_when_server_ids_interleave_dcs(merge):
    """Server names that do not sort DC by DC (``s00`` in east, ``s01``
    in north, ...): the possession matrix's ``dc_order`` is no identity,
    so holder columns, reach columns and server ids all differ.

    Mutants killed here and nowhere else: the usable-holder mask read
    per column number rather than per server id
    (``CycleCache.reachable`` handed ``arange`` for ``dc_order``);
    holder bits read per column number rather than per server id. Also
    killed here: class runs that ignore the destination."""
    topo = Topology()
    dcs = ("east", "north", "west", "zulu")
    for dc in dcs:
        topo.add_dc(dc)
    for i in range(12):
        topo.add_server(f"s{i:02d}", dcs[i % len(dcs)], 5 * MBps, 5 * MBps)
    for a, b in itertools.combinations(dcs, 2):
        topo.add_bidirectional_link(a, b, 40 * MBps)
    job = MulticastJob(
        job_id="mixed", src_dc="east", dst_dcs=("north", "west", "zulu"),
        total_bytes=30 * 4 * MB - 7, block_size=4 * MB,
    )
    job.bind(topo)
    sim = Simulation(
        topology=topo, jobs=[job], strategy=make_strategy("bds", seed=0),
        config=SimConfig(max_cycles=2, stop_when_complete=False),
        pre_seeded={"s05": job.blocks[::3], "s10": job.blocks[1::4]}, seed=0,
    )
    sim.run()
    assert sim.state.store.matrix.dc_order.tolist() != list(range(12))
    for max_sources in (1, 2, 3):
        _assert_router_matches_oracle(sim, max_sources, merge)


@pytest.mark.parametrize("seed", range(4))
def test_router_equals_oracle_under_selection_cap(seed):
    _assert_router_matches_oracle(_midrun(seed, 1), 2, True, cap=5)


#: The server names the hand-built groupings number their endpoints in.
_SERVERS = [f"dc0-s{i}" for i in range(4)] + ["dc1-s0", "dc1-s1", "dc2-s0"]


class _DealView:
    """Just enough view for the deal oracle: buffered bytes per (block, dst)."""

    def __init__(self, partial):
        self.partial = partial

    def received_bytes(self, block_id, dst_server):
        return self.partial.get((block_id, dst_server), 0.0)


@settings(max_examples=200, deadline=None)
@given(
    num_blocks=st.integers(1, 12),
    short_tail=st.booleans(),
    rates=st.lists(st.sampled_from([0.0, 1e-10, 1.0, 1.0, 2.5, 7.0]), min_size=1, max_size=4),
    buffered=st.lists(st.sampled_from([0.0, 0.0, 1.0, 4096.5]), min_size=12, max_size=12),
    dst=st.sampled_from(["dc1-s0", "dc1-s1", "dc2-s0"]),
)
def test_deal_equals_oracle_with_ties_and_mixed_sizes(
    num_blocks, short_tail, rates, buffered, dst
):
    """Equal rates tie budgets; int and float sizes fold differently."""
    from repro.core.routing import _Grouping
    from repro.lp.mcf import Commodity

    job = MulticastJob(
        job_id="j", src_dc="dc0", dst_dcs=("dc1",),
        total_bytes=num_blocks * 4 * MB - (12_345.5 if short_tail else 0),
        block_size=4 * MB,
    )
    sources = tuple(f"dc0-s{i}" for i in range(len(rates)))
    key = ("j", dst, sources)
    partial = {
        ((job.job_id, b.index), dst): have
        for b, have in zip(job.blocks, buffered) if have
    }
    commodity = Commodity(
        name=key,
        paths=tuple((("up", s), ("down", dst)) for s in sources),
        demand=1.0,
    )
    want = oracles.to_directives(
        _DealView(partial), [commodity], {key: list(job.blocks)},
        {(key, i): r for i, r in enumerate(rates)},
    )
    have_col = np.array([partial.get(((job.job_id, b.index), dst), 0.0) for b in job.blocks])
    names = _SERVERS
    grouping = _Grouping(
        bounds=[0, len(job.blocks)],
        records=[[0, names.index(dst), *map(names.index, sources)]],
        jobs=[job], names=names, rows=None,
        indices=np.arange(len(job.blocks)), sizes=job.block_sizes(),
        buffered=have_col if have_col.any() else None,
    )
    got = BDSRouter._to_directives(grouping, [0], [rates])
    assert got == want
    assert [d.rate_cap for d in got] == [d.rate_cap for d in want]


def _emit_against_oracle(groups):
    """``_to_directives`` over several groups, beside ``oracles.to_directives``.

    A group is ``(rows, rates, dst, half, member)``: its job-relative
    block indices in selection order (its own job, of ``max(rows) + 1``
    blocks with a short last one), one rate per source, its destination,
    which rows are half-received, and whether it is a commodity at all.
    """
    from repro.core.routing import _Grouping
    from repro.lp.mcf import Commodity

    jobs, keys, dsts, bounds, index, sizes, have = [], [], [], [0], [], [], []
    partial, commodities, group_blocks, members, member_rates, rates = (
        {}, [], {}, [], [], {}
    )
    for g, (rows, row_rates, dst, half, member) in enumerate(groups):
        job = MulticastJob(
            job_id=f"j{g}", src_dc="dc0", dst_dcs=("dc1",),
            total_bytes=(max(rows) + 1) * 4 * MB - 12_345.5, block_size=4 * MB,
        )
        sources = tuple(f"dc0-s{i}" for i in range(len(row_rates)))
        key = (job.job_id, dst, sources)
        for i, buffered in zip(rows, half):
            have.append(4096.5 if buffered else 0.0)
            if buffered:
                partial[(job.blocks[i].block_id, dst)] = 4096.5
        jobs.append(job)
        keys.append(key)
        dsts.append(dst)
        index += rows
        sizes += [job.blocks[i].size for i in rows]
        bounds.append(len(index))
        if member:
            members.append(g)
            member_rates.append(list(row_rates))
            commodities.append(Commodity(
                name=key, paths=tuple((("up", s), ("down", dst)) for s in sources),
                demand=1.0,
            ))
            group_blocks[key] = [job.blocks[i] for i in rows]
            rates.update({(key, i): r for i, r in enumerate(row_rates)})
    names = _SERVERS
    grouping = _Grouping(
        bounds=bounds,
        records=[
            [g, names.index(dst), *map(names.index, key[2])]
            for g, (key, dst) in enumerate(zip(keys, dsts))
        ],
        jobs=jobs, names=names, rows=None,
        indices=np.array(index, dtype=np.int64), sizes=np.array(sizes),
        buffered=np.array(have) if any(have) else None,
    )
    got = BDSRouter._to_directives(grouping, members, member_rates)
    want = oracles.to_directives(_DealView(partial), commodities, group_blocks, rates)
    assert got == want
    assert [d.rate_cap for d in got] == [d.rate_cap for d in want]
    return got


@settings(max_examples=150, deadline=None)
@given(data=st.data(), num_groups=st.integers(1, 5))
def test_emission_equals_oracle_across_groups(data, num_groups):
    """One output column for many groups: rotations, skipped groups,
    destinations shared between groups, half-received rows anywhere."""
    groups = []
    for _ in range(num_groups):
        n = data.draw(st.integers(1, 9))
        rows = data.draw(st.permutations(range(n + data.draw(st.integers(0, 2)))))[:n]
        groups.append((
            rows,
            data.draw(st.lists(st.sampled_from([0.0, 1e-10, 1.0, 2.5, 7.0]),
                               min_size=1, max_size=4)),
            data.draw(st.sampled_from(["dc1-s0", "dc1-s1", "dc2-s0"])),
            data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
            data.draw(st.booleans()) or num_groups == 1,
        ))
    _emit_against_oracle(groups)


@pytest.mark.parametrize("dst", ["dc1-s0", "dc1-s1", "dc2-s0"])
def test_emission_edge_cases_equal_the_oracle(dst):
    """Half-received rows on both sides of the rotation point, one-row
    groups, and multi-source groups with fewer blocks than flowing
    sources, in one call.

    Mutants this kills, each applied to a copy of ``core/routing.py``:
    the second rotated range's offset one off; the half-received sort
    dropped; the half-received sort ignoring group boundaries; one
    destination's stagger reused for every destination."""
    crc = zlib.crc32(dst.encode())
    n = next(n for n in range(4, 64) if 1 < crc % n < n - 1)
    shift = crc % n
    half = [i in (shift - 1, shift, n - 1) for i in range(n)]
    # Another destination, whose rotation of m rows differs from dst's.
    other = "dc1-s0" if dst == "dc2-s0" else "dc2-s0"
    m = next(m for m in range(2, 64) if crc % m != zlib.crc32(other.encode()) % m)
    got = _emit_against_oracle([
        ([0], [2.0], dst, [True], True),
        (list(range(n)), [1.0, 2.5], dst, half, True),
        ([3], [1.0, 0.0, 7.0], "dc1-s1", [False], True),
        ([1, 0], [1.0, 2.5, 7.0], dst, [False, True], True),
        (list(range(n)), [2.0], dst, half, False),
        (list(range(n, 0, -1)), [1.0], "dc2-s0", half[::-1], True),
        (list(range(m)), [1.0], other, [False] * m, True),
    ])
    # A one-source group sends its half-received blocks first.
    (last,) = [d for d in got if d.job_id == "j5"]
    held = {i for i, h in zip(range(n, 0, -1), half[::-1]) if h}
    assert set(last.block_indices.tolist()[: len(held)]) == held


def test_group_keys_too_wide_for_one_int64():
    """12 DCs x 6 servers with 12 picks: 73 ** 12 overflows a packed key."""
    topo = Topology.full_mesh(
        num_dcs=12, servers_per_dc=6, wan_capacity=40 * MBps, uplink=5 * MBps
    )
    job = MulticastJob(
        job_id="wide", src_dc="dc0",
        dst_dcs=tuple(f"dc{i}" for i in range(1, 12)),
        total_bytes=40 * MB - 7, block_size=4 * MB,
    )
    job.bind(topo)
    sim = Simulation(
        topo, [job], make_strategy("bds", seed=0),
        SimConfig(max_cycles=3, stop_when_complete=False), seed=0,
    )
    sim.run()
    assert 72 * 73**12 >= 2**63
    _assert_router_matches_oracle(sim, 12, True)


# -- picks per (class, residue): the period and its saturation -----------------


def _holder_sim(
    holding, sizes=None, dst_servers=2, local=1, num_blocks=1800, failed=()
):
    """One job into DC ``dst``; every block held by fixed servers.

    DC ``dc{k}`` has ``sizes[k]`` servers (default: ``holding[k]``), the
    first ``holding[k]`` of which hold every block (``dc0``, the source,
    must hold on all of them, or its striping varies the holder sets).
    ``dst`` has ``dst_servers`` servers, the first ``local`` holding every
    block. So all rows to one destination server are one class, whose
    period is ``local * prod(holding) * len(holding)`` minus what
    ``failed`` agents take away.
    """
    sizes = sizes or holding
    assert sizes[0] == holding[0]
    topo = Topology()
    dcs = [f"dc{k}" for k in range(len(holding))] + ["dst"]
    for dc, n in zip(dcs, list(sizes) + [dst_servers]):
        topo.add_dc(dc)
        for s in range(n):
            topo.add_server(f"{dc}-s{s}", dc, 5 * MBps, 5 * MBps)
    for a, b in itertools.combinations(dcs, 2):
        topo.add_bidirectional_link(a, b, 40 * MBps)
    job = MulticastJob(
        job_id="held", src_dc="dc0", dst_dcs=("dst",),
        total_bytes=num_blocks * MB - 7, block_size=MB,
    )
    job.bind(topo)
    seeded = [
        f"{dc}-s{s}" for dc, n in zip(dcs, list(holding) + [local]) for s in range(n)
    ]
    events = [FailureEvent(cycle=0, kind="agent_fail", target=s) for s in failed]
    sim = Simulation(
        topology=topo, jobs=[job], strategy=make_strategy("bds", seed=0),
        config=SimConfig(max_cycles=1, stop_when_complete=False),
        failures=FailureSchedule(events) if events else None,
        pre_seeded={server: job.blocks for server in seeded}, seed=0,
    )
    if events:
        sim.failures.advance_to(0)
    return sim


@pytest.mark.parametrize("merge", [True, False])
@pytest.mark.parametrize("max_sources", [2, 3, 4])
@pytest.mark.parametrize(
    "shape",
    [
        # P = 1 * 5 * 7 * 8 * 3 = 840 over 900 rows: residues repeat.
        dict(holding=(5, 7, 8), sizes=(5, 9, 8)),
        # An agent failure takes dc2 to 7 holders: P = 735.
        dict(holding=(5, 7, 8), sizes=(5, 9, 8), failed=("dc2-s3",)),
        # P = 840 over 20 rows per class: a period past the row count.
        dict(holding=(5, 7, 8), sizes=(5, 9, 8), dst_servers=6, local=0,
             num_blocks=120),
        # 6-8 holders next to 1-2: periods 144 and 448 over 900 rows.
        dict(holding=(6, 8, 1), sizes=(6, 9, 5)),
        dict(holding=(7, 2, 8, 1), sizes=(7, 5, 8, 6)),
    ],
)
def test_router_equals_oracle_when_residues_repeat(shape, max_sources, merge):
    """Rows of one class whose block indices agree modulo the period
    share a representative; representatives of one class and of several
    merge into one group.

    Mutants this kills, each applied to a copy of ``core/routing.py``:
    the period without its rotation term, or without the DC moduli; the
    representatives' argsort unstable, so that a run's head need not be
    its lowest row; the groups' lexsort without the lowest-row key; each
    group's lead scattered to the representative one place over; the
    rows' argsort on the lead alone, members out of selection order; the
    rotation's ``searchsorted`` on the left side."""
    _assert_router_matches_oracle(_holder_sim(**shape), max_sources, merge)


@pytest.mark.parametrize("max_sources", [3, 4])
def test_router_equals_oracle_when_the_period_overflows(max_sources):
    """16 holder DCs of prime sizes 2..53 — every server holds — and
    rotation 16: the product is past int64, so the period saturates.
    Blocks 0 and 12 of 13 share a class, and a saturated period that
    stopped short of the last index would fold one onto the other (the
    mutant capped one short of the largest index, killed here too)."""
    primes = (53, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    assert math.prod(primes) * len(primes) >= 2**63
    sim = _holder_sim(primes, dst_servers=2, local=0, num_blocks=13)
    _assert_router_matches_oracle(sim, max_sources, True)
    _assert_router_matches_oracle(sim, max_sources, False)


@pytest.mark.parametrize("bound", [1000, 2**53])
def test_periods_are_exact_products_or_saturate(bound):
    """``_periods`` against Python's unbounded ints: the exact product
    of a row's moduli and rotation, or ``bound`` (past every block index)
    wherever that product reaches it — never a rounded, wrapped or
    infinite product, and without a floating-point warning.

    Mutants this kills, each applied to a copy of ``core/routing.py``:
    the period without the rotation term; without the DC moduli;
    uncapped (the float product cast to int64 unguarded); capped one
    short of the largest index; an int64 product that wraps. The
    uncapped and wrapping ones only fail here: a wrapped or rounded
    period that still separates every index is invisible in the
    router's output."""
    from repro.core.routing import _periods

    rows = [
        ((5, 7, 8), 3),
        ((), 1),
        ((60, 4, 9, 1, 1, 7), 2),
        ((2,) * 52, 1),  # just under 2**53
        ((2,) * 52, 2),
        # 2..47: 2**59.1, odd over 2, so its nearest float is no multiple
        ((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47), 1),
        ((53, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47), 16),
        ((4,) * 600, 7),  # past the largest float
    ]
    moduli = np.ones((len(rows), 600), dtype=np.int64)
    for r, (row, _rotation) in enumerate(rows):
        moduli[r, : len(row)] = row
    rotation = np.array([rotation for _row, rotation in rows], dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        period = _periods(moduli, rotation, bound).tolist()
    for (row, rot), p in zip(rows, period):
        product = math.prod(row) * rot
        assert p == min(product, bound)
        # Indices equal modulo the period pick alike.
        assert p >= bound or p % math.lcm(*row, rot) == 0


def test_router_on_hundreds_of_dcs():
    """450 DCs of 4 servers each, the cluster of ``replay --num-dcs 450``:
    a class's period multiplies every DC's modulus, and must neither
    overflow nor raise on a product that large. Only dc0..dc3 are linked,
    which keeps the run small."""
    topo = Topology()
    dcs = [f"dc{k}" for k in range(450)]
    for dc in dcs:
        topo.add_dc(dc)
        for s in range(4):
            topo.add_server(f"{dc}-s{s}", dc, 5 * MBps, 5 * MBps)
    for a, b in itertools.combinations(dcs[:4], 2):
        topo.add_bidirectional_link(a, b, 40 * MBps)
    job = MulticastJob(
        job_id="wide", src_dc="dc0", dst_dcs=("dc1", "dc2", "dc3"),
        total_bytes=256 * MB - 7, block_size=4 * MB,
    )
    job.bind(topo)
    sim = Simulation(
        topology=topo, jobs=[job], strategy=make_strategy("bds", seed=0),
        config=SimConfig(max_cycles=2, stop_when_complete=False), seed=0,
    )
    sim.run()
    assert RarestFirstScheduler().select(sim.snapshot_view(2))
    _assert_router_matches_oracle(sim, 3, True)


# -- the simulator's one-gather validation against the scalar loop ------------


def _mutated(sim, rng, directives):
    """The strategy's directives plus every awkward shape validation sees."""
    names = sorted(sim.topology.servers)
    jobs = sim.jobs
    out = list(directives)
    for d in directives[: 1 + len(directives) // 2]:
        ids = list(d.block_ids)
        job = sim._jobs_by_id[d.job_id]
        extra = [rng.choice(job.blocks).block_id for _ in range(rng.randint(1, 4))]
        out.append(  # duplicates, blocks the source lacks / the destination holds
            TransferDirective(
                d.job_id, tuple(ids + ids[:1] + extra), d.src_server,
                d.dst_server, d.rate_cap,
            )
        )
        out.append(  # indices out of range
            TransferDirective(
                d.job_id, ((d.job_id, 10**6), (d.job_id, -1), ids[0]),
                d.src_server, d.dst_server,
            )
        )
        out.append(  # a job the simulation does not run
            TransferDirective(
                "ghost-job", (("ghost-job", 0),), d.src_server, d.dst_server
            )
        )
        out.append(  # out-of-range index in the array form
            oracles.from_indices(
                d.job_id, np.array([10**6, -3, ids[0][1]]), d.src_server,
                d.dst_server, 1.0,
            )
        )
    for _ in range(4):  # arbitrary endpoints, some of them failed
        src, dst = rng.sample(names, 2)
        job = rng.choice(jobs)
        ids = tuple(rng.choice(job.blocks).block_id for _ in range(rng.randint(1, 5)))
        out.append(TransferDirective(job.job_id, ids, src, dst))
    rng.shuffle(out)
    return out


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), cycles=st.integers(1, 3))
def test_validation_and_demands_equal_scalar_oracle(seed, cycles):
    sim = _midrun(seed, cycles)
    rng = random.Random(seed)
    view = sim.snapshot_view(cycles)
    failed = set(view.failed_agents) | set(rng.sample(sorted(sim.topology.servers), 1))
    directives = _mutated(sim, rng, sim.strategy.decide(view))

    valid, columns = sim._valid_directives(directives, failed)
    want = oracles.valid_directives(
        sim.state.store.has, sim.topology.servers, directives, failed
    )
    assert valid == want
    assert [d.block_ids for d in valid] == [d.block_ids for d in want]
    assert columns.bounds[-1] == sum(len(d.block_ids) for d in want)

    size_of = {b.block_id: b.size for job in sim.jobs for b in job.blocks}
    assert sim._flow_demands(columns) == [
        oracles.flow_remaining(size_of, oracles.partial_map(view), d) for d in want
    ]


def test_columns_follow_directives_dropped_after_validation():
    """A destination partitioned off after validation takes its rows along."""
    sim = _midrun(5, 1)
    view = sim.snapshot_view(1)
    valid, columns = sim._valid_directives(sim.strategy.decide(view), set())
    assert len(valid) >= 3
    keep = [i % 2 == 0 for i in range(len(valid))]
    kept = [d for d, k in zip(valid, keep) if k]
    _again, want = sim._valid_directives(kept, set())
    taken = columns.take(keep)
    assert taken.bounds == want.bounds
    for name in ("flat", "src", "dst", "keys", "sizes"):
        assert getattr(taken, name).tolist() == getattr(want, name).tolist()
    assert sim._flow_demands(taken) == sim._flow_demands(want)


@pytest.mark.parametrize("field", ["src_server", "dst_server"])
def test_unknown_server_raises_like_the_scalar_loop(field):
    sim = _midrun(3, 1)
    view = sim.snapshot_view(1)
    good = list(sim.strategy.decide(view))
    assert good
    d = good[0]
    ends = {"src_server": d.src_server, "dst_server": d.dst_server, field: "ghost"}
    bad = TransferDirective(d.job_id, d.block_ids, **ends)
    for directives, failed in [
        (good + [bad], set()),
        ([bad] + good, set()),
        # A failed endpoint is skipped before the other one is looked up.
        ([bad], {ends["src_server" if field == "dst_server" else "dst_server"]}),
    ]:
        outcomes = []
        for run in (
            lambda: sim._valid_directives(directives, failed)[0],
            lambda: oracles.valid_directives(
                sim.state.store.has, sim.topology.servers, directives, failed
            ),
        ):
            try:
                outcomes.append(run())
            except KeyError as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1]


# -- the directive contract ---------------------------------------------------


class TestDirectiveContract:
    IDS = (("j", 4), ("j", 0), ("j", 4), ("j", 9))

    def _twins(self, rate_cap=2.5):
        built = TransferDirective(
            job_id="j", block_ids=self.IDS, src_server="a", dst_server="b",
            rate_cap=rate_cap,
        )
        column = np.array([7, 4, 0, 4, 9, 7], dtype=np.int64)
        cut = TransferDirective.from_segment("j", column, 1, 5, "a", "b", rate_cap)
        whole = oracles.from_indices(
            "j", np.array([4, 0, 4, 9], dtype=np.int64), "a", "b", rate_cap
        )
        return built, cut, whole

    def test_twins_are_equal_hash_equal_and_expose_the_same_ids(self):
        built, cut, whole = self._twins()
        assert built == cut == whole and cut == built
        assert hash(built) == hash(cut) == hash(whole)
        assert built.block_ids == cut.block_ids == whole.block_ids == self.IDS
        assert cut.block_indices.tolist() == built.block_indices.tolist() == [4, 0, 4, 9]
        assert len({built, cut, whole}) == 1
        assert cut.block_ids is cut.block_ids  # derived once, then cached

    def test_any_differing_field_breaks_equality(self):
        built, cut, _whole = self._twins()
        assert cut != oracles.from_indices("j", np.array([4, 0, 4]), "a", "b", 2.5)
        assert cut != oracles.from_indices("k", np.array([4, 0, 4, 9]), "a", "b", 2.5)
        assert built != oracles.with_rate_cap(built, 3.0)
        assert oracles.with_rate_cap(built, 3.0) == oracles.with_rate_cap(cut, 3.0)
        assert built != "not a directive"

    def test_foreign_ids_raise(self):
        with pytest.raises(ValueError, match=r"other jobs: \[\('k', 1\)\]"):
            TransferDirective("j", (("j", 0), ("k", 1)), "a", "b")
        assert isinstance(self._twins()[0].block_indices, np.ndarray)

    @pytest.mark.parametrize(
        "build",
        [
            lambda **kw: TransferDirective(job_id="j", block_ids=kw.pop("ids", (("j", 0),)), **kw),
            lambda **kw: oracles.from_indices(
                "j", np.array([i for _j, i in kw.pop("ids", (("j", 0),))], dtype=np.int64), **kw
            ),
        ],
    )
    def test_validation(self, build):
        with pytest.raises(ValueError, match="at least one block"):
            build(ids=(), src_server="a", dst_server="b")
        with pytest.raises(ValueError, match="endpoints must differ"):
            build(src_server="a", dst_server="a")
        with pytest.raises(ValueError, match="rate_cap"):
            build(src_server="a", dst_server="b", rate_cap=-1.0)
        assert build(src_server="a", dst_server="b", rate_cap=0.0).rate_cap == 0.0

    def test_frozen(self):
        built, cut, _whole = self._twins()
        for d in (built, cut):
            with pytest.raises(FrozenInstanceError):
                d.rate_cap = 1.0
            with pytest.raises(FrozenInstanceError):
                del d.job_id


# -- sharded runs against the parent commit ------------------------------------

#: ``SimResult.fingerprint()`` of :func:`_shard_scenario` at the commit
#: before directives went columnar (shard mirrors share the router).
PARENT_SHARD_FINGERPRINTS = {
    2: "06ed95d105273976464a4104010579c1153a40068155f6301888c56e260e7d4b",
    4: "103bb1c32983155448554bf05adb57d936e19dfb8d33d25a33a8ecda741f11bc",
}


def _shard_scenario():
    topo = Topology.full_mesh(
        num_dcs=5, servers_per_dc=4, wan_capacity=30 * MBps, uplink=6 * MBps
    )
    jobs = []
    for j in range(6):
        src = f"dc{j % 5}"
        job = MulticastJob(
            job_id=f"job{j}",
            src_dc=src,
            dst_dcs=tuple(f"dc{i}" for i in range(5) if f"dc{i}" != src),
            total_bytes=46 * MB + 4321,
            block_size=4 * MB,
        )
        job.bind(topo)
        jobs.append(job)
    return topo, jobs


@pytest.mark.parametrize("mode", ["inprocess"])  # the one way shards execute
@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_fingerprints_equal_the_parent_commits(shards, mode):
    topo, jobs = _shard_scenario()
    controller = BDSController(BDSConfig(shards=shards, shard_mode=mode))
    result = Simulation(
        topology=topo, jobs=jobs, strategy=controller, config=SimConfig(), seed=90
    ).run()
    assert result.fingerprint() == PARENT_SHARD_FINGERPRINTS[shards]
