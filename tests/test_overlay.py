"""One possession truth: the bit-matrix overlay against the proxy it replaced.

§5.1 feeds the controller's algorithm a *speculated* delivery status. It
used to be a ``has``/``holders`` proxy in front of the store, decided by
a scalar scheduler and router of its own; it is now a copy of the
possession arrays with the speculated bits set
(:class:`~repro.overlay.store.PossessionOverlay`), decided by the one
scheduler and router there are. ``tests/oracles.py`` keeps the proxy
(``SpeculatedStoreOracle``) and the per-candidate loops; everything here
is equality with those, plus the two guards the design rests on, each
shown to be load-bearing by recompiling the guarded function without it:

* a speculated copy may never arrive, so a gather over an overlay must
  not compact candidate rows away (``RarestFirstScheduler.select``);
* a shard mirror replays the store's delivery log and nothing else: the
  speculated pairs in its payload are read by one decide, never applied
  (``ShardMirror.apply``).
"""

from __future__ import annotations

import copy
import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.runner import make_strategy
from repro.core import shardexec
from repro.core.decisions import SelectionBatch
from repro.core.routing import BDSRouter
from repro.core.scheduling import RarestFirstScheduler
from repro.core.speculation import DeliverySpeculator, SpeculatedView
from repro.net.simulator import ClusterView
from repro.overlay.blocks import Block
from repro.overlay.store import PossessionIndex, PossessionOverlay
from repro.utils.units import MB

from tests import oracles
from tests.test_columnar_handoff import _midrun
from tests.test_speculation import contended

# -- the store: overlay ≡ proxy, base untouched -------------------------------


def frozen(index: PossessionIndex):
    """Everything an overlay must leave as it found it, byte for byte."""
    matrix = index.matrix
    return (
        matrix.bits.tobytes(), matrix.holder_words.tobytes(),
        matrix.dup.tobytes(), matrix.dc_counts.tobytes(),
        index.epoch, list(index.deliveries),
        dict(matrix.block_gids), list(matrix.block_names),
    )


def assert_counts_are_popcounts(matrix):
    """``dup``/``dc_counts``/``holder_words`` are the bit columns, counted."""
    for gid in range(matrix.num_blocks):
        holders = matrix.holder_ids(gid)
        assert matrix.dup[gid] == len(holders)
        for dc in range(len(matrix.dc_names)):
            assert matrix.dc_counts[dc, gid] == np.count_nonzero(
                matrix.server_dc_ids[holders] == dc
            )
        assert matrix.any_holder_ids(np.array([gid])).tolist() == holders.tolist()


@st.composite
def possession(draw):
    """An index after a generated seed/deliver sequence, and a phantom set."""
    num_dcs = draw(st.integers(1, 4))
    # > 64 servers: a second holder word; > 64 blocks: a second bit word.
    per_dc = draw(st.sampled_from([1, 2, 3, 23]))
    servers = [f"dc{d}-s{i}" for d in range(num_dcs) for i in range(per_dc)]
    blocks = [
        Block(job_id, i, 1.0)
        for job_id, n in (("a", draw(st.sampled_from([1, 5, 64, 65, 130]))), ("b", 3))
        for i in range(n)
    ]
    index = PossessionIndex({s: s.split("-")[0] for s in servers})
    pair = st.tuples(st.sampled_from(servers), st.sampled_from(blocks))
    for server, block in draw(st.lists(pair, min_size=1, max_size=30)):
        index.seed(server, [block])
    events = [
        (block, servers[0], dst, float(when), "dc0")
        for when, (dst, block) in enumerate(draw(st.lists(pair, max_size=40)))
    ]
    if draw(st.booleans()):
        index.record_deliveries(events)
    else:
        for event in events:
            index.record_delivery(*event)
    # Phantoms: held already, new, repeated — of interned blocks only.
    known = [b for b in blocks if b.block_id in index.matrix.block_gids]
    phantom = st.tuples(st.sampled_from(servers), st.sampled_from(known))
    return index, servers, blocks, draw(st.lists(phantom, max_size=25))


@settings(max_examples=150, deadline=None)
@given(possession())
def test_overlay_answers_like_the_proxy_and_leaves_the_base_alone(drawn):
    index, servers, blocks, phantoms = drawn
    matrix = index.matrix
    before = frozen(index)
    sids = np.array([matrix.server_ids[s] for s, _b in phantoms], dtype=np.int64)
    gids = np.array([matrix.block_gids[b.block_id] for _s, b in phantoms], dtype=np.int64)
    overlay = PossessionOverlay(index, sids, gids)
    proxy = oracles.SpeculatedStoreOracle(
        index, [(b.block_id, s) for s, b in phantoms]
    )

    ids = [b.block_id for b in blocks] + [("never", 0)]
    for bid in ids:
        assert overlay.holders(bid) == proxy.holders(bid)
        assert overlay.duplicate_count(bid) == proxy.duplicate_count(bid)
        for server in servers + ["no-such-server"]:
            assert overlay.has(server, bid) == proxy.has(server, bid)
        for dc in matrix.dc_names + ["no-such-dc"]:
            assert overlay.dc_has_block(dc, bid) == proxy.dc_has_block(dc, bid)
    for server in servers + ["no-such-server"]:
        assert overlay.blocks_on(server) == proxy.blocks_on(server)
        assert overlay.dc_of(servers[0]) == index.dc_of(servers[0])
    assert overlay.matrix.test_many(sids, gids).all()
    assert_counts_are_popcounts(overlay.matrix)
    assert_counts_are_popcounts(matrix)

    assert frozen(index) == before
    assert overlay.matrix.block_gids is matrix.block_gids  # same id space
    for mutator in ("seed", "record_delivery", "record_deliveries", "drop_server"):
        assert not hasattr(overlay, mutator)
    assert not hasattr(overlay, "epoch") and not hasattr(overlay, "deliveries")


# -- the view: accessors ≡ the full scans --------------------------------------


def proxied(view, sids, gids) -> ClusterView:
    """``view`` reading possession through the proxy the overlay replaced."""
    matrix = view.store.matrix
    twin = copy.copy(view)
    twin.store = oracles.SpeculatedStoreOracle(
        view.store,
        [
            (matrix.block_names[gid], matrix.server_names[sid])
            for sid, gid in zip(sids.tolist(), gids.tolist())
        ],
    )
    return twin


def speculating(seed, cycles, horizon=3.0, **shape):
    """A simulation stopped mid-run, the view of its next cycle, and what
    a speculator makes of the directives the controller would send."""
    sim = _midrun(seed, cycles, **shape)
    view = sim.snapshot_view(max(cycles, 1))
    directives = make_strategy("bds", seed=seed).decide(view)
    sids, gids = DeliverySpeculator(horizon).speculate(view, directives)
    return sim, view, sids, gids


def assert_accessors_are_the_scans(view, reference):
    for job in view.jobs:
        assert oracles.pending_deliveries(view, job) == oracles.pending_deliveries(
            reference, job
        )
        assert oracles.pending_relay_placements(view, job) == (
            oracles.pending_relay_placements(reference, job)
        )
        for block in job.blocks:
            bid = block.block_id
            assert view.eligible_sources(bid) == sorted(
                oracles.eligible_sources(reference, bid)
            )
            assert view.store.duplicate_count(
                bid
            ) == reference.store.duplicate_count(bid)
    assert view.eligible_sources(("never", 0)) == []


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), cycles=st.integers(0, 3), wide=st.booleans())
def test_view_accessors_are_the_full_scans(seed, cycles, wide):
    """The strategy-author API, on the simulator's view, on a hand-built
    one (no table, no cache: it builds its own), and on an overlay."""
    sim, view, sids, gids = speculating(seed, cycles, wide=wide)
    assert_accessors_are_the_scans(view, view)

    bare = ClusterView(
        topology=view.topology, store=view.store, jobs=view.jobs,
        cycle=view.cycle, time=view.time, cycle_seconds=view.cycle_seconds,
        bulk_capacities=view.bulk_capacities, failed_agents=view.failed_agents,
        controller_available=True, partial_bytes=view._partial,
        failed_links=view.failed_links,
    )
    assert bare._candidates is None
    assert_accessors_are_the_scans(bare, view)
    assert bare.candidates is not view.candidates

    overlay = SpeculatedView(view, sids, gids)
    assert_accessors_are_the_scans(overlay, proxied(view, sids, gids))


# -- the decide: kernels over an overlay ≡ loops over the proxy -----------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cycles=st.integers(1, 3),
    horizon=st.sampled_from([0.3, 1.5, 3.0]),
    cap=st.sampled_from([0, 5]),
    max_sources=st.sampled_from([1, 3]),
    merge=st.booleans(),
    line=st.booleans(),
)
def test_select_and_route_on_an_overlay_are_the_loops_over_the_proxy(
    seed, cycles, horizon, cap, max_sources, merge, line
):
    sim, view, sids, gids = speculating(seed, cycles, horizon, line=line)
    before = frozen(sim.store)
    alive = {
        id(group): group.alive.copy()
        for groups in view.candidates.groups_by_job.values()
        for group in groups
    }
    overlay = SpeculatedView(view, sids, gids)
    reference = proxied(view, sids, gids)

    scheduler = RarestFirstScheduler(max_blocks_per_cycle=cap)
    selections = scheduler.select(overlay)
    assert isinstance(selections, SelectionBatch)
    want = oracles.select_rarest_first(reference, scheduler)
    assert selections == want

    router = BDSRouter(max_sources_per_group=max_sources, merge_blocks=merge)
    if want:  # (nothing selected: route() answers before grouping)
        grouping = router._group_columns(overlay, selections, overlay._cache)
        groups = oracles.merge_selections(reference, want, max_sources, merge)
        assert grouping.keys == list(groups)
        assert [
            grouping.indices[lo:hi].tolist()
            for lo, hi in zip(grouping.bounds, grouping.bounds[1:])
        ] == [[e.block.index for e in entries] for entries in groups.values()]
    directives, diagnostics = router.route(overlay, selections)
    commodities, want_directives = oracles.route(
        reference, want,
        BDSRouter(max_sources_per_group=max_sources, merge_blocks=merge),
    )
    assert directives == want_directives
    assert [d.rate_cap for d in directives] == [d.rate_cap for d in want_directives]
    assert diagnostics.num_commodities == len(commodities)

    # Nothing real moved: not the store, not the candidate rows.
    assert frozen(sim.store) == before
    for groups in view.candidates.groups_by_job.values():
        for group in groups:
            assert np.array_equal(group.alive, alive[id(group)])


@pytest.mark.parametrize("shards", [1, 2])
def test_a_speculating_decide_leaves_the_store_byte_identical(shards):
    """Through the controller, single and sharded: every speculating
    decide of a run, the arrays before against the arrays after."""
    sim = contended(3.0, shards)
    controller = sim.strategy
    decide = controller.decide
    speculating_decides = []

    def spy(view):
        before = frozen(sim.store)
        had = len(controller._previous_directives)
        directives = decide(view)
        assert frozen(sim.store) == before
        speculating_decides.append(bool(had))
        return directives

    controller.decide = spy
    assert sim.run().all_complete
    assert sum(speculating_decides) > 5


# -- mutants --------------------------------------------------------------------


def mutant(function, *edits):
    """``function`` recompiled with each ``(old, new)`` edit applied once."""
    source = textwrap.dedent(inspect.getsource(function))
    for old, new in edits:
        assert source.count(old) == 1, f"{function.__name__} no longer contains {old!r}"
        source = source.replace(old, new)
    namespace = dict(vars(inspect.getmodule(function)))
    exec(compile(source, f"<mutant {function.__name__}>", "exec"), namespace)
    return namespace[function.__name__]


def test_rows_compacted_on_a_phantom_copy_are_never_scheduled_again():
    """Mutant (a): let an overlay's gather compact ``alive``. Some
    speculated copies arrive a cycle late (the simulator clips a flow the
    speculator took at its assigned rate); their rows, compacted away on
    the phantom copy, would never be selected again."""
    compacting = mutant(
        RarestFirstScheduler.select,
        ("compact = matrix is table.matrix", "compact = True"),
    )

    def run(select=None):
        sim = contended(3.0, size=240 * MB)
        scheduler = sim.strategy.scheduler
        if select is not None:
            scheduler.select = select.__get__(scheduler)
        speculate = sim.strategy._speculator.speculate
        expected, late = [], []

        def spy(view, previous):
            for sids, gids in expected[-1:]:  # last cycle's: did they land?
                late.append(int((~view.store.matrix.test_many(sids, gids)).sum()))
            expected.append(speculate(view, previous))
            return expected[-1]

        sim.strategy._speculator.speculate = spy
        return sim.run(), sum(late)

    plain, late = run()
    assert plain.all_complete and plain.cycles_run < 30 and late > 0
    same, _late = run(mutant(RarestFirstScheduler.select))
    assert same.fingerprint() == plain.fingerprint()
    broken, _late = run(compacting)
    assert not broken.all_complete and broken.cycles_run == 60


def test_a_mirror_that_applies_speculated_pairs_leaves_the_store_behind():
    """Mutant (b): let ``ShardMirror.apply`` ingest the payload's
    speculated pairs with the delivery replay."""
    ingesting = mutant(
        shardexec.ShardMirror.apply,
        ("if payload.deliveries:", "if payload.deliveries or payload.speculated:"),
        (
            "in payload.deliveries:",
            "in list(payload.deliveries) + list(payload.speculated):",
        ),
    )

    def mirrors_hold_what_the_store_holds(apply):
        sim = contended(3.0, shards=2)
        controller = sim.strategy
        decide_sharded = controller._decide_sharded
        checked = []

        def spy(view, fallback, speculated):
            directives = decide_sharded(view, fallback, speculated)
            for shard, mirror in enumerate(controller._shard_runner._mirrors):
                if apply is not None:
                    mirror.apply = apply.__get__(mirror)
                for job in view.jobs:  # (a finished job's shard is fed no more)
                    if controller._shard_of_id(job.job_id) == shard:
                        for block in job.blocks:
                            bid = block.block_id
                            assert mirror.store.holders(bid) == sim.store.holders(bid)
                            checked.append(bid)
            return directives

        controller._decide_sharded = spy
        assert sim.run().all_complete and checked

    mirrors_hold_what_the_store_holds(None)
    mirrors_hold_what_the_store_holds(mutant(shardexec.ShardMirror.apply))
    with pytest.raises(AssertionError):
        mirrors_hold_what_the_store_holds(ingesting)
