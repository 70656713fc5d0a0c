"""One possession truth: the bit-matrix overlay against the proxy it replaced.

§5.1 feeds the controller's algorithm a *speculated* delivery status. It
used to be a ``has``/``holders`` proxy in front of the store, decided by
a scalar scheduler and router of its own; it is now a copy of the
possession arrays with the speculated bits set
(:class:`~repro.overlay.store.PossessionOverlay`), decided by the one
scheduler and router there are. ``tests/oracles.py`` keeps the proxy
(``SpeculatedStoreOracle``) and the per-candidate loops; everything here
is equality with those, plus the guard the design rests on, shown to be
load-bearing by recompiling the guarded function without it: a
speculated copy may never arrive, so a gather over an overlay must not
compact candidate rows away (``RarestFirstScheduler.select``). Sharded
or not, a speculating decide writes nothing to the store.
"""

from __future__ import annotations

import copy
import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.runner import make_strategy
from repro.core.decisions import SelectionBatch
from repro.core.routing import BDSRouter
from repro.core.scheduling import RarestFirstScheduler
from repro.core import controller as controller_module
from repro.core.speculation import speculate
from repro.net.directive import DirectiveBatch, TransferDirective
from repro.net.view import ClusterView
from repro.overlay.blocks import Block
from repro.overlay.store import PossessionIndex, PossessionOverlay, set_bits
from repro.utils.units import MB

from tests import oracles
from tests.test_columnar_handoff import _midrun
from tests.test_speculation import contended

# -- the store: overlay ≡ proxy, base untouched -------------------------------


def frozen(index: PossessionIndex):
    """Everything an overlay must leave as it found it, byte for byte."""
    matrix = index.matrix
    return (
        matrix.holder_words.tobytes(), matrix.dup.tobytes(),
        list(index.deliveries),
        dict(matrix.spans), matrix.num_blocks,
    )


def assert_counts_are_popcounts(store, among):
    """``dup`` counts the holder rows; the scheduler's relay test (a
    holder word masked by ``dc_mask``) is a non-zero per-DC popcount of
    them. Every other possession query reads those rows too: ``has`` and
    ``test_many`` answer each (server, block) pair, ``test_transfers``
    each (source, destination, block) triple, ``held_among`` counts
    the servers ``among`` in each row, and ``any_holder_words`` ORs the
    rows of each run of blocks."""
    matrix = store.matrix
    gids = np.arange(matrix.num_blocks)
    held = np.zeros((matrix.num_servers, gids.size), dtype=bool)
    for gid in gids:
        held[matrix.holder_ids(gid), gid] = True
    names = matrix.server_names
    has = [[store.has(s, b) for b in matrix.block_ids(gids)] for s in names]
    assert (np.array(has, dtype=bool).reshape(held.shape) == held).all()
    sids = np.arange(matrix.num_servers)
    assert (matrix.test_many(sids[:, None], gids) == held).all()
    assert (
        matrix.test_transfers(sids[:, None, None], sids[None, :, None], gids)
        == held[:, None, :] & ~held[None, :, :]
    ).all()
    assert (matrix.held_among(gids, among) == held[among].sum(axis=0)).all()
    assert (matrix.dup[gids] == held.sum(axis=0)).all()
    for dc in range(len(matrix.dc_names)):
        relay_held = (matrix.holder_words[gids] & matrix.dc_mask[dc]).any(axis=1)
        assert (relay_held == held[matrix.server_dc_ids == dc].any(axis=0)).all()
    # Runs of blocks over more rows than one chunk of the segmented OR.
    rng = np.random.default_rng(gids.size)
    picks = rng.integers(gids.size, size=20_000 if gids.size else 0)
    bounds = np.unique(np.r_[0, rng.integers(1, 20_000, 40), 20_000])
    bounds = bounds if gids.size else np.zeros(2, dtype=np.int64)
    words = matrix.any_holder_words(picks, bounds.tolist())
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        holders = np.flatnonzero(held[:, picks[lo:hi]].any(axis=1))
        assert set_bits(words[k]).tolist() == holders.tolist()


@st.composite
def possession(draw):
    """An index after a generated seed/deliver sequence, and a phantom set."""
    num_dcs = draw(st.integers(1, 4))
    # > 64 servers: a second holder word; > 64 blocks: a second bit word.
    per_dc = draw(st.sampled_from([1, 2, 3, 23]))
    servers = [f"dc{d}-s{i}" for d in range(num_dcs) for i in range(per_dc)]
    jobs = (("a", draw(st.sampled_from([1, 5, 64, 65, 130]))), ("b", 3))
    blocks = [Block(job_id, i, 1.0) for job_id, n in jobs for i in range(n)]
    index = PossessionIndex({s: s.split("-")[0] for s in servers})
    for job_id, n in jobs:
        index.matrix.intern_job(job_id, n)
    # A subset drawn server by server: past 64 servers, both words.
    n = len(servers)
    among = np.flatnonzero(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    pair = st.tuples(st.sampled_from(servers), st.sampled_from(blocks))
    for server, block in draw(st.lists(pair, min_size=1, max_size=30)):
        index.seed(server, [block])
    assert_counts_are_popcounts(index, among)  # after the seeds (set_many)
    events = [
        (block, servers[0], dst, float(when), "dc0")
        for when, (dst, block) in enumerate(draw(st.lists(pair, max_size=40)))
    ]
    if draw(st.booleans()):
        index.record_deliveries(*oracles.delivery_columns(index.matrix, events))
    else:
        for event in events:
            index.record_delivery(*event)
    # Phantoms: held already, new, repeated.
    phantom = st.tuples(st.sampled_from(servers), st.sampled_from(blocks))
    return index, servers, blocks, draw(st.lists(phantom, max_size=25)), among


@settings(max_examples=150, deadline=None)
@given(possession())
def test_overlay_answers_like_the_proxy_and_leaves_the_base_alone(drawn):
    index, servers, blocks, phantoms, among = drawn
    matrix = index.matrix
    before = frozen(index)
    sids = np.array([matrix.server_ids[s] for s, _b in phantoms], dtype=np.int64)
    gids = np.array([matrix.gid_of(b.block_id) for _s, b in phantoms], dtype=np.int64)
    overlay = PossessionOverlay(index, sids, gids)
    proxy = oracles.SpeculatedStoreOracle(
        index, [(b.block_id, s) for s, b in phantoms]
    )

    ids = [b.block_id for b in blocks] + [("never", 0)]
    for bid in ids:
        assert overlay.holders(bid) == proxy.holders(bid)
        for server in servers + ["no-such-server"]:
            assert overlay.has(server, bid) == proxy.has(server, bid)
        for dc in matrix.dc_names + ["no-such-dc"]:
            assert (oracles.dc_copy_count(overlay, dc, bid) > 0) == (
                oracles.dc_has_block(proxy, dc, bid)
            )
    for server in servers + ["no-such-server"]:
        assert oracles.blocks_on(overlay, server) == proxy.blocks_on(server)
        assert overlay.dc_of(servers[0]) == index.dc_of(servers[0])
    assert overlay.matrix.test_many(sids, gids).all()
    assert_counts_are_popcounts(overlay, among)
    assert_counts_are_popcounts(index, among)

    assert frozen(index) == before
    assert overlay.matrix.spans is matrix.spans  # same id space
    for mutator in ("seed", "record_delivery", "record_deliveries"):
        assert not hasattr(overlay, mutator)
    assert not hasattr(overlay, "deliveries")


# -- the view: accessors ≡ the full scans --------------------------------------


def proxied(view, sids, gids) -> ClusterView:
    """``view`` reading possession through the proxy the overlay replaced."""
    matrix = view.store.matrix
    twin = copy.copy(view)
    twin.store = oracles.SpeculatedStoreOracle(
        view.store,
        [
            (block_id, matrix.server_names[sid])
            for sid, block_id in zip(sids.tolist(), matrix.block_ids(gids))
        ],
    )
    return twin


def speculating(seed, cycles, horizon=3.0, **shape):
    """A simulation stopped mid-run, the view of its next cycle, and what
    the speculator makes of the directives the controller would send —
    what the object-reading speculator it replaced makes of them too."""
    sim = _midrun(seed, cycles, **shape)
    view = sim.snapshot_view(max(cycles, 1))
    directives = make_strategy("bds", seed=seed).decide(view)
    assert isinstance(directives, DirectiveBatch)
    sids, gids = speculate(view, directives, horizon)
    want = oracles.speculate(view, list(directives), horizon)
    assert np.array_equal(sids, want[0]) and np.array_equal(gids, want[1])
    return sim, view, sids, gids


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cycles=st.integers(1, 3),
    horizon=st.sampled_from([0.3, 1.5, 3.0]),
    line=st.booleans(),
)
@example(seed=140, cycles=1, horizon=0.3, line=False)  # every copy already held
def test_the_columnar_speculator_is_the_object_loop(seed, cycles, horizon, line):
    """On the directives the controller sent last cycle, and on them
    behind a row of each kind the speculator skips — uncapped, capped at
    zero, an endpoint outside the matrix, a job the view no longer
    lists, indices outside the job, a copy already held, a phantom
    source — given a rate that would land every block."""
    sim = _midrun(seed, cycles, line=line)
    view = sim.snapshot_view(cycles)
    sent = sim.strategy.decisions[-1].directives
    assert isinstance(sent, DirectiveBatch)
    matrix = view.store.matrix
    # The rarest block of the listed jobs: its column, job and index.
    spans = [matrix.spans[job.job_id] for job in view.jobs]
    gid = min(
        (int(matrix.dup[g]), g) for base, n in spans for g in range(base, base + n)
    )[1]
    (job_id, index), = matrix.block_ids(np.array([gid]))
    count = matrix.spans[job_id][1]
    holder = matrix.server_names[int(matrix.holder_ids(gid)[0])]
    lacking = [
        name for sid, name in enumerate(matrix.server_names)
        if not matrix.test_many(sid, gid)
    ]
    # Pre-seeded copies can put every listed block on every server: then
    # each row below is a copy already held, and nothing lands.
    others = [name for name in matrix.server_names if name != holder]
    dst = lacking[0] if lacking else others[0]

    def row(src, dst, cap=1e12, indices=(index,), job_id=job_id):
        return TransferDirective(job_id, [(job_id, i) for i in indices], src, dst, cap)

    skipped = [
        row(holder, dst, cap=None),
        row(holder, dst, cap=0.0),
        row(holder, "nowhere"),
        row(holder, dst, job_id="gone"),
        row(holder, dst, indices=(count, -1)),
        row(dst, holder),  # already held
        *[row(src, dst) for src in lacking[1:2]],  # phantom source
    ]
    lands = row(holder, dst)
    for previous in (sent, [*skipped, *sent], [*skipped, lands]):
        got = speculate(view, previous, horizon)
        want = oracles.speculate(view, list(previous), horizon)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert not len(speculate(view, skipped, horizon)[1])
    sids, gids = speculate(view, [*skipped, lands], horizon)
    landed = [matrix.server_ids[dst]] if lacking else []
    assert sids.tolist() == landed and gids.tolist() == [gid] * len(landed)


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
            assert oracles.duplicate_count(
                view.store, bid
            ) == oracles.duplicate_count(reference.store, bid)
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
        controller_available=True, partial_bytes=view.partial_bytes,
        failed_links=view.failed_links,
    )
    assert bare._candidates is None
    assert_accessors_are_the_scans(bare, view)
    assert bare.candidates is not view.candidates

    overlay = view.replace(store=PossessionOverlay(view.store, sids, gids))
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
    before = frozen(sim.state.store)
    alive = {
        id(group): group.alive.copy()
        for groups in view.candidates.groups_by_job.values()
        for group in groups
    }
    overlay = view.replace(store=PossessionOverlay(view.store, sids, gids))
    reference = proxied(view, sids, gids)

    scheduler = RarestFirstScheduler(max_blocks_per_cycle=cap)
    selections = scheduler.select(overlay)
    assert isinstance(selections, SelectionBatch)
    want = oracles.select_rarest_first(reference, scheduler)
    assert selections == want

    router = BDSRouter(max_sources_per_group=max_sources, merge_blocks=merge)
    if want:  # (nothing selected: route() answers before grouping)
        grouping = router._group_columns(overlay, selections)
        groups = oracles.merge_selections(reference, want, max_sources, merge)
        assert [grouping.key(g) for g in range(len(grouping.records))] == list(groups)
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
    assert frozen(sim.state.store) == before
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
        before = frozen(sim.state.store)
        had = len(controller._previous_directives)
        directives = decide(view)
        assert frozen(sim.state.store) == before
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


def test_rows_compacted_on_a_phantom_copy_are_never_scheduled_again(monkeypatch):
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
        expected, late = [], []

        def spy(view, previous, horizon):
            for sids, gids in expected[-1:]:  # last cycle's: did they land?
                late.append(int((~view.store.matrix.test_many(sids, gids)).sum()))
            expected.append(speculate(view, previous, horizon))
            return expected[-1]

        monkeypatch.setattr(controller_module, "speculate", spy)
        return sim.run(), sum(late)

    plain, late = run()
    assert plain.all_complete and plain.cycles_run < 30 and late > 0
    same, _late = run(mutant(RarestFirstScheduler.select))
    assert same.fingerprint() == plain.fingerprint()
    broken, _late = run(compacting)
    assert not broken.all_complete and broken.cycles_run == 60
