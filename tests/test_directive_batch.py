"""The directive batch from the router to the store, against its oracles.

A decide's directives stay columns from ``BDSRouter.route`` to the data
plane (:class:`repro.net.directive.DirectiveBatch`): the sharded
controller concatenates and reconciles them in place, and the simulator
validates and clips them over the cycle cache's path-id rows with one
kernel per regime (:class:`repro.net.flow.FlowRows`). Everything here is
equality with what the objects did, kept in ``tests/oracles.py``:

* the materialized batch is the per-selection emission, object for
  object — single controller, §5.3 partition fallback, shard
  concatenation;
* the clip is bit-equal to the dict loop it replaced;
* the batch reconcile is the ``Flow``-per-directive one, cap for cap;
* per-link bulk usage and delay inflation (Fig. 10's path, which no
  ledger workload records) are pinned to the object-based data plane.

Mutants of the new code are built before ``pytest.raises`` (a stale
edit text fails the build, never "passes"); each is listed in the
docstring of the test that kills it.
"""

from __future__ import annotations

import hashlib
import inspect
import random
import textwrap

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import BDSController
from repro.core.config import BDSConfig
from repro.core.routing import BDSRouter
from repro.core.shardexec import LocalShardRunner
from repro.core.scheduling import RarestFirstScheduler
from repro.net.background import BackgroundTraffic
from repro.net.directive import DirectiveBatch, TransferDirective
from repro.net.failures import FailureEvent, FailureSchedule
from repro.net.flow import FlowRows, clip_rates_to_capacity
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import MB, MBps
from tests import oracles
from tests.oracles import Flow, clip_by_id
from tests.test_columnar_handoff import _midrun

# -- helpers --------------------------------------------------------------------


def _fields(directives):
    """Every field of every directive, block lists as index lists."""
    return [
        (d.job_id, d.block_indices.tolist(), d.src_server, d.dst_server, d.rate_cap)
        for d in directives
    ]


def _assert_same(got, want):
    """``got`` (a batch) materializes to ``want``, field for field; a
    batch that cannot materialize is a mismatch too."""
    try:
        objects = list(got)
    except (ValueError, IndexError) as error:
        raise AssertionError(f"the batch does not materialize: {error}") from None
    assert _fields(objects) == _fields(want)
    assert got == want


def _assert_columns(batch, matrix):
    """A batch's own invariants: one row range per directive, tiling its
    column, endpoints in ``matrix``'s server ids."""
    assert isinstance(batch, DirectiveBatch)
    assert batch.names is matrix.server_names
    assert batch.bounds[0] == 0 and batch.bounds[-1] == len(batch.column)
    assert all(lo < hi for lo, hi in zip(batch.bounds, batch.bounds[1:]))
    assert len(batch.bounds) == len(batch) + 1
    assert [matrix.server_names[s] for s in batch.src] == [d.src_server for d in batch]
    assert [matrix.server_names[t] for t in batch.dst] == [d.dst_server for d in batch]


# -- emission: the batch is the per-selection emission ---------------------------


def _assert_emission(seed, cycles, max_sources, merge, line):
    sim = _midrun(seed, cycles, line=line)
    view = sim.snapshot_view(cycles)
    selections = RarestFirstScheduler().select(view)
    router = BDSRouter(max_sources_per_group=max_sources, merge_blocks=merge)
    batch, _diagnostics = router.route(view, selections)
    _commodities, want = oracles.route(
        view, selections,
        BDSRouter(max_sources_per_group=max_sources, merge_blocks=merge),
    )
    _assert_columns(batch, view.store.matrix)
    _assert_same(batch, want)
    return batch


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cycles=st.integers(0, 3),
    max_sources=st.sampled_from([1, 2, 3]),
    merge=st.booleans(),
    line=st.booleans(),
)
@example(seed=7, cycles=2, max_sources=3, merge=True, line=False)
def test_route_emits_the_per_selection_directives(
    seed, cycles, max_sources, merge, line
):
    _assert_emission(seed, cycles, max_sources, merge, line)


def test_a_multi_source_deal_is_in_the_batch():
    """Some group deals its blocks across several flowing sources: its
    directives share a destination and tile one range of the column."""
    dealt = 0
    for seed in range(12):
        batch = _assert_emission(seed, 2, 3, True, False)
        pairs = list(zip(batch.job_ids, batch.dst))
        dealt += sum(a == b for a, b in zip(pairs, pairs[1:]))
    assert dealt


def _severed_view():
    """A mid-run view whose dc3 is cut off from the controller's dc0."""
    topo = Topology.full_mesh(
        num_dcs=4, servers_per_dc=2, wan_capacity=100 * MBps, uplink=2 * MBps
    )
    job = MulticastJob(
        job_id="j", src_dc="dc0", dst_dcs=("dc1", "dc2", "dc3"),
        total_bytes=60 * MB, block_size=4 * MB,
    )
    job.bind(topo)
    links = [(o, "dc3") for o in ("dc0", "dc1", "dc2")]
    links += [(b, a) for a, b in links]
    events = [FailureEvent(cycle=2, kind="link_fail", target=link) for link in links]
    sim = Simulation(
        topo, [job], BDSController(seed=0),
        SimConfig(max_cycles=2, stop_when_complete=False),
        failures=FailureSchedule(events), seed=0,
    )
    sim.run()
    sim.failures.advance_to(2)
    view = sim.snapshot_view(2)
    assert view.failed_links
    return view


def test_partition_fallback_is_concatenated_after_the_controllers_batch():
    """§5.3: the controller's batch, then the fallback's directives into
    the severed DC — the parent's ``batch + fallback`` list."""
    view = _severed_view()
    controller = BDSController(seed=0, controller_dc="dc0")
    twin = BDSController(seed=0, controller_dc="dc0")
    got = controller.decide(view)

    severed = {s for s in view.topology.servers if s.startswith("dc3")}
    fallback = [
        d for d in twin.fallback.decide(view) if d.dst_server in severed
    ]
    inner = view.replace(failed_agents=view.failed_agents | severed)
    _commodities, routed = oracles.route(
        inner, twin.scheduler.select(inner), twin.router
    )
    assert fallback and routed
    _assert_columns(got, view.store.matrix)
    _assert_same(got, routed + fallback)
    assert _fields(controller.decisions[-1].directives) == _fields(routed)


def _check_reconciles(monkeypatch):
    """Check every ``_reconcile_wan`` call as it returns: the batch it
    was handed is the shards' directives in shard order, and what it
    returns is the object-based reconcile's. Returns the per-call
    (concatenated parts, clips) it saw."""
    seen = []
    decided = []
    decide = LocalShardRunner.decide
    reconcile = BDSController._reconcile_wan

    def recorded(self, view, buckets):
        results = decide(self, view, buckets)
        decided[:] = results
        return results

    def checked(self, view, directives):
        parts = [list(r.directives) for r in decided if r.directives]
        out, reconciled = reconcile(self, view, directives)
        _assert_same(directives, [d for part in parts for d in part])
        want, want_clips = oracles.reconcile_wan(view, list(directives))
        _assert_same(out, want)
        assert reconciled == want_clips
        seen.append((len(parts), reconciled))
        return out, reconciled

    monkeypatch.setattr(LocalShardRunner, "decide", recorded)
    monkeypatch.setattr(BDSController, "_reconcile_wan", checked)
    return seen


def _sharded_sim(shards=3, cycles=3):
    topo = Topology.full_mesh(
        num_dcs=5, servers_per_dc=3, wan_capacity=30 * MBps, uplink=8 * MBps
    )
    jobs = []
    for j in range(5):
        src = f"dc{j}"
        job = MulticastJob(
            job_id=f"job{j}", src_dc=src,
            dst_dcs=tuple(f"dc{i}" for i in range(5) if i != j),
            total_bytes=(40 + 8 * j) * MB - 12_345, block_size=4 * MB,
        )
        job.bind(topo)
        jobs.append(job)
    return Simulation(
        topo, jobs, BDSController(BDSConfig(shards=shards)),
        SimConfig(max_cycles=cycles, stop_when_complete=False), seed=5,
    )


def test_shard_batches_concatenate_and_reconcile_like_the_objects(monkeypatch):
    """Mutants killed here: ``DirectiveBatch.concat`` shifting the
    second part's bounds one row short; ``concat`` dropping the parts'
    caps; ``_reconcile_wan`` writing a clipped cap one row up."""
    seen = _check_reconciles(monkeypatch)
    _sharded_sim().run()
    assert any(parts > 1 for parts, _clips in seen)
    assert sum(clips for _parts, clips in seen)


# -- the clip: one kernel, bit-equal to the retired dict loop ------------------

_POOL = [f"r{i}" for i in range(8)]


@st.composite
def clip_inputs(draw, max_flows=200):
    """``(flows, requested, capacities)``: 0–200 flows over ≤ 8
    resources, some of capacity 0, some flows crossing none or one
    twice, zero-rate flows, repeated ids, and now and then a resource
    ``capacities`` lacks.

    Hypothesis draws the resources, their capacities, the flow count
    and one rate from its float edge cases; the flows themselves come
    from a drawn ``random.Random`` seed, since one draw per flow field
    cost most of the property's time."""
    names = _POOL[: draw(st.integers(1, 8))]
    capacities = {
        name: draw(st.sampled_from([0.0, 1.0, 2.5, 10.0, 10.0, 64.0]))
        for name in names
    }
    pool = names + (["ghost"] if draw(st.integers(0, 9)) == 0 else [])
    count = draw(st.integers(0, max_flows))
    rates = [0.0, 0.0, 0.5, 1.5, 4.0, 20.0, draw(st.floats(0.0, 50.0))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    flows = [
        Flow(
            flow_id=rng.randint(0, 2 * max_flows),
            resources=tuple(rng.choices(pool, k=rng.randint(0, 4))),
        )
        for _ in range(count)
    ]
    requested = {
        f.flow_id: rng.choice(rates) if rng.random() < 0.5 else rng.uniform(0, 50)
        for f in flows
    }
    return flows, requested, capacities


def _outcome(clip, *args):
    """Rates as (id, float bits), or the error's type and message."""
    try:
        rates = clip(*args)
    except KeyError as error:
        return "KeyError", str(error)
    return [(k, float(v).hex()) for k, v in rates.items()]


ZERO_RATE_GHOST = (
    [Flow("live", ("r0",)), Flow("idle", ("ghost",))],
    {"live": 3.0, "idle": 0.0},
    {"r0": 1.0},
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(clip_inputs())
@example(([], {}, {}))
@example(ZERO_RATE_GHOST)
@example(([Flow(0, ("r0", "r0")), Flow(1, ())], {0: 4.0, 1: 2.0}, {"r0": 6.0}))
def test_clip_is_bit_equal_to_the_retired_clip(case):
    flows, requested, capacities = case
    want = _outcome(oracles.clip_rates_to_capacity_scalar, *case)
    assert _outcome(clip_by_id, *case) == want
    # The kernel itself: one rate per row, in row order.
    rows = oracles.flow_rows(flows)
    asked = [requested.get(f.flow_id, 0.0) for f in flows]
    try:
        got = [r.hex() for r in clip_rates_to_capacity(rows, asked, capacities)]
    except KeyError as error:
        assert want == ("KeyError", str(error))
    else:
        unique = [Flow(i, f.resources) for i, f in enumerate(flows)]
        ids = dict(enumerate(asked))
        assert [v for _k, v in _outcome(
            oracles.clip_rates_to_capacity_scalar, unique, ids, capacities
        )] == got


def clip_corners(flows, requested, capacities):
    """Which of the clip property's named corners one input reaches."""
    seen = set()
    if not flows:
        seen.add("empty input")
    outcome = _outcome(clip_by_id, flows, requested, capacities)
    if isinstance(outcome, tuple) and "'ghost'" in outcome[1]:
        seen.add("ghost raises KeyError")
    if any(capacities.get(r) == 0.0 for f in flows for r in f.resources):
        seen.add("zero-capacity resource")
    if len({f.flow_id for f in flows}) < len(flows):
        seen.add("repeated id")
    if any(len(set(f.resources)) < len(f.resources) for f in flows):
        seen.add("resource crossed twice")
    if any(not f.resources for f in flows):
        seen.add("empty path")
    if 0.0 in requested.values():
        seen.add("zero rate")
    if len(flows) >= 150:
        seen.add(">= 150 flows")
    return seen


def test_clip_inputs_reach_every_corner():
    """The clip property's inputs — its witnesses and the 150 generated
    ones — reach every corner the clip has."""
    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(clip_inputs())
    @example(([], {}, {}))
    @example(ZERO_RATE_GHOST)
    @example(([Flow(0, ("r0", "r0")), Flow(1, ())], {0: 4.0, 1: 2.0}, {"r0": 6.0}))
    def collect(case):
        seen.update(clip_corners(*case))

    collect()
    assert seen == {
        "empty input", "ghost raises KeyError", "zero-capacity resource",
        "repeated id", "resource crossed twice", "empty path", "zero rate",
        ">= 150 flows",
    }


def test_zero_rate_flows_still_validate_their_resources():
    rows = oracles.flow_rows(ZERO_RATE_GHOST[0])
    with pytest.raises(KeyError, match="unknown resource 'ghost'"):
        clip_rates_to_capacity(rows, [3.0, 0.0], ZERO_RATE_GHOST[2])


def test_empty_input_clips_to_nothing():
    assert clip_rates_to_capacity(FlowRows([], [], []), [], {}) == []


def test_rows_resources_outside_the_flows_need_no_capacity():
    """Cache rows number every resource the cache has seen; the
    capacity map need only hold the ones the flows cross."""
    rows = FlowRows([(1,)], [5.0], ["gone", "r0"])
    assert clip_rates_to_capacity(rows, [5.0], {"r0": 2.0}) == [2.0]


# -- the reconcile: caps and clip count of the object-based pass ---------------


def _reconcile_case(spec):
    """A mid-run line-topology view with a failed link, and one capped
    directive per ``(cap, reachable)`` of ``spec``: between servers the
    cut leaves connected, or across it."""
    sim = _midrun(512, 2, line=True)
    view = sim.snapshot_view(2)
    assert view.failed_links
    names = sorted(sim.topology.servers)
    pairs = {True: [], False: []}
    for src in names:
        for dst in names:
            if src != dst:
                reachable = view.flow_resources(src, dst) is not None
                pairs[reachable].append((src, dst))
    rng = random.Random(len(spec))
    job = sim.jobs[0]
    directives = [
        TransferDirective(
            job.job_id, (job.blocks[0].block_id,), *rng.choice(pairs[reachable]), cap
        )
        for cap, reachable in spec
    ]
    return view, directives


@pytest.mark.parametrize(
    "spec",
    [
        # Shared links, a zero cap and an uncapped directive that the
        # waterfill must leave out, two pairs across the cut.
        [(7e6, True), (9e6, True), (0.0, True), (5e6, True), (None, True),
         (8e6, False), (6e6, True), (3e7, True), (2e6, True), (4e6, False),
         (9e6, True), (1e7, True)],
        # One capped pair left once the cut one drops: the early exit.
        [(2e6, False), (None, True), (4e7, True)],
        [(3e6, True)],
        [(None, True), (None, True)],
    ],
)
def test_batch_reconcile_equals_the_object_reconcile(spec):
    """Includes partitioned pairs (the line's failed link), a zero-cap
    directive and the single-directive early exit."""
    view, directives = _reconcile_case(spec)
    controller = BDSController(BDSConfig(shards=2))
    batch = DirectiveBatch.pack(directives, view.store.matrix)
    got, clips = controller._reconcile_wan(view, batch)
    want, want_clips = oracles.reconcile_wan(view, directives)
    _assert_same(got, want)
    assert clips == want_clips
    if len(spec) > 3:
        assert clips
    else:
        assert got is batch and clips == 0


# -- mutants ----------------------------------------------------------------------


#: ``(owner, method, [(old, new)])``: one edit of a method of the batch
#: path, each killed by the test whose docstring names it.
MUTANTS = {
    "concat-bounds-off-by-one": (
        DirectiveBatch, "concat",
        [("shift = bounds[-1]", "shift = bounds[-1] - 1")],
    ),
    "concat-loses-caps": (
        DirectiveBatch, "concat",
        [("[c for part in parts for c in part.caps]",
          "[None for part in parts for c in part.caps]")],
    ),
    "reconcile-cap-to-wrong-row": (
        BDSController, "_reconcile_wan",
        [("caps[i] = rate", "caps[i - 1] = rate")],
    ),
}


def build_mutant(owner, name, edits):
    """``owner.name`` recompiled with each ``(old, new)`` edit applied
    once, in its module's namespace; a classmethod stays one."""
    attr = owner.__dict__[name]
    function = getattr(attr, "__func__", attr)
    source = textwrap.dedent(inspect.getsource(function))
    for old, new in edits:
        assert source.count(old) == 1, f"{name} no longer contains {old!r}"
        source = source.replace(old, new)
    module = inspect.getmodule(function)
    namespace = dict(vars(module))
    exec(compile(source, f"<mutant {name}>", "exec"), namespace)
    mutant = namespace[name]
    return classmethod(mutant) if isinstance(attr, classmethod) else mutant


def test_a_mutant_with_a_missing_edit_text_fails_to_build():
    with pytest.raises(AssertionError, match="no longer contains"):
        build_mutant(DirectiveBatch, "concat", [("no such text", "")])


def test_unedited_rebuilds_pass():
    for owner, name, _edits in MUTANTS.values():
        assert build_mutant(owner, name, []) is not None


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(monkeypatch, name):
    owner, method, edits = MUTANTS[name]
    mutant = build_mutant(owner, method, edits)  # a stale edit fails here
    monkeypatch.setattr(owner, method, mutant)
    _check_reconciles(monkeypatch)
    with pytest.raises(AssertionError):
        _sharded_sim().run()


# -- link stats: the Fig. 10 path, pinned to the object-based data plane ---------


def link_stats_digest(result):
    """SHA-256 of every cycle's per-link bulk usage and worst delay
    inflation, floats as hex."""
    digest = hashlib.sha256()
    for s in result.cycle_stats:
        digest.update(repr((
            s.cycle,
            [(key, value.hex()) for key, value in s.link_bulk_usage.items()],
            s.max_delay_inflation.hex(),
        )).encode())
    return digest.hexdigest()


def loaded_run():
    """BDS over stepped background traffic, link stats on every cycle."""
    topo = Topology.full_mesh(
        num_dcs=4, servers_per_dc=3, wan_capacity=20 * MBps, uplink=12 * MBps
    )
    jobs = []
    for j, src in enumerate(("dc0", "dc2")):
        job = MulticastJob(
            job_id=f"j{j}", src_dc=src,
            dst_dcs=tuple(d for d in ("dc0", "dc1", "dc2", "dc3") if d != src),
            total_bytes=200 * MB - 12_345, block_size=4 * MB,
            arrival_time=6.0 * j,
        )
        job.bind(topo)
        jobs.append(job)
    background = BackgroundTraffic(base_fraction=0.5, seed=3, step_seconds=9.0)
    return Simulation(
        topo, jobs, BDSController(seed=3),
        SimConfig(max_cycles=400, record_link_stats=True),
        background=background, seed=3,
    ).run()


def partitioned_run():
    """§5.3: dc3 severed from the controller's dc0 for five cycles; its
    transfers run on the fallback, concatenated after the controller's."""
    topo = Topology.full_mesh(
        num_dcs=4, servers_per_dc=2, wan_capacity=100 * MBps, uplink=2 * MBps
    )
    job = MulticastJob(
        job_id="j", src_dc="dc0", dst_dcs=("dc1", "dc2", "dc3"),
        total_bytes=60 * MB, block_size=4 * MB,
    )
    job.bind(topo)
    links = [(o, "dc3") for o in ("dc0", "dc1", "dc2")]
    links += [(b, a) for a, b in links]
    events = [FailureEvent(2, "link_fail", link) for link in links]
    events += [FailureEvent(7, "link_recover", link) for link in links]
    return Simulation(
        topo, [job], BDSController(seed=0, controller_dc="dc0"),
        SimConfig(max_cycles=2000, record_link_stats=True),
        failures=FailureSchedule(events), seed=0,
    ).run()


#: ``(cycles_run, link_stats_digest)``, recorded with the object-based
#: data plane: a ``Flow`` per directive, clipped by the dict loop
#: (``oracles.clip_rates_to_capacity_scalar``) or its bit-equal array twin.
#: ``loaded`` was recorded again at 5d9a6b1, when demands and deals began
#: to fold with ``math.fsum`` (its last block is a partial one), with each
#: of its 17 clips checked bit for bit against the dict loop.
LINK_STATS_PINS = {
    "loaded": (
        17, "5f3f695274362d420794e23774fb55cb89a5ed75eee188c1631cd5754c8a4775"
    ),
    "partitioned": (
        12, "6ba21afc9214107fd0fd87aec6a0aeded3be20d42074797aa45927d05aa8ebf0"
    ),
}


@pytest.mark.parametrize(
    "name, run", [("loaded", loaded_run), ("partitioned", partitioned_run)]
)
def test_link_stats_equal_the_object_data_plane(name, run):
    result = run()
    assert result.all_complete
    assert (result.cycles_run, link_stats_digest(result)) == LINK_STATS_PINS[name]
