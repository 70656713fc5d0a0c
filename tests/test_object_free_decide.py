"""The object-free middle of the decide against the loops it replaced.

Between the scheduler kernel's sort and the router's directives nothing
is a per-selection or per-commodity object any more: the selection is a
:class:`~repro.core.decisions.SelectionBatch` (its int columns, objects
on demand), commodities are parallel lists over the
:class:`~repro.net.cycle_cache.CycleCache`'s resource-id table, the
greedy water-fill is :func:`~repro.core.routing.greedy_waterfill` over
``(demands, paths, residual)`` and rates are float rows. The simulator's
WAN budgets are rewritten only when something they are computed from
moved. ``tests/oracles.py`` keeps every replaced loop body as a pure
function; everything here is equality with those — rates, directives
(order, segments, rate caps), ``objective``, budgets, random streams —
inside generated simulations.

Mutations this file was checked to catch (each made in ``src/``, each
failing here): ``order`` appended on every push instead of the first
touch, and sorted by commodity; ``room >= best_room`` (tie to the
*highest* path index); the residual filled with ``capacities[key]``
(KeyError on a missing resource) and with a default of ``inf``; the
resource-id table left out of the flush; the table's validity key
without the failed-link set, and without the topology epoch; the budget
memo ignoring the failed-link set, the background step, and the
threshold; a continuous noisy curve sampled once; ``job_slots`` gathered
for the wrong rows.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.runner import make_strategy
from repro.core.decisions import ScheduledBlock, SelectionBatch
from repro.core.routing import BDSRouter, greedy_waterfill
from repro.core.scheduling import RarestFirstScheduler
from repro.core.speculation import DeliverySpeculator, SpeculatedView
from repro.lp.mcf import Commodity
from repro.net.background import BackgroundTraffic
from repro.net.failures import FailureEvent, FailureSchedule
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import MB, MBps

from tests import oracles
from tests import test_engine_pins as pins
from tests.test_columnar_handoff import _midrun
from tests.test_overlay import proxied

# -- the selection sequence ---------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cycles=st.integers(0, 3),
    cap=st.sampled_from([0, 5]),
)
def test_selection_sequence_reads_like_the_list_it_replaced(seed, cycles, cap):
    view = _midrun(seed, cycles).snapshot_view(max(cycles, 1))
    scheduler = RarestFirstScheduler(max_blocks_per_cycle=cap)
    batch = scheduler.select(view)
    assert isinstance(batch, SelectionBatch)

    # The zip loop the kernel used to end with, over the batch's columns.
    want = oracles.scheduled_blocks(
        batch.slot_places,
        batch.server_names,
        batch.slots.tolist(),
        batch.indices.tolist(),
        batch.dst_sids.tolist(),
        batch.duplicates.tolist(),
    )
    assert len(batch) == len(want) == len(batch.gids)
    assert bool(batch) == bool(want)
    assert list(batch) == want
    assert batch == want and want == batch and batch == batch
    assert [batch[i] for i in range(len(batch))] == want
    assert batch[1:4] == want[1:4]
    if want:
        assert batch[-1] == want[-1] and want[0] in batch
    else:
        assert batch == []
    # The column the router reads agrees with the objects' jobs.
    assert [batch.jobs[s].job_id for s in batch.job_slots.tolist()] == [
        entry.job_id for entry in want
    ]

    # ... and it is the selection of the loop that asks the store about
    # every candidate, and of a view that has to build its own table.
    assert oracles.select_rarest_first(view, scheduler) == want
    view._candidates = None
    assert scheduler.select(view) == want


@pytest.mark.parametrize("seed", range(4))
def test_inexact_stores_materialize_the_old_list(seed):
    """Speculation overlays — nothing speculated (the selection the dict
    store made at this point, pinned), and something: columns like any
    other selection, reading as the list the per-candidate scan makes of
    the real store and the speculated copies behind a proxy."""
    scheduler = RarestFirstScheduler()
    sim = _midrun(seed, 2)
    nothing = np.empty(0, dtype=np.int64)
    view = SpeculatedView(sim.snapshot_view(2), nothing, nothing)
    selections = scheduler.select(view)
    assert isinstance(selections, SelectionBatch)
    assert all(type(entry) is ScheduledBlock for entry in selections)
    assert selections == oracles.select_rarest_first(view, scheduler)
    pinned = pins.load()[f"midrun:seed{seed}:cycles2:vectorized_store=False"]
    assert [
        [e.job_id, e.block.index, e.dst_dc, e.dst_server, e.duplicates, e.is_relay]
        for e in selections
    ] == pinned["selections"]

    sim = _midrun(seed, 2)
    view = sim.snapshot_view(2)
    directives = make_strategy("bds", seed=seed).decide(view)
    sids, gids = DeliverySpeculator(horizon_seconds=3.0).speculate(view, directives)
    overlay = SpeculatedView(view, sids, gids)
    selections = scheduler.select(overlay)
    assert isinstance(selections, SelectionBatch)
    assert selections == oracles.select_rarest_first(
        proxied(view, sids, gids), scheduler
    )


# -- the router's middle: ids, rows, first-touch order ------------------------


def _rate_items(keys, members, rates, order):
    """Rows + touch order as the ``(name, path index) -> rate`` items of old."""
    return [((keys[members[ci]], pi), rates[ci][pi]) for ci, pi in order]


def _assert_middle_equals_oracle(view, router, selections, fail_links=()):
    """Group once, then run production and oracle from the same grouping.

    ``fail_links`` fail *between grouping and routing*: the grouping's
    sources were picked with the links up, the commodities' paths are
    looked up with them down.
    """
    cache = view._cache
    grouping = router._group_columns(view, selections, cache)
    if fail_links:
        view.failed_links = frozenset(view.failed_links | set(fail_links))

    members, demands, paths = router._build_commodities(view, grouping, cache)
    commodities, want_members = oracles.grouping_commodities(view, grouping)
    assert members == want_members
    if not members:  # route() returns before solving
        return [], {}, []
    rates, order = greedy_waterfill(
        demands, paths, cache.capacity_vector(view.bulk_capacities)
    )
    directives = router._to_directives(grouping, members, rates)

    want_rates = oracles.solve_greedy(commodities, view.bulk_capacities)
    want = oracles.grouping_directives(grouping, commodities, want_members, want_rates)

    assert demands == [c.demand for c in commodities]
    assert [
        tuple(tuple(cache.res_keys[i] for i in path) for path in candidates)
        for candidates in paths
    ] == [c.paths for c in commodities]
    # Float for float, and in the order the dict was filled.
    assert _rate_items(grouping.keys, members, rates, order) == list(
        want_rates.items()
    )
    assert directives == want
    assert [d.rate_cap for d in directives] == [d.rate_cap for d in want]
    assert [d.block_ids for d in directives] == [d.block_ids for d in want]
    assert sum([rates[ci][pi] for ci, pi in order]) == sum(want_rates.values())
    return directives, want_rates, commodities


def _degrade(view, rng, missing: bool, zero: bool):
    """A private capacity map with resources missing and/or at zero."""
    caps = dict(view.bulk_capacities)
    keys = sorted(caps)
    if missing:
        for key in rng.sample(keys, min(3, len(keys))):
            del caps[key]
    if zero:
        for key in rng.sample(sorted(caps), min(3, len(caps))):
            caps[key] = 0.0
    view.bulk_capacities = caps


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cycles=st.integers(0, 3),
    max_sources=st.sampled_from([1, 2, 3]),
    merge=st.booleans(),
    line=st.booleans(),
    missing=st.booleans(),
    zero=st.booleans(),
    fail_between=st.booleans(),
)
def test_router_middle_equals_object_oracle(
    seed, cycles, max_sources, merge, line, missing, zero, fail_between
):
    sim = _midrun(seed, cycles, line=line)
    view = sim.snapshot_view(max(cycles, 1))
    rng = random.Random(seed)
    _degrade(view, rng, missing, zero)
    selections = RarestFirstScheduler().select(view)
    if not selections:
        return
    router = BDSRouter(max_sources_per_group=max_sources, merge_blocks=merge)
    fail_links = ()
    if fail_between:
        dcs = sorted(sim.topology.dcs)
        a = rng.randrange(len(dcs) - 1)
        fail_links = [(dcs[a], dcs[a + 1]), (dcs[a + 1], dcs[a])]
    directives, want_rates, commodities = _assert_middle_equals_oracle(
        view, router, selections, fail_links
    )

    # End to end, through the public entry point, on the view as it is now.
    routed, diagnostics = BDSRouter(
        max_sources_per_group=max_sources, merge_blocks=merge
    ).route(view, selections)
    if not fail_links:
        assert routed == directives
        assert diagnostics.num_commodities == len(commodities)
        assert diagnostics.objective == sum(want_rates.values())
        if commodities:  # (no commodity: route() answers 0.0 before solving)
            assert type(diagnostics.objective) is type(sum(want_rates.values()))
    # The per-selection pick and merge end in the same directives.
    by_object_commodities, by_object = oracles.route(
        view,
        list(selections),
        BDSRouter(max_sources_per_group=max_sources, merge_blocks=merge),
    )
    assert by_object == routed
    assert len(by_object_commodities) == diagnostics.num_commodities


@pytest.mark.parametrize("seed", [1, 3, 5, 6, 7, 9])
def test_a_link_failing_between_grouping_and_routing_flushes_the_id_table(seed):
    """On a line a failed link disconnects: stale ids would still route."""
    sim = _midrun(seed, 1, line=True)
    view = sim.snapshot_view(1)
    router = BDSRouter()
    selections = RarestFirstScheduler().select(view)
    cache = view._cache
    router.route(view, selections)  # fills the table under "no failed link"
    before = dict(cache.path_ids)
    # Cut a WAN link some commodity's path crosses.
    _wan, a, b = next(key for key in cache.res_keys if key[0] == "wan")
    crossing = {
        pair for pair, path in before.items()
        if cache.res_ids[("wan", a, b)] in path
    }
    assert crossing
    _assert_middle_equals_oracle(view, router, selections, [(a, b), (b, a)])
    assert all(cache.path_ids.get(pair, ()) == () for pair in crossing)
    assert all(
        cache.res_keys[number] == key for key, number in cache.res_ids.items()
    )


@pytest.mark.parametrize("backend", ["greedy", "fptas", "lp"])
def test_epoch_change_mid_run_flushes_the_id_table(backend):
    """A topology edit renumbers resources; routing follows the new routes."""
    sim = _midrun(11, 1, line=True)
    topo = sim.topology
    cache = sim._cycle_cache
    twin = BDSRouter(backend=backend)
    router = BDSRouter(backend=backend)
    for step in range(2):
        view = sim.snapshot_view(1)
        selections = RarestFirstScheduler().select(view)
        assert selections
        directives, diagnostics = router.route(view, selections)
        want_commodities, want = oracles.route(view, list(selections), twin)
        assert directives == want
        assert [d.rate_cap for d in directives] == [d.rate_cap for d in want]
        assert diagnostics.num_commodities == len(want_commodities)
        assert all(
            cache.path_ids[pair]
            == tuple(cache.res_ids[r] for r in cache.paths[pair] or ())
            for pair in cache.path_ids
        )
        if step == 0:
            flushes, known = cache.flushes, set(cache.res_ids)
            dcs = sorted(topo.dcs)
            topo.add_bidirectional_link(dcs[0], dcs[-1], 90 * MBps)
    assert cache.flushes == flushes + 1
    assert set(cache.res_ids) != known  # the new link is on somebody's path


@pytest.mark.parametrize("backend", ["fptas", "lp"])
@pytest.mark.parametrize("seed", range(3))
def test_incidence_backends_build_the_same_commodities(seed, backend):
    """FPTAS/LP still solve over named Commodity objects: same names, same
    interning order, same warm-start trajectory over consecutive decides."""
    sim = _midrun(seed, 2)
    router, twin = BDSRouter(backend=backend), BDSRouter(backend=backend)
    for _ in range(2):
        view = sim.snapshot_view(2)
        selections = RarestFirstScheduler().select(view)
        directives, diagnostics = router.route(view, selections)
        commodities, want = oracles.route(view, list(selections), twin)
        assert directives == want
        assert [d.rate_cap for d in directives] == [d.rate_cap for d in want]
        assert diagnostics.num_commodities == len(commodities)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_waterfill_kernel_equals_incidence_greedy(data):
    """Hand-built instances: duplicate candidate paths, resources crossed
    twice, zero and missing capacities, zero and uncapped demands."""
    n_res = data.draw(st.integers(2, 12))
    names = [f"r{i}" for i in range(n_res)]
    caps = {
        name: data.draw(st.sampled_from([0.0, 0.5, 3.0, 3.0, 7.25, 40.0]))
        for name in names
        if data.draw(st.booleans()) or name == "r0"
    }
    path = st.lists(st.sampled_from(names), min_size=1, max_size=4).map(tuple)
    commodities = []
    for ci in range(data.draw(st.integers(1, 8))):
        paths = data.draw(st.lists(path, min_size=1, max_size=4))
        if data.draw(st.booleans()):
            paths.append(paths[0])  # the same candidate path twice
        demand = data.draw(st.sampled_from([None, 0.0, 1e-10, 2.0, 2.0, 9.5, 80.0]))
        commodities.append(Commodity(name=f"c{ci}", paths=tuple(paths), demand=demand))
    want = oracles.solve_greedy(commodities, caps)

    ids: dict = {}
    paths = [
        [[ids.setdefault(r, len(ids)) for r in p] for p in c.paths]
        for c in commodities
    ]
    rates, order = greedy_waterfill(
        [float("inf") if c.demand is None else c.demand for c in commodities],
        paths,
        [float(caps.get(r, 0.0)) for r in ids],
    )
    got = [((commodities[ci].name, pi), rates[ci][pi]) for ci, pi in order]
    assert got == list(want.items())
    assert len(set(order)) == len(order)
    untouched = {(ci, pi) for ci, row in enumerate(rates) for pi in range(len(row))}
    assert all(rates[ci][pi] == 0.0 for ci, pi in untouched - set(order))


_GUARD_SCRIPT = """
import json
from repro.analysis.runner import make_strategy
from repro.core.decisions import ScheduledBlock
from repro.core.scheduling import RarestFirstScheduler
from repro.lp.incidence import PathIncidence
from repro.lp.mcf import Commodity
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob

built = {"ScheduledBlock": 0, "Commodity": 0, "PathIncidence": 0}
in_decide = [False]

def new(cls, *args, **kwargs):
    built["ScheduledBlock"] += in_decide[0]
    return object.__new__(cls)

def counted(label, original):
    def wrapper(*args, **kwargs):
        built[label] += in_decide[0]
        return original(*args, **kwargs)
    return wrapper

ScheduledBlock.__new__ = new
Commodity.__init__ = counted("Commodity", Commodity.__init__)
PathIncidence.build = counted("PathIncidence", PathIncidence.build)

def scenario():
    topo = Topology.full_mesh(num_dcs=4, servers_per_dc=3, wan_capacity=40e6, uplink=5e6)
    job = MulticastJob(job_id="j", src_dc="dc0", dst_dcs=("dc1", "dc2", "dc3"),
                       total_bytes=60e6 + 321, block_size=4e6)
    job.bind(topo)
    return topo, job

topo, job = scenario()
controller = make_strategy("bds", seed=0)
decide = controller.decide
directives = []

def flagged(view):
    in_decide[0] = True
    try:
        out = decide(view)
    finally:
        in_decide[0] = False
    directives.append(len(out))
    return out

controller.decide = flagged
result = Simulation(topo, [job], controller, SimConfig(), seed=0).run()
during_run = dict(built)

# The counters do count: reading a selection as objects builds them, and
# the FPTAS backend builds commodities and an incidence.
in_decide[0] = True
topo, job = scenario()
view = Simulation(topo, [job], make_strategy("bds", seed=0), SimConfig(), seed=0).snapshot_view()
selections = RarestFirstScheduler().select(view)
rows = len(list(selections))
from repro.core.routing import BDSRouter
BDSRouter(backend="fptas").route(view, selections)
print(json.dumps({"complete": result.all_complete, "directives": sum(directives),
                  "during_run": during_run, "rows": rows, "after": built}))
"""


def test_no_decision_objects_on_a_matrix_store_greedy_run():
    """The guard: a whole run's decides call ``ScheduledBlock.__new__``,
    ``Commodity.__init__`` and ``PathIncidence.build`` zero times.

    In a subprocess: a class whose ``__new__`` was rebound cannot be
    restored in CPython 3.11 (``object.__new__`` then rejects arguments).
    """
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", _GUARD_SCRIPT], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    )
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["complete"] and report["directives"] > 10
    assert report["during_run"] == {
        "ScheduledBlock": 0, "Commodity": 0, "PathIncidence": 0,
    }
    assert report["after"]["ScheduledBlock"] == report["rows"] > 0
    assert report["after"]["Commodity"] > 0 and report["after"]["PathIncidence"] == 1


# -- WAN budgets: rewritten only when something moved -------------------------

CURVES = {
    "none": lambda seed: None,
    "static": lambda seed: BackgroundTraffic(
        base_fraction=0.3, diurnal_fraction=0.0, noise_fraction=0.0, seed=seed
    ),
    "stepped": lambda seed: BackgroundTraffic(
        base_fraction=0.2, diurnal_fraction=0.3, noise_fraction=0.05,
        seed=seed, step_seconds=7.0,
    ),
    "continuous": lambda seed: BackgroundTraffic(
        base_fraction=0.2, diurnal_fraction=0.3, noise_fraction=0.05, seed=seed
    ),
}


@settings(max_examples=60, deadline=None)
@given(
    curve=st.sampled_from(sorted(CURVES)),
    seed=st.integers(0, 1000),
    with_failures=st.booleans(),
    respects=st.lists(st.booleans(), min_size=12, max_size=30),
    edit_at=st.integers(0, 40),
)
def test_budgets_equal_a_from_scratch_recompute_every_cycle(
    curve, seed, with_failures, respects, edit_at
):
    """Per call: both dicts equal the per-cycle WAN loop's over a twin
    background; at the end both random streams are in the same state."""
    topo = Topology.full_mesh(
        num_dcs=3, servers_per_dc=2, wan_capacity=40 * MBps, uplink=5 * MBps
    )
    job = MulticastJob(
        job_id="j", src_dc="dc0", dst_dcs=("dc1", "dc2"),
        total_bytes=16 * MB, block_size=4 * MB,
    )
    job.bind(topo)
    events = []
    if with_failures:
        rng = random.Random(seed)
        links = sorted(key[1:] for key in topo.links)
        for cycle in sorted(rng.sample(range(len(respects)), 4)):
            kind = rng.choice(["link_fail", "link_recover", "agent_fail"])
            target = rng.choice(links) if kind.startswith("link") else "dc1-s0"
            events.append(FailureEvent(cycle=cycle, kind=kind, target=target))
    failures = FailureSchedule(events) if with_failures else None
    background, twin = CURVES[curve](seed), CURVES[curve](seed)
    sim = Simulation(
        topo, [job], make_strategy("bds", seed=0),
        SimConfig(safety_threshold=0.75), background=background,
        failures=failures, seed=0,
    )
    dt = sim.config.cycle_seconds
    for cycle, respect in enumerate(respects):
        if failures is not None:
            failures.advance_to(cycle)
        if cycle == edit_at:
            # A capacity-map edit: resource_capacities() is a new object.
            topo.add_server(f"late-{cycle}", "dc0", 5 * MBps, 5 * MBps)
        now = cycle * dt
        bulk, online = sim._bulk_capacities(now, respect)
        want_bulk, want_online = oracles.bulk_capacities(
            topo.resource_capacities(), 0.75 if respect else 1.0,
            twin, failures, now,
        )
        assert bulk == want_bulk
        # (With nothing to sample or fail, no usage is reported at all.)
        steady = background is None and failures is None
        assert online == ({} if steady else want_online)
    if curve in ("stepped", "continuous"):
        # (A static curve's draws cannot reach a usage value; it is
        # sampled once per change, so its stream is shorter.)
        assert (
            background._rng.bit_generator.state == twin._rng.bit_generator.state
        )


def test_a_stepped_day_samples_once_per_step_and_link():
    """The saving itself: usage is asked for when the step moves, not per cycle."""
    topo = Topology.full_mesh(
        num_dcs=3, servers_per_dc=1, wan_capacity=40 * MBps, uplink=5 * MBps
    )
    job = MulticastJob(
        job_id="j", src_dc="dc0", dst_dcs=("dc1",),
        total_bytes=8 * MB, block_size=4 * MB,
    )
    job.bind(topo)
    background = BackgroundTraffic(seed=3, step_seconds=30.0)
    calls = []
    usage = background.usage
    background.usage = lambda *args: calls.append(args) or usage(*args)
    sim = Simulation(
        topo, [job], make_strategy("bds", seed=0), SimConfig(),
        background=background, seed=0,
    )
    for cycle in range(40):  # 120 s: steps 0..3
        sim._bulk_capacities(cycle * 3.0, True)
    assert len(calls) == 4 * len(topo.links)
