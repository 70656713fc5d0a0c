"""The per-cycle path cache and the view's possession accessors.

The scheduler and router read possession from the matrix, not through
the store's facade: a decide asks ``holders`` nothing — the
counting-proxy tests pin that, and that the oracle the selections are
tested against does ask, pair by pair. The view's accessors answer
from the live matrix, so no possession answer can be stale; the
invalidation tests pin the topology/failure key of the route table, and
a property pins the table to the topology it was read from.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BDSController
from repro.core.scheduling import RarestFirstScheduler
from repro.net.cycle_cache import CycleCache
from repro.net.simulator import Simulation
from repro.net.topology import Topology
from repro.net.view import ClusterView, PartialBytes
from repro.overlay.job import MulticastJob
from repro.overlay.store import PossessionIndex
from repro.utils.units import MB, MBps

from tests import oracles


class CountingStore:
    """Read-only proxy counting per-block ``holders`` queries."""

    def __init__(self, store):
        self._store = store
        self.holders_calls = {}

    def __getattr__(self, name):
        return getattr(self._store, name)

    def holders(self, block_id):
        self.holders_calls[block_id] = self.holders_calls.get(block_id, 0) + 1
        return self._store.holders(block_id)


def _sim(num_dcs: int = 4, blocks: int = 12) -> Simulation:
    topo = Topology.full_mesh(
        num_dcs=num_dcs, servers_per_dc=2, wan_capacity=100 * MBps, uplink=25 * MBps
    )
    job = MulticastJob(
        job_id="j",
        src_dc="dc0",
        dst_dcs=tuple(f"dc{i}" for i in range(1, num_dcs)),
        total_bytes=blocks * MB,
        block_size=1 * MB,
    )
    job.bind(topo)
    return Simulation(
        topology=topo,
        jobs=[job],
        strategy=BDSController(seed=0),
        seed=0,
    )


class TestSchedulerQueryDedupe:
    def test_second_select_same_cycle_hits_cache_only(self):
        """Nor does the first: rarity and holders are matrix gathers."""
        sim = _sim()
        view = sim.snapshot_view()
        counter = CountingStore(sim.store)
        view.store = counter

        scheduler = RarestFirstScheduler()
        # All (block, destination) pairs are pending and selectable.
        assert len(scheduler.select(view)) == 12 * 3
        scheduler.select(view)
        assert counter.holders_calls == {}

    def test_legacy_view_queries_per_pair(self):
        """The oracle the selections are tested against is the undeduped
        reference: one query per pair, the view's cache or not."""
        sim = _sim()
        view = sim.snapshot_view()
        counter = CountingStore(sim.store)
        view.store = counter

        oracles.select_rarest_first(view, RarestFirstScheduler())
        # One rarity query per (block, destination) pair: 3 per block.
        assert all(
            n == 3 for n in counter.holders_calls.values()
        ), counter.holders_calls


class TestViewCachedQueries:
    def test_store_mutation_invalidates_sources(self):
        sim = _sim()
        view = sim.snapshot_view()
        job = sim.jobs[0]
        block = job.blocks[0]
        assert len(view.store.holders(block.block_id)) == 1
        # An out-of-band possession change is read at once: the view
        # keeps no possession answer of its own.
        dst = job.assigned_server("dc1", block.block_id)
        sim.store.seed(dst, [block])
        assert len(view.store.holders(block.block_id)) == 2
        assert len(view.eligible_sources(block.block_id)) == 2

    def test_failed_agent_set_changes_flush_sources(self):
        sim = _sim()
        view = sim.snapshot_view()
        job = sim.jobs[0]
        bid = job.blocks[0].block_id
        sources = view.eligible_sources(bid)
        assert sources
        clone = view.with_extra_failed_agents(set(sources))
        assert clone.eligible_sources(bid) == []
        # The clone shares the base view's cache; neither view's answer
        # leaks into the other's.
        assert view.eligible_sources(bid) == sources


def _mesh(num_dcs: int = 3) -> Topology:
    return Topology.full_mesh(
        num_dcs=num_dcs, servers_per_dc=2, wan_capacity=100 * MBps, uplink=25 * MBps
    )


def _view(topo: Topology, failed_links: frozenset) -> ClusterView:
    store = PossessionIndex({s.server_id: s.dc for s in topo.servers.values()})
    return ClusterView(
        topo, store, [], 0, 0.0, 3.0, topo.resource_capacities(), set(), True,
        PartialBytes(store.matrix), failed_links=failed_links,
    )


class TestCycleCacheInvalidation:
    def test_paths_survive_same_key(self):
        topo = _mesh()
        names = sorted(topo.servers)
        cache = CycleCache().validate(topo, frozenset(), names)
        keys = cache.res_keys
        assert cache.validate(topo, frozenset(), names).res_keys is keys
        assert (cache.misses, cache.flushes) == (1, 0)

    def test_paths_flush_on_topology_epoch(self):
        topo = _mesh()
        names = sorted(topo.servers)
        cache = CycleCache().validate(topo, frozenset(), names)
        topo.add_dc("dc9")
        topo.add_bidirectional_link("dc0", "dc9", 100 * MBps)
        assert ("wan", "dc0", "dc9") in cache.validate(topo, frozenset(), names).res_keys
        assert (cache.misses, cache.flushes) == (2, 1)

    def test_paths_flush_on_failed_links_change(self):
        topo = oracles.line_topology(["a", "b", "c"], 1, 100 * MBps, 25 * MBps)
        names = sorted(topo.servers)  # a-s0, b-s0, c-s0
        cache = CycleCache().validate(topo, frozenset(), names)
        assert cache.rows([0], [2]) != [()]
        cache.validate(topo, frozenset({("a", "b")}), names)
        keys = cache.res_keys
        assert [tuple(keys[r] for r in row) for row in cache.rows([0, 2], [2, 0])] == [
            (),
            (("up", "c-s0"), ("wan", "c", "b"), ("wan", "b", "a"), ("down", "a-s0")),
        ]
        assert (cache.misses, cache.flushes) == (2, 1)

    def test_empty_flush_not_counted(self):
        """A flush is a key change that discards a built table: the first
        table discards none, and a repeated key none either."""
        topo = _mesh()
        names = sorted(topo.servers)
        cut = frozenset({("dc0", "dc1")})
        cache = CycleCache()
        keys = [frozenset(), frozenset(), cut, cut, cut, frozenset(), cut]
        for failed in keys:
            cache.validate(topo, failed, names)
        changes = sum(a != b for a, b in zip(keys, keys[1:]))
        assert (cache.misses, cache.flushes) == (1 + changes, changes)

    def test_no_possession_memo_is_left(self):
        """Nor a per-server-pair one: paths and reach are derived from the
        DC × DC table."""
        assert not {
            "sources", "rarity", "paths", "reach", "path_ids", "res_ids"
        } & set(CycleCache.__slots__)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_dcs=st.integers(2, 6),
    servers=st.integers(1, 3),
    data=st.data(),
)
def test_the_table_equals_the_topology(seed, num_dcs, servers, data):
    """Over random meshes, drawn failed-link sets and server pairs: each
    row, as resource keys, is ``topology.flow_resources`` (``()`` where
    that raises), and the router's usable-holder mask is "has a path and
    is not the destination"."""
    topo = Topology.random_mesh(
        num_dcs, servers, (10 * MBps, 100 * MBps), (5 * MBps, 20 * MBps),
        seed=seed, extra_edge_prob=0.3,
    )
    links = sorted((link.src_dc, link.dst_dc) for link in topo.links.values())
    failed = frozenset(data.draw(st.lists(st.sampled_from(links), unique=True)))
    view = _view(topo, failed)
    names = view.store.matrix.server_names
    ids = st.integers(0, len(names) - 1)
    src, dst = zip(*data.draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=40)))
    want = []
    for s, t in zip(src, dst):
        try:
            want.append(topo.flow_resources(names[s], names[t], failed))
        except ValueError:
            want.append(())
    cache = view.route_table()
    rows = view.path_rows(src, dst)
    assert [tuple(cache.res_keys[r] for r in row) for row in rows] == want
    usable = cache.reachable(np.array(src), np.array(dst))
    assert usable.tolist() == [bool(path) for path in want]
    assert cache.hits == len(src) and cache.misses == 1
