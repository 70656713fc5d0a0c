"""The per-cycle path cache and the view's possession accessors.

The scheduler and router read possession from the matrix, not through
the store's facade: a decide asks ``holders`` nothing — the
counting-proxy tests pin that, and that the oracle the selections are
tested against does ask, pair by pair. The view's accessors answer
from the live matrix, so no possession answer can be stale; the
invalidation tests pin the topology/failure key of the path tables.
"""

from __future__ import annotations

from repro.core import BDSController
from repro.core.scheduling import RarestFirstScheduler
from repro.net.cycle_cache import CycleCache
from repro.net.simulator import Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
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


class TestCycleCacheInvalidation:
    def test_paths_survive_same_key(self):
        cache = CycleCache()
        table = cache.validate_paths(1, frozenset())
        table[("a", "b")] = ()
        assert cache.validate_paths(1, frozenset()) is table
        assert cache.flushes == 0

    def test_paths_flush_on_topology_epoch(self):
        cache = CycleCache()
        cache.validate_paths(1, frozenset())[("a", "b")] = ()
        assert cache.validate_paths(2, frozenset()) == {}
        assert cache.flushes == 1

    def test_paths_flush_on_failed_links_change(self):
        cache = CycleCache()
        cache.validate_paths(1, frozenset())[("a", "b")] = ()
        assert cache.validate_paths(1, frozenset({("dc0", "dc1")})) == {}
        assert cache.flushes == 1

    def test_empty_flush_not_counted(self):
        cache = CycleCache()
        cache.validate_paths(1, frozenset())
        cache.validate_paths(2, frozenset())
        assert cache.flushes == 0

    def test_no_possession_memo_is_left(self):
        assert not {"sources", "rarity"} & set(CycleCache.__slots__)
