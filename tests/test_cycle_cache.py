"""The per-cycle query cache: dedupe guarantees and invalidation rules.

The scheduler and router together used to issue one rarity query and two
eligible-source queries per pending (block, destination) pair per cycle.
With the :class:`~repro.net.cycle_cache.CycleCache` attached, the store
must be consulted at most once per distinct block id per cycle — that is
the contract the counting-proxy tests pin down. The invalidation tests
pin the epoch/failure validity keys that make stale answers impossible.
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
    """Read-only proxy counting per-block store queries."""

    def __init__(self, store):
        self._store = store
        self.duplicate_count_calls = {}
        self.holders_calls = {}

    def __getattr__(self, name):
        return getattr(self._store, name)

    def duplicate_count(self, block_id):
        self.duplicate_count_calls[block_id] = (
            self.duplicate_count_calls.get(block_id, 0) + 1
        )
        return self._store.duplicate_count(block_id)

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
    def test_one_store_query_per_block_per_cycle(self):
        """Every block pends for 3 destinations, yet rarity and holders
        hit the store at most once per block."""
        sim = _sim()
        view = sim.snapshot_view()
        counter = CountingStore(sim.store)
        view.store = counter

        selected = RarestFirstScheduler().select(view)
        # All (block, destination) pairs are pending and selectable.
        assert len(selected) == 12 * 3
        assert counter.duplicate_count_calls
        assert all(
            n == 1 for n in counter.duplicate_count_calls.values()
        ), counter.duplicate_count_calls
        assert all(n <= 1 for n in counter.holders_calls.values())

    def test_second_select_same_cycle_hits_cache_only(self):
        sim = _sim()
        view = sim.snapshot_view()
        counter = CountingStore(sim.store)
        view.store = counter

        scheduler = RarestFirstScheduler()
        scheduler.select(view)
        first = dict(counter.duplicate_count_calls)
        scheduler.select(view)
        assert counter.duplicate_count_calls == first

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
            n == 3 for n in counter.duplicate_count_calls.values()
        ), counter.duplicate_count_calls


class TestViewCachedQueries:
    def test_store_mutation_invalidates_sources(self):
        sim = _sim()
        view = sim.snapshot_view()
        job = sim.jobs[0]
        block = job.blocks[0]
        assert view.duplicate_count(block.block_id) == 1
        # Out-of-band possession change bumps the store epoch; the memo
        # must not serve the stale count.
        dst = job.assigned_server("dc1", block.block_id)
        sim.store.seed(dst, [block])
        assert view.duplicate_count(block.block_id) == 2
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
        # The base view's answer is rebuilt after the clone flushed the
        # shared cache with its different failure key.
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

    def test_sources_flush_on_store_epoch(self):
        cache = CycleCache()
        cache.validate_sources(1, frozenset())
        cache.sources[("j", 0)] = ["s1"]
        cache.rarity[("j", 0)] = 1
        cache.validate_sources(2, frozenset())
        assert cache.sources == {}
        assert cache.rarity == {}
        assert cache.flushes == 1

    def test_sources_flush_on_failed_agents_change(self):
        cache = CycleCache()
        cache.validate_sources(1, frozenset())
        cache.sources[("j", 0)] = ["s1"]
        cache.validate_sources(1, frozenset({"s1"}))
        assert cache.sources == {}
        assert cache.flushes == 1

    def test_empty_flush_not_counted(self):
        cache = CycleCache()
        cache.validate_sources(1, frozenset())
        cache.validate_sources(2, frozenset())
        assert cache.flushes == 0
