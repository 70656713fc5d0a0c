"""Baseline overlay strategies: Gingko, Bullet, Akamai, chain, direct."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.baselines import (
    AkamaiStrategy,
    BulletStrategy,
    ChainStrategy,
    DirectStrategy,
    GingkoStrategy,
)
from repro.core import BDSController
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import GB, MB, MBps


def build(num_dcs=3, servers=3, size=30 * MB, block=2 * MB, uplink=10 * MBps):
    topo = Topology.full_mesh(
        num_dcs=num_dcs, servers_per_dc=servers, wan_capacity=1 * GB, uplink=uplink
    )
    job = MulticastJob(
        job_id="j",
        src_dc="dc0",
        dst_dcs=tuple(f"dc{i}" for i in range(1, num_dcs)),
        total_bytes=size,
        block_size=block,
    )
    job.bind(topo)
    return topo, job


ALL_STRATEGIES = [
    ("gingko", lambda: GingkoStrategy(seed=0)),
    ("bullet", lambda: BulletStrategy(seed=0)),
    ("akamai", lambda: AkamaiStrategy()),
    ("chain", lambda: ChainStrategy()),
    ("direct", lambda: DirectStrategy()),
]


@pytest.mark.parametrize("name,factory", ALL_STRATEGIES)
class TestAllBaselines:
    def test_completes_multicast(self, name, factory):
        topo, job = build()
        result = Simulation(
            topo, [job], factory(), SimConfig(max_cycles=3000), seed=0
        ).run()
        assert result.all_complete, f"{name} never finished"

    def test_no_rate_caps(self, name, factory):
        topo, job = build()
        strategy = factory()
        sim = Simulation(topo, [job], strategy, SimConfig())
        view = sim.snapshot_view()
        for directive in strategy.decide(view):
            assert directive.rate_cap is None

    def test_directives_reference_real_holders(self, name, factory):
        topo, job = build()
        strategy = factory()
        sim = Simulation(topo, [job], strategy, SimConfig())
        view = sim.snapshot_view()
        for directive in strategy.decide(view):
            for bid in directive.block_ids:
                assert view.store.has(directive.src_server, bid)

    def test_does_not_respect_threshold(self, name, factory):
        # Per the paper, only BDS coordinates rates under the threshold.
        assert not factory().respects_safety_threshold


class TestGingkoSpecifics:
    def test_limited_view_size(self):
        topo, job = build(servers=8)
        strategy = GingkoStrategy(view_size=3, seed=0)
        sim = Simulation(topo, [job], strategy, SimConfig())
        view = sim.snapshot_view()
        strategy.decide(view)
        for neighbors in strategy._neighbors.values():
            assert len(neighbors) <= 3

    def test_neighbors_refresh_on_epoch(self):
        topo, job = build(servers=8)
        strategy = GingkoStrategy(view_size=2, epoch_cycles=2, seed=0)
        sim = Simulation(topo, [job], strategy, SimConfig(max_cycles=8), seed=0)
        sim.run()
        assert strategy._last_epoch >= 1

    def test_fetch_parallelism_bounds_senders(self):
        topo, job = build(servers=8, size=64 * MB)
        strategy = GingkoStrategy(
            view_size=8, fetch_parallelism=2, seed=0
        )
        sim = Simulation(topo, [job], strategy, SimConfig())
        view = sim.snapshot_view()
        directives = strategy.decide(view)
        by_dst = {}
        for d in directives:
            by_dst.setdefault(d.dst_server, set()).add(d.src_server)
        for senders in by_dst.values():
            assert len(senders) <= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            GingkoStrategy(view_size=0)


class TestBulletSpecifics:
    def test_disjoint_blocks_across_peers(self):
        topo, job = build(servers=6, size=48 * MB)
        strategy = BulletStrategy(seed=0)
        sim = Simulation(topo, [job], strategy, SimConfig())
        view = sim.snapshot_view()
        directives = strategy.decide(view)
        by_dst = {}
        for d in directives:
            by_dst.setdefault(d.dst_server, []).extend(d.block_ids)
        for blocks in by_dst.values():
            assert len(blocks) == len(set(blocks)), "duplicate block requested"

    def test_peer_count_bounded(self):
        topo, job = build(servers=8)
        strategy = BulletStrategy(num_peers=3, seed=0)
        sim = Simulation(topo, [job], strategy, SimConfig())
        strategy.decide(sim.snapshot_view())
        for peers in strategy._peers.values():
            assert len(peers) <= 3

    def test_validation(self):
        with pytest.raises(ValueError):
            BulletStrategy(num_peers=0)


class TestAkamaiSpecifics:
    def test_three_layer_structure(self):
        """Edge servers receive only from their DC's reflector."""
        topo, job = build(servers=4)
        strategy = AkamaiStrategy(reflectors_per_dc=1)
        result = Simulation(
            topo, [job], strategy, SimConfig(max_cycles=3000), seed=0
        ).run()
        assert result.all_complete
        reflectors = {
            r for dc_refs in strategy._reflectors["j"].values() for r in dc_refs
        }
        for record in result.store.deliveries:
            dst_dc = result.store.dc_of(record.dst_server)
            if record.dst_server in reflectors:
                # Layer 1: reflectors fed from the source DC.
                assert result.store.dc_of(record.src_server) == "dc0"
            else:
                # Layer 2: edges fed from a reflector in their own DC.
                assert record.src_server in reflectors
                assert result.store.dc_of(record.src_server) == dst_dc

    def test_in_order_window(self):
        topo, job = build(servers=2, size=64 * MB)
        strategy = AkamaiStrategy(window=4)
        sim = Simulation(topo, [job], strategy, SimConfig())
        directives = strategy.decide(sim.snapshot_view())
        for d in directives:
            indices = [bid[1] for bid in d.block_ids]
            assert len(indices) <= 4
            assert indices == sorted(indices)

    def test_validation(self):
        with pytest.raises(ValueError):
            AkamaiStrategy(window=0)


class TestChainSpecifics:
    def test_chain_relays_forward_in_dc_order(self):
        topo, job = build(servers=2)
        strategy = ChainStrategy()
        result = Simulation(
            topo, [job], strategy, SimConfig(max_cycles=3000), seed=0
        ).run()
        assert result.all_complete
        chain = strategy._relays["j"]
        assert len(chain) == 2  # one relay per destination DC
        # The second relay must never receive directly from the source DC.
        second = chain[1]
        for record in result.store.deliveries:
            if record.dst_server == second:
                assert result.store.dc_of(record.src_server) == "dc1"

    def test_validation(self):
        with pytest.raises(ValueError):
            ChainStrategy(window=0)


class TestDirectSpecifics:
    def test_only_origin_sources_used(self):
        topo, job = build()
        result = Simulation(
            topo, [job], DirectStrategy(), SimConfig(max_cycles=3000), seed=0
        ).run()
        assert result.all_complete
        for record in result.store.deliveries:
            assert result.store.dc_of(record.src_server) == "dc0"

    def test_overlay_beats_direct_on_thin_source(self):
        """With a thin source egress, any overlay reuse beats direct."""

        def scenario():
            topo = Topology.full_mesh(
                num_dcs=4,
                servers_per_dc=2,
                wan_capacity=100 * MBps,
                uplink=4 * MBps,
            )
            job = MulticastJob(
                job_id="j",
                src_dc="dc0",
                dst_dcs=("dc1", "dc2", "dc3"),
                total_bytes=48 * MB,
                block_size=4 * MB,
            )
            job.bind(topo)
            return topo, job

        topo, job = scenario()
        direct = Simulation(
            topo, [job], DirectStrategy(), SimConfig(max_cycles=3000), seed=0
        ).run()
        topo, job = scenario()
        bds = Simulation(
            topo, [job], BDSController(seed=0), SimConfig(max_cycles=3000), seed=0
        ).run()
        assert bds.completion_time("j") < direct.completion_time("j")


_ORIGIN_TIE_SCRIPT = """
import sys
from repro.analysis.runner import make_strategy
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import GB, MB, MBps

topo = Topology.full_mesh(
    num_dcs=3, servers_per_dc=4, wan_capacity=1 * GB, uplink=10 * MBps
)
job = MulticastJob(
    job_id="j", src_dc="dc0", dst_dcs=("dc1", "dc2"),
    total_bytes=24 * MB, block_size=2 * MB,
)
job.bind(topo)
# The appendix set-up: every source-DC server holds the whole file.
pre_seeded = {s.server_id: job.blocks for s in topo.servers_in("dc0")}
sim = Simulation(
    topo, [job], make_strategy(sys.argv[1], seed=0), SimConfig(max_cycles=500),
    pre_seeded=pre_seeded, seed=0,
)
result = sim.run()
assert result.all_complete
for r in result.store.deliveries:
    print(r.block_id, r.src_server, r.dst_server, r.time)
"""


@pytest.mark.parametrize("strategy", ["direct", "akamai", "chain"])
def test_origin_holder_does_not_depend_on_the_hash_seed(strategy):
    """Several source-DC holders of one block: the lowest server id sends.

    ``eligible_sources`` lists holders in string-hash order, so taking its
    first source-DC entry made the sender change with ``PYTHONHASHSEED``.
    """
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    provenance = []
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        done = subprocess.run(
            [sys.executable, "-c", _ORIGIN_TIE_SCRIPT, strategy],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        provenance.append(done.stdout)
    assert provenance[0] and provenance[0] == provenance[1] == provenance[2]
    from_origin = [line for line in provenance[0].splitlines() if " dc0-" in line]
    assert from_origin and all(" dc0-s0 " in line for line in from_origin)
