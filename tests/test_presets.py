"""Topology presets."""

import pytest

from repro.core import BDSController
from repro.net.presets import baidu_like
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import MB, MBps

from tests import oracles


class TestBaiduLike:
    def test_shape(self):
        topo = baidu_like(servers_per_dc=3)
        assert len(topo.dcs) == 10
        assert len(topo.servers) == 30
        # Fully meshed: 10*9 directed links.
        assert len(topo.links) == 90

    def test_intra_metro_links_fatter(self):
        topo = baidu_like()
        assert topo.link_capacity("bj1", "bj2") == 4 * topo.link_capacity(
            "bj1", "sh1"
        )

    def test_scale_factor(self):
        small = baidu_like(scale=1.0)
        big = baidu_like(scale=2.0)
        assert big.link_capacity("bj1", "sh1") == 2 * small.link_capacity(
            "bj1", "sh1"
        )
        assert (
            big.servers["bj1-s0"].uplink == 2 * small.servers["bj1-s0"].uplink
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            baidu_like(servers_per_dc=0)
        with pytest.raises(ValueError):
            baidu_like(scale=0)

    def test_runs_a_multicast(self):
        topo = baidu_like(servers_per_dc=2)
        job = MulticastJob(
            job_id="j",
            src_dc="bj1",
            dst_dcs=("sh1", "gz1", "bj2"),
            total_bytes=40 * MB,
            block_size=4 * MB,
        )
        job.bind(topo)
        result = Simulation(
            topo, [job], BDSController(seed=0), SimConfig(max_cycles=1000), seed=0
        ).run()
        assert result.all_complete


def dumbbell(servers_per_end: int, transit_capacity: float) -> Topology:
    """Two server-rich DCs joined only through two thin transit DCs of
    one relay server each: every byte store-and-forwards."""
    topo = Topology()
    for name in ("left", "right"):
        topo.add_dc(name)
        for j in range(servers_per_end):
            topo.add_server(f"{name}-s{j}", name, uplink=30 * MBps, downlink=30 * MBps)
    for name in ("transit-a", "transit-b"):
        topo.add_dc(name)
        topo.add_server(
            f"{name}-s0", name, uplink=transit_capacity, downlink=transit_capacity
        )
        topo.add_bidirectional_link("left", name, transit_capacity)
        topo.add_bidirectional_link(name, "right", transit_capacity)
    return topo


class TestDumbbell:
    def test_both_transits_usable(self):
        """BDS should use both bottleneck-disjoint transit paths at once."""
        topo = dumbbell(servers_per_end=4, transit_capacity=10 * MBps)
        assert oracles.route_dcs(topo, "left", "right")[1] in ("transit-a", "transit-b")
        job = MulticastJob(
            job_id="j",
            src_dc="left",
            dst_dcs=("right",),
            total_bytes=120 * MB,
            block_size=4 * MB,
            relay_dcs=("transit-a", "transit-b"),
        )
        job.bind(topo)
        result = Simulation(
            topo, [job], BDSController(seed=0), SimConfig(max_cycles=2000), seed=0
        ).run()
        assert result.all_complete
        # Using both 10 MB/s transit paths, 120 MB needs ~6 s + pipeline;
        # a single path would need at least 12 s.
        assert result.completion_time("j") < 12.0 + 9.0
