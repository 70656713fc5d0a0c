"""Overlay paths: enumeration, throughput, bottleneck-disjointness."""

import pytest

from repro.net.paths import (
    OverlayPath,
    are_bottleneck_disjoint,
    bottleneck_resources,
    build_overlay_path,
    enumerate_dc_paths,
    enumerate_overlay_paths,
    path_throughput,
    throughput_ratio_samples,
)
from repro.net.topology import Topology
from repro.utils.units import GB, MBps


@pytest.fixture
def mesh() -> Topology:
    return Topology.full_mesh(
        num_dcs=4, servers_per_dc=2, wan_capacity=1 * GB, uplink=50 * MBps
    )


class TestOverlayPath:
    def test_requires_two_servers(self):
        with pytest.raises(ValueError):
            OverlayPath(servers=("a",), resources=())

    def test_rejects_revisit(self):
        with pytest.raises(ValueError):
            OverlayPath(servers=("a", "b", "a"), resources=())

    def test_endpoints_and_hops(self, mesh):
        path = build_overlay_path(mesh, ("dc0-s0", "dc1-s0", "dc2-s0"))
        assert path.source == "dc0-s0"
        assert path.servers[-1] == "dc2-s0"
        assert len(path.servers) - 1 == 2

    def test_resources_accumulate_per_hop(self, mesh):
        path = build_overlay_path(mesh, ("dc0-s0", "dc1-s0"))
        assert ("up", "dc0-s0") in path.resources
        assert ("wan", "dc0", "dc1") in path.resources
        assert ("down", "dc1-s0") in path.resources


class TestThroughput:
    def test_bottleneck_is_min_capacity(self, mesh):
        caps = mesh.resource_capacities()
        path = build_overlay_path(mesh, ("dc0-s0", "dc1-s0"))
        assert path_throughput(path, caps) == 50 * MBps  # NIC-bound

    def test_bottleneck_resources_identify_nics(self, mesh):
        caps = mesh.resource_capacities()
        path = build_overlay_path(mesh, ("dc0-s0", "dc1-s0"))
        bn = bottleneck_resources(path, caps)
        assert ("up", "dc0-s0") in bn
        assert ("down", "dc1-s0") in bn
        assert ("wan", "dc0", "dc1") not in bn


class TestDisjointness:
    def test_disjoint_when_no_shared_resources(self, mesh):
        caps = mesh.resource_capacities()
        a = build_overlay_path(mesh, ("dc0-s0", "dc1-s0"))
        b = build_overlay_path(mesh, ("dc2-s0", "dc3-s0"))
        assert are_bottleneck_disjoint(a, b, caps)

    def test_not_disjoint_with_shared_bottleneck(self, mesh):
        caps = mesh.resource_capacities()
        a = build_overlay_path(mesh, ("dc0-s0", "dc1-s0"))
        b = build_overlay_path(mesh, ("dc0-s0", "dc2-s0"))
        # Shared uplink of dc0-s0 is the bottleneck of both.
        assert not are_bottleneck_disjoint(a, b, caps)

    def test_shared_non_bottleneck_is_still_disjoint(self):
        topo = Topology()
        for dc in ("A", "B", "C"):
            topo.add_dc(dc)
        topo.add_server("A-s0", "A", uplink=100 * MBps, downlink=100 * MBps)
        topo.add_server("B-s0", "B", uplink=1 * MBps, downlink=1 * MBps)
        topo.add_server("C-s0", "C", uplink=2 * MBps, downlink=2 * MBps)
        topo.add_bidirectional_link("A", "B", 1 * GB)
        topo.add_bidirectional_link("A", "C", 1 * GB)
        caps = topo.resource_capacities()
        a = build_overlay_path(topo, ("A-s0", "B-s0"))  # bottleneck: B NIC
        b = build_overlay_path(topo, ("A-s0", "C-s0"))  # bottleneck: C NIC
        # They share A-s0's uplink, but it bottlenecks neither.
        assert are_bottleneck_disjoint(a, b, caps)


class TestEnumeration:
    def test_dc_paths_include_direct(self, mesh):
        paths = enumerate_dc_paths(mesh, "dc0", "dc1", max_intermediate=1)
        assert ("dc0", "dc1") in paths

    def test_dc_paths_one_intermediate(self, mesh):
        paths = enumerate_dc_paths(mesh, "dc0", "dc1", max_intermediate=1)
        assert ("dc0", "dc2", "dc1") in paths
        assert ("dc0", "dc3", "dc1") in paths
        assert len(paths) == 3

    def test_dc_paths_two_intermediates(self, mesh):
        paths = enumerate_dc_paths(mesh, "dc0", "dc1", max_intermediate=2)
        assert ("dc0", "dc2", "dc3", "dc1") in paths
        assert len(paths) == 3 + 2  # direct + 2 one-hop + 2 two-hop

    def test_same_dc_rejected(self, mesh):
        with pytest.raises(ValueError):
            enumerate_dc_paths(mesh, "dc0", "dc0")

    def test_overlay_paths_same_dc(self, mesh):
        paths = enumerate_overlay_paths(mesh, "dc0-s0", "dc0-s1", seed=0)
        assert len(paths) == 1
        assert paths[0].servers == ("dc0-s0", "dc0-s1")

    def test_overlay_paths_have_relays(self, mesh):
        paths = enumerate_overlay_paths(
            mesh, "dc0-s0", "dc1-s0", max_intermediate=1, seed=0
        )
        hops = sorted(len(p.servers) - 1 for p in paths)
        assert hops[0] == 1  # direct
        assert hops[-1] == 2  # through a relay DC
        assert len(paths) == 3  # direct + dc2 relay + dc3 relay

    def test_overlay_paths_multiple_relays_per_dc(self, mesh):
        paths = enumerate_overlay_paths(
            mesh,
            "dc0-s0",
            "dc1-s0",
            max_intermediate=1,
            servers_per_relay_dc=2,
            seed=0,
        )
        assert len(paths) == 1 + 2 * 2  # direct + 2 servers x 2 relay DCs


class TestRatioSampling:
    def test_samples_produced(self):
        topo = Topology.random_mesh(
            num_dcs=6,
            servers_per_dc=2,
            wan_capacity_range=(1 * GB, 10 * GB),
            uplink_range=(10 * MBps, 100 * MBps),
            seed=4,
        )
        ratios = throughput_ratio_samples(topo, 100, seed=4)
        assert len(ratios) == 100
        assert all(r > 0 for r in ratios)

    def test_needs_three_dcs(self):
        topo = Topology.full_mesh(2, 1, 1 * GB, 1 * MBps)
        with pytest.raises(ValueError):
            throughput_ratio_samples(topo, 10, seed=0)

    def test_heterogeneous_capacities_make_disjoint_pairs(self):
        topo = Topology.random_mesh(
            num_dcs=8,
            servers_per_dc=2,
            wan_capacity_range=(1 * GB, 10 * GB),
            uplink_range=(10 * MBps, 200 * MBps),
            seed=11,
        )
        ratios = throughput_ratio_samples(topo, 300, seed=11)
        disjoint = sum(1 for r in ratios if abs(r - 1) > 0.01) / len(ratios)
        # The paper's Fig. 4: >95% of pairs have different throughput.
        assert disjoint > 0.9
