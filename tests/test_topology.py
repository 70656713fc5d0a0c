"""Topology model: construction, routing, resource accounting."""

import pytest

from repro.net.topology import (
    Topology,
    downlink_key,
    uplink_key,
    wan_key,
)
from repro.utils.units import GB, MBps

from tests import oracles


@pytest.fixture
def triangle() -> Topology:
    topo = Topology()
    for name in ("A", "B", "C"):
        topo.add_dc(name)
        topo.add_server(f"{name}-s0", name, uplink=10 * MBps, downlink=20 * MBps)
    topo.add_bidirectional_link("A", "B", 1 * GB)
    topo.add_bidirectional_link("B", "C", 1 * GB)
    return topo


class TestConstruction:
    def test_duplicate_dc_rejected(self, triangle):
        with pytest.raises(ValueError, match="duplicate DC"):
            triangle.add_dc("A")

    def test_duplicate_server_rejected(self, triangle):
        with pytest.raises(ValueError, match="duplicate server"):
            triangle.add_server("A-s0", "A", 1, 1)

    def test_server_requires_existing_dc(self, triangle):
        with pytest.raises(ValueError, match="unknown DC"):
            triangle.add_server("X-s0", "X", 1, 1)

    def test_duplicate_link_rejected(self, triangle):
        with pytest.raises(ValueError, match="duplicate link"):
            triangle.add_link("A", "B", 1 * GB)

    def test_self_link_rejected(self, triangle):
        with pytest.raises(ValueError):
            triangle.add_link("A", "A", 1 * GB)

    def test_nonpositive_capacity_rejected(self, triangle):
        with pytest.raises(ValueError):
            triangle.add_link("A", "C", 0)

    def test_servers_in(self, triangle):
        assert [s.server_id for s in triangle.servers_in("A")] == ["A-s0"]

    def test_neighbors(self, triangle):
        assert set(triangle.neighbors("B")) == {"A", "C"}


class TestRouting:
    def test_direct_route(self, triangle):
        assert triangle.route("A", "B") == (wan_key("A", "B"),)

    def test_two_hop_route(self, triangle):
        assert triangle.route("A", "C") == (
            wan_key("A", "B"),
            wan_key("B", "C"),
        )

    def test_same_dc_route_is_empty(self, triangle):
        assert triangle.route("A", "A") == ()

    def test_route_dcs_includes_endpoints(self, triangle):
        assert oracles.route_dcs(triangle, "A", "C") == ("A", "B", "C")

    def test_unreachable_raises(self):
        topo = Topology()
        topo.add_dc("A")
        topo.add_dc("B")
        topo.add_server("A-s0", "A", 1, 1)
        topo.add_server("B-s0", "B", 1, 1)
        with pytest.raises(ValueError, match="no WAN route"):
            topo.route("A", "B")

    def test_route_prefers_fewer_hops(self, triangle):
        triangle.add_bidirectional_link("A", "C", 1 * MBps)  # thin but direct
        assert triangle.route("A", "C") == (wan_key("A", "C"),)

    def test_route_prefers_fat_links_among_equal_hops(self):
        topo = Topology()
        for name in ("A", "B", "C", "D"):
            topo.add_dc(name)
            topo.add_server(f"{name}-s0", name, 1, 1)
        topo.add_bidirectional_link("A", "B", 10 * GB)
        topo.add_bidirectional_link("B", "D", 10 * GB)
        topo.add_bidirectional_link("A", "C", 1 * MBps)
        topo.add_bidirectional_link("C", "D", 1 * MBps)
        assert oracles.route_dcs(topo, "A", "D") == ("A", "B", "D")

    def test_routes_invalidated_by_new_link(self, triangle):
        assert len(triangle.route("A", "C")) == 2
        triangle.add_bidirectional_link("A", "C", 1 * GB)
        assert len(triangle.route("A", "C")) == 1


class TestFlowResources:
    def test_cross_dc_flow(self, triangle):
        resources = triangle.flow_resources("A-s0", "C-s0")
        assert resources == (
            uplink_key("A-s0"),
            wan_key("A", "B"),
            wan_key("B", "C"),
            downlink_key("C-s0"),
        )

    def test_intra_dc_flow_skips_wan(self, triangle):
        triangle.add_server("A-s1", "A", 1 * MBps, 1 * MBps)
        resources = triangle.flow_resources("A-s0", "A-s1")
        assert resources == (uplink_key("A-s0"), downlink_key("A-s1"))

    def test_same_server_rejected(self, triangle):
        with pytest.raises(ValueError):
            triangle.flow_resources("A-s0", "A-s0")

    def test_resource_capacities_cover_everything(self, triangle):
        caps = triangle.resource_capacities()
        assert caps[uplink_key("A-s0")] == 10 * MBps
        assert caps[downlink_key("A-s0")] == 20 * MBps
        assert caps[wan_key("A", "B")] == 1 * GB
        # 4 directed links + 2 NICs per server x 3 servers.
        assert len(caps) == 4 + 6


class TestBuilders:
    def test_full_mesh_counts(self):
        topo = Topology.full_mesh(
            num_dcs=4, servers_per_dc=2, wan_capacity=1 * GB, uplink=1 * MBps
        )
        assert len(topo.dcs) == 4
        assert len(topo.servers) == 8
        assert len(topo.links) == 4 * 3  # directed

    def test_full_mesh_downlink_defaults_to_uplink(self):
        topo = Topology.full_mesh(2, 1, 1 * GB, 5 * MBps)
        server = topo.servers["dc0-s0"]
        assert server.downlink == server.uplink == 5 * MBps

    def test_line_topology_routes_through_middle(self):
        topo = oracles.line_topology(["X", "Y", "Z"], 1, 1 * GB, 1 * MBps)
        assert oracles.route_dcs(topo, "X", "Z") == ("X", "Y", "Z")

    def test_random_mesh_connected_and_deterministic(self):
        kwargs = dict(
            num_dcs=8,
            servers_per_dc=2,
            wan_capacity_range=(1 * GB, 2 * GB),
            uplink_range=(1 * MBps, 2 * MBps),
            seed=13,
        )
        a = Topology.random_mesh(**kwargs)
        b = Topology.random_mesh(**kwargs)
        for src in a.dc_names():
            for dst in a.dc_names():
                if src != dst:
                    assert a.route(src, dst)  # connected
        assert set(a.links) == set(b.links)
        for key in a.links:
            assert a.links[key].capacity == b.links[key].capacity
