"""Datacenter / server / WAN-link topology model.

The model mirrors the paper's setting (§2, §6): tens of geo-distributed
datacenters (DCs) connected by capacitated WAN links, each DC containing many
servers whose uplink/downlink capacities are orders of magnitude smaller than
the WAN links. Intra-DC bandwidth is treated as abundant (the paper's
bottlenecks are server NICs and WAN links), so a server-to-server transfer
consumes three kinds of resources:

* the source server's uplink,
* every WAN link on the DC-level route,
* the destination server's downlink.

Resources are identified by hashable keys (see :data:`ResourceKey`) so that
the max-min fair allocator and the LP router can treat them uniformly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import check_positive

# A resource is ("up", server_id), ("down", server_id) or ("wan", src, dst).
ResourceKey = Tuple[str, ...]


def uplink_key(server_id: str) -> ResourceKey:
    """Resource key for a server's uplink."""
    return ("up", server_id)


def downlink_key(server_id: str) -> ResourceKey:
    """Resource key for a server's downlink."""
    return ("down", server_id)


def wan_key(src_dc: str, dst_dc: str) -> ResourceKey:
    """Resource key for the directed WAN link ``src_dc -> dst_dc``."""
    return ("wan", src_dc, dst_dc)


@dataclass(frozen=True)
class Server:
    """A server with a DC location and NIC capacities in bytes/second."""

    server_id: str
    dc: str
    uplink: float
    downlink: float

    def __post_init__(self) -> None:
        check_positive("uplink", self.uplink)
        check_positive("downlink", self.downlink)


@dataclass(frozen=True)
class Link:
    """A directed WAN link between two DCs with capacity in bytes/second."""

    src_dc: str
    dst_dc: str
    capacity: float

    def __post_init__(self) -> None:
        check_positive("capacity", self.capacity)
        if self.src_dc == self.dst_dc:
            raise ValueError("a WAN link must connect two distinct DCs")

    @property
    def key(self) -> ResourceKey:
        return wan_key(self.src_dc, self.dst_dc)


@dataclass
class DataCenter:
    """A named datacenter holding an ordered list of servers."""

    name: str
    servers: List[Server] = field(default_factory=list)

    def server_ids(self) -> List[str]:
        return [s.server_id for s in self.servers]


class Topology:
    """The DC graph plus all servers, with precomputed WAN routing.

    WAN routing between DC pairs follows a fixed min-hop shortest path
    (ties broken by total inverse capacity, preferring fat links), matching
    the paper's assumption that IP-layer WAN routing is outside the overlay's
    control: the overlay chooses *which DC sequence to store-and-forward
    through*, while each individual hop rides the network-layer route.
    """

    def __init__(self) -> None:
        self.dcs: Dict[str, DataCenter] = {}
        self.servers: Dict[str, Server] = {}
        self.links: Dict[ResourceKey, Link] = {}
        self._routes: Optional[Dict[Tuple[str, str], Tuple[ResourceKey, ...]]] = None
        # Failure-aware route tables, keyed by the frozenset of failed
        # (src_dc, dst_dc) links they exclude.
        self._avoiding_routes: Dict[
            frozenset, Dict[Tuple[str, str], Tuple[ResourceKey, ...]]
        ] = {}
        # Structural mutation counter: bumps on every add_dc/add_server/
        # add_link, invalidating capacity and path caches keyed on it.
        self.epoch: int = 0
        self._caps_cache: Optional[Dict[ResourceKey, float]] = None

    # -- construction -----------------------------------------------------

    def add_dc(self, name: str) -> DataCenter:
        """Add an empty datacenter; returns the new :class:`DataCenter`."""
        if name in self.dcs:
            raise ValueError(f"duplicate DC {name!r}")
        dc = DataCenter(name=name)
        self.dcs[name] = dc
        self._routes = None
        self._caps_cache = None
        self._avoiding_routes.clear()
        self.epoch += 1
        return dc

    def add_server(
        self, server_id: str, dc: str, uplink: float, downlink: float
    ) -> Server:
        """Add a server to an existing DC."""
        if dc not in self.dcs:
            raise ValueError(f"unknown DC {dc!r}")
        if server_id in self.servers:
            raise ValueError(f"duplicate server {server_id!r}")
        server = Server(server_id=server_id, dc=dc, uplink=uplink, downlink=downlink)
        self.servers[server_id] = server
        self.dcs[dc].servers.append(server)
        self._caps_cache = None
        self.epoch += 1
        return server

    def add_link(self, src_dc: str, dst_dc: str, capacity: float) -> Link:
        """Add a directed WAN link; both DCs must already exist."""
        for name in (src_dc, dst_dc):
            if name not in self.dcs:
                raise ValueError(f"unknown DC {name!r}")
        link = Link(src_dc=src_dc, dst_dc=dst_dc, capacity=capacity)
        if link.key in self.links:
            raise ValueError(f"duplicate link {src_dc}->{dst_dc}")
        self.links[link.key] = link
        self._routes = None
        self._caps_cache = None
        self._avoiding_routes.clear()
        self.epoch += 1
        return link

    def add_bidirectional_link(
        self, dc_a: str, dc_b: str, capacity: float
    ) -> Tuple[Link, Link]:
        """Add a pair of directed links with equal capacity."""
        return (
            self.add_link(dc_a, dc_b, capacity),
            self.add_link(dc_b, dc_a, capacity),
        )

    # -- queries -----------------------------------------------------------

    def dc_names(self) -> List[str]:
        return list(self.dcs)

    def servers_in(self, dc: str) -> List[Server]:
        """All servers located in ``dc`` (in insertion order)."""
        return list(self.dcs[dc].servers)

    def neighbors(self, dc: str) -> List[str]:
        """DCs directly reachable from ``dc`` over one WAN link."""
        return [link.dst_dc for link in self.links.values() if link.src_dc == dc]

    def link_capacity(self, src_dc: str, dst_dc: str) -> float:
        return self.links[wan_key(src_dc, dst_dc)].capacity

    def resource_capacities(self) -> Dict[ResourceKey, float]:
        """Capacity of every resource: WAN links plus all server NICs.

        The result is cached until the topology next mutates; callers must
        treat it as read-only (the simulator reads it every cycle).
        """
        if self._caps_cache is None:
            caps: Dict[ResourceKey, float] = {
                key: link.capacity for key, link in self.links.items()
            }
            for server in self.servers.values():
                caps[uplink_key(server.server_id)] = server.uplink
                caps[downlink_key(server.server_id)] = server.downlink
            self._caps_cache = caps
        return self._caps_cache

    # -- routing -----------------------------------------------------------

    def _compute_routes(
        self, excluded: frozenset = frozenset()
    ) -> Dict[Tuple[str, str], Tuple[ResourceKey, ...]]:
        """All-pairs min-hop routes over the DC graph (Dijkstra per source).

        Edge weight is ``1 + epsilon/capacity`` so the route minimizes hops
        first and prefers higher-capacity links among equal-hop routes.
        ``excluded`` drops failed ``(src_dc, dst_dc)`` links from the graph
        (§5.3 network partitions reroute or disconnect).
        """
        routes: Dict[Tuple[str, str], Tuple[ResourceKey, ...]] = {}
        adjacency: Dict[str, List[Link]] = {name: [] for name in self.dcs}
        max_cap = max(
            (lnk.capacity for lnk in self.links.values()), default=1.0
        )
        for link in self.links.values():
            if (link.src_dc, link.dst_dc) in excluded:
                continue
            adjacency[link.src_dc].append(link)

        import heapq

        for source in self.dcs:
            dist: Dict[str, float] = {source: 0.0}
            prev: Dict[str, Link] = {}
            heap: List[Tuple[float, str]] = [(0.0, source)]
            while heap:
                d, dc = heapq.heappop(heap)
                if d > dist.get(dc, float("inf")):
                    continue
                for link in adjacency[dc]:
                    weight = 1.0 + 1e-6 * (max_cap / link.capacity)
                    nd = d + weight
                    if nd < dist.get(link.dst_dc, float("inf")):
                        dist[link.dst_dc] = nd
                        prev[link.dst_dc] = link
                        heapq.heappush(heap, (nd, link.dst_dc))
            for target in self.dcs:
                if target == source:
                    routes[(source, target)] = ()
                    continue
                if target not in prev:
                    continue  # unreachable; route() raises on lookup
                hops: List[ResourceKey] = []
                node = target
                while node != source:
                    link = prev[node]
                    hops.append(link.key)
                    node = link.src_dc
                routes[(source, target)] = tuple(reversed(hops))
        return routes

    def route(
        self,
        src_dc: str,
        dst_dc: str,
        exclude_links: frozenset = frozenset(),
    ) -> Tuple[ResourceKey, ...]:
        """WAN links traversed between two DCs (empty tuple if same DC).

        ``exclude_links`` is a frozenset of failed ``(src_dc, dst_dc)``
        pairs; routing detours around them, raising if the destination is
        unreachable (a partition).
        """
        if exclude_links:
            table = self._avoiding_routes.get(exclude_links)
            if table is None:
                table = self._compute_routes(exclude_links)
                self._avoiding_routes[exclude_links] = table
        else:
            if self._routes is None:
                self._routes = self._compute_routes()
            table = self._routes
        try:
            return table[(src_dc, dst_dc)]
        except KeyError:
            raise ValueError(f"no WAN route from {src_dc!r} to {dst_dc!r}") from None

    def flow_resources(
        self,
        src_server: str,
        dst_server: str,
        exclude_links: frozenset = frozenset(),
    ) -> Tuple[ResourceKey, ...]:
        """All resources a transfer between two servers consumes."""
        src = self.servers[src_server]
        dst = self.servers[dst_server]
        if src_server == dst_server:
            raise ValueError("flow endpoints must differ")
        middle = self.route(src.dc, dst.dc, exclude_links)
        return (uplink_key(src_server),) + middle + (downlink_key(dst_server),)

    def reachable_dcs(
        self, from_dc: str, exclude_links: frozenset = frozenset()
    ) -> frozenset:
        """DCs reachable from ``from_dc`` over healthy links (incl. itself).

        Used for §5.3 partition handling: DCs in the controller's partition
        stay centrally controlled, the rest fall back.
        """
        if from_dc not in self.dcs:
            raise ValueError(f"unknown DC {from_dc!r}")
        seen = {from_dc}
        frontier = [from_dc]
        while frontier:
            dc = frontier.pop()
            for link in self.links.values():
                if link.src_dc != dc:
                    continue
                if (link.src_dc, link.dst_dc) in exclude_links:
                    continue
                if link.dst_dc not in seen:
                    seen.add(link.dst_dc)
                    frontier.append(link.dst_dc)
        return frozenset(seen)

    # -- canned builders -----------------------------------------------------

    @staticmethod
    def full_mesh(
        num_dcs: int,
        servers_per_dc: int,
        wan_capacity: float,
        uplink: float,
        downlink: Optional[float] = None,
        dc_prefix: str = "dc",
    ) -> "Topology":
        """Fully meshed DC graph: the common inter-DC WAN abstraction.

        Mirrors the trace-driven simulation setups of §6.1.3 where every DC
        pair has a direct WAN path.
        """
        check_positive("num_dcs", num_dcs)
        check_positive("servers_per_dc", servers_per_dc)
        if downlink is None:
            downlink = uplink
        topo = Topology()
        names = [f"{dc_prefix}{i}" for i in range(num_dcs)]
        for name in names:
            topo.add_dc(name)
            for j in range(servers_per_dc):
                topo.add_server(f"{name}-s{j}", name, uplink, downlink)
        for a, b in itertools.combinations(names, 2):
            topo.add_bidirectional_link(a, b, wan_capacity)
        return topo

    @staticmethod
    def random_mesh(
        num_dcs: int,
        servers_per_dc: int,
        wan_capacity_range: Tuple[float, float],
        uplink_range: Tuple[float, float],
        seed: SeedLike = None,
        extra_edge_prob: float = 0.5,
        dc_prefix: str = "dc",
    ) -> "Topology":
        """A connected random DC graph with heterogeneous capacities.

        Builds a random spanning tree first (guaranteeing connectivity) and
        adds each remaining DC pair with probability ``extra_edge_prob``.
        Capacities are drawn uniformly from the given ranges, producing the
        capacity diversity that makes overlay paths bottleneck-disjoint
        (the phenomenon behind the paper's Fig. 4).
        """
        rng = make_rng(seed)
        topo = Topology()
        names = [f"{dc_prefix}{i}" for i in range(num_dcs)]
        for name in names:
            topo.add_dc(name)
            for j in range(servers_per_dc):
                up = float(rng.uniform(*uplink_range))
                topo.add_server(f"{name}-s{j}", name, up, up)
        # Random spanning tree: connect each new DC to a random earlier one.
        for i in range(1, num_dcs):
            j = int(rng.integers(0, i))
            cap = float(rng.uniform(*wan_capacity_range))
            topo.add_bidirectional_link(names[i], names[j], cap)
        for a, b in itertools.combinations(names, 2):
            if wan_key(a, b) in topo.links:
                continue
            if rng.random() < extra_edge_prob:
                cap = float(rng.uniform(*wan_capacity_range))
                topo.add_bidirectional_link(a, b, cap)
        return topo
