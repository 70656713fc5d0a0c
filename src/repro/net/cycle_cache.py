"""Per-cycle memoization for the controller/simulator hot path.

A server-to-server transfer consumes the source's uplink, the WAN route
between the two DCs and the destination's downlink (§4.4). The router
and the simulator ask for such paths, pair after pair, cycle after
cycle; :class:`CycleCache` holds the one fact they need per validity key
``(topology.epoch, failed_links)``: every NIC and WAN link of the
topology numbered once (``res_keys``, what the greedy water-fill indexes
its residual vector with and the rate kernels number their rows in),
and a DC × DC table of failure-aware WAN routes as tuples of those
numbers, read from :meth:`~repro.net.topology.Topology.route` — ``None``
where the pair is partitioned. A pair's path is derived from that table
(:meth:`CycleCache.rows`), so nothing is stored per server pair. The
key is explicit, so a stale answer is structurally impossible; in a
failure-free run the table survives across *all* cycles. (Possession is
not memoized: rarity and holders are array gathers on the possession
matrix.)

Ownership: the :class:`~repro.net.simulator.Simulation` owns one
instance and threads it into each cycle's
:class:`~repro.net.view.ClusterView` (a view built without one
makes its own) and the views derived from it — partition clones and
speculated views read the same topology; each controller shard
(:class:`~repro.core.shardexec.ShardMirror`) owns its own instance.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.topology import ResourceKey, Topology, downlink_key, uplink_key

PathKey = Tuple[int, FrozenSet]


def first_cycle_at_or_after(time_s: float, dt: float) -> int:
    """Smallest cycle index ``c >= 0`` with ``c * dt >= time_s``, exactly.

    All simulator timestamps derive from integer cycle counts through
    this helper so an idle skip never compounds ``now += k*dt`` rounding:
    the comparison is performed on ``c * dt`` itself (the same float an
    executed cycle ``c`` computes), so membership tests like
    "has this job arrived by cycle c" are bit-identical between a loop
    that tests every cycle and a jump that lands directly on ``c``.
    """
    if time_s <= 0.0:
        return 0
    c = int(time_s / dt)
    while c * dt < time_s:
        c += 1
    while c > 0 and (c - 1) * dt >= time_s:
        c -= 1
    return c


class CycleCache:
    """One validity key's resource numbering and DC × DC route table.

    Resources are numbered ``uplink(s)`` as ``s``, ``downlink(s)`` as
    ``n + s`` (server ids of ``names``, ``n`` of them), then the WAN
    links in the topology's order. Rates do not depend on the numbering:
    the greedy fill and the waterfill take minima, the clip sums per
    resource in entry order, and the FPTAS and the LP intern their own
    keys.

    Telemetry (the perf ledger's ``cycle_cache.*``): ``hits`` counts path
    rows served, ``misses`` route tables built, ``flushes`` key changes
    that discard a built table.
    """

    __slots__ = (
        "_key",
        "_names",
        "res_keys",
        "_server_dc",
        "_linked",
        "_dc_of",
        "_routes",
        "hits",
        "misses",
        "flushes",
    )

    def __init__(self) -> None:
        self._key: Optional[PathKey] = None
        self._names: Optional[Sequence[str]] = None
        self.res_keys: List[ResourceKey] = []
        # Per server id, its DC's number (topology order): a list for
        # rows(), an array for reachable().
        self._dc_of: List[int] = []
        self._server_dc: np.ndarray = np.empty(0, dtype=np.int64)
        # ``_routes[a * num_dcs + b]``: DC a's route to DC b as resource
        # numbers, ``None`` where partitioned off; ``_linked`` is its
        # DC × DC "has a route" mask.
        self._routes: List[Optional[Tuple[int, ...]]] = []
        self._linked: np.ndarray = np.empty((0, 0), dtype=bool)
        self.hits: int = 0
        self.misses: int = 0
        self.flushes: int = 0

    def validate(
        self, topology: Topology, failed_links: FrozenSet, names: Sequence[str]
    ) -> "CycleCache":
        """This cache, its table built for ``topology`` less
        ``failed_links`` with servers numbered as in ``names`` —
        rebuilt (and a flush counted) when either moved."""
        key = (topology.epoch, failed_links)
        if key != self._key or names is not self._names:
            if self._names is not None:
                self.flushes += 1
            self._key, self._names = key, names
            self._build(topology, failed_links, names)
        return self

    def _build(
        self, topology: Topology, failed_links: FrozenSet, names: Sequence[str]
    ) -> None:
        n = len(names)
        links = list(topology.links)
        number = {key: 2 * n + i for i, key in enumerate(links)}
        self.res_keys = (
            [uplink_key(s) for s in names] + [downlink_key(s) for s in names] + links
        )
        dcs = list(topology.dcs)
        routes: List[Optional[Tuple[int, ...]]] = []
        for a in dcs:
            for b in dcs:
                try:
                    route = topology.route(a, b, failed_links)
                except ValueError:
                    routes.append(None)
                    continue
                routes.append(tuple([number[key] for key in route]))
        self._routes = routes
        self._linked = np.array(
            [route is not None for route in routes], dtype=bool
        ).reshape(len(dcs), len(dcs))
        dc_number = {dc: i for i, dc in enumerate(dcs)}
        self._dc_of = [dc_number[topology.servers[s].dc] for s in names]
        self._server_dc = np.array(self._dc_of, dtype=np.int64)
        self.misses += 1

    def rows(self, src: Sequence[int], dst: Sequence[int]) -> List[Tuple[int, ...]]:
        """The paths of the ``(src[i], dst[i])`` server-id pairs as rows of
        resource numbers: ``(uplink, *route, downlink)``, ``()`` where the
        DCs are partitioned or the two are one server."""
        dc_of, routes = self._dc_of, self._routes
        width, n = len(self._linked), len(dc_of)
        out = []
        for s, t in zip(src, dst):
            route = routes[dc_of[s] * width + dc_of[t]]
            out.append(() if route is None or s == t else (s, *route, n + t))
        self.hits += len(out)
        return out

    def paths_to(self, dst: int, srcs: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
        """:meth:`rows` of the ``(src, dst)`` pairs of one destination, for
        the ids of ``srcs`` up to the first negative one (padding)."""
        dc_of, routes = self._dc_of, self._routes
        width, to, down = len(self._linked), dc_of[dst], len(dc_of) + dst
        out = []
        for s in srcs:
            if s < 0:
                break
            route = routes[dc_of[s] * width + to]
            out.append(() if route is None or s == dst else (s, *route, down))
        self.hits += len(out)
        return tuple(out)

    def reachable(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Whether each ``(src, dst)`` server-id pair (broadcast) has a
        path — a route between their DCs, and two servers, not one:
        where :meth:`rows` answers a non-empty row."""
        dc_of = self._server_dc
        return self._linked[dc_of[src], dc_of[dst]] & (src != dst)

    def capacity_vector(self, capacities) -> List[float]:
        """``capacities`` by resource number, for the greedy water-fill.

        Lenient: a resource the map lacks has no capacity, which makes
        the paths crossing it unusable (e.g. a link that failed between
        grouping and routing).
        """
        capacity = capacities.get
        return [float(capacity(key, 0.0)) for key in self.res_keys]

    def stats(self) -> Dict[str, int]:
        """Hit/miss/flush counters (the perf ledger's ``cycle_cache.*``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "flushes": self.flushes,
        }


class RoutingWarmStore:
    """Epoch-guarded holder for the router's FPTAS warm-start state.

    Same validity discipline as the route table above: the carried solver
    state (final resource lengths + raw path flows of the previous
    cycle's solve — see :class:`repro.lp.fptas.FPTASWarmState`) is only
    offered back to the solver while ``(topology.epoch, failed_links)``
    is unchanged. A topology edit or failure-set change alters the
    resource universe, so the next solve must start cold.

    The guard here is intentionally coarse; the solver independently
    re-verifies the fine-grained compatibility conditions (ε, resource
    interning order, per-resource capacities) and certifies every warm
    solve against its own dual bound, so a stale store can degrade a
    solve to cold but never corrupt it. The store is owned by the
    :class:`~repro.core.routing.BDSRouter`.
    """

    __slots__ = ("_key", "state", "invalidations", "stores")

    def __init__(self) -> None:
        self._key: Optional[PathKey] = None
        self.state = None
        # Telemetry: how often topology/failure churn dropped the state.
        self.invalidations: int = 0
        self.stores: int = 0

    def validate(self, topology_epoch: int, failed_links: FrozenSet):
        """Return the carried state, or ``None`` if the guard key moved."""
        key = (topology_epoch, failed_links)
        if key != self._key:
            self._key = key
            if self.state is not None:
                self.state = None
                self.invalidations += 1
        return self.state

    def store(self, topology_epoch: int, failed_links: FrozenSet, state) -> None:
        """Record the state a just-finished solve produced under ``key``."""
        self._key = (topology_epoch, failed_links)
        self.state = state
        self.stores += 1
