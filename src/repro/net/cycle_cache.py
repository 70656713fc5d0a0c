"""Per-cycle memoization for the controller/simulator hot path.

The router and the simulator re-derive the WAN path of the same
*(holder, destination)* pairs cycle after cycle. :class:`CycleCache`
memoizes ``flow_resources(src, dst)`` results, valid while
``(topology.epoch, failed_links)`` is unchanged — an explicit validity
key, so stale answers are structurally impossible; in a failure-free run
the table survives across *all* cycles. The router's twins of it — the
dense ``reach`` table and the resource-id table (``ResourceKey -> int``
plus ``(src, dst) -> tuple of ints``, what the greedy water-fill indexes
its residual vector with) — share its key and its flush. (Possession is
not memoized: rarity and holders are array gathers on the possession
matrix.)

Ownership: the :class:`~repro.net.simulator.Simulation` owns one
instance and threads it into each cycle's
:class:`~repro.net.view.ClusterView` (a view built without one
makes its own) and the views derived from it — partition clones and
speculated views read the same topology; each controller shard
(:class:`~repro.core.shardexec.ShardMirror`) additionally owns its *own*
persistent instance scoped to its jobs, so its tables are O(pairs/k)
per shard rather than cluster wide.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.net.topology import ResourceKey

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
    """Epoch-guarded memo tables for the per-cycle path queries."""

    __slots__ = (
        "_path_key",
        "paths",
        "reach",
        "res_ids",
        "res_keys",
        "path_ids",
        "hits",
        "misses",
        "flushes",
    )

    def __init__(self) -> None:
        self._path_key: Optional[PathKey] = None
        # (src_server, dst_server) -> resource tuple, or None when the
        # destination is unreachable (partitioned off).
        self.paths: Dict[
            Tuple[str, str], Optional[Tuple[ResourceKey, ...]]
        ] = {}
        # Dense twin of ``paths`` for the router's columnar build: the
        # int8 table ``reach[dst, j]`` of "does server ``dc_order[j]`` have
        # a path to dst" (1 yes, 0 no, -1 not probed yet). Same validity
        # key; flushed together with ``paths``.
        self.reach: Optional[np.ndarray] = None
        # Integer twin of ``paths`` for the greedy water-fill: resources
        # numbered in first-appearance order (``res_keys`` is the inverse
        # of ``res_ids``) and each pair's path as a tuple of those numbers
        # — ``()`` when the destination is unreachable. Same validity key;
        # flushed together with ``paths``.
        self.res_ids: Dict[ResourceKey, int] = {}
        self.res_keys: List[ResourceKey] = []
        self.path_ids: Dict[Tuple[str, str], Tuple[int, ...]] = {}
        # Telemetry (coarse; bumped by ClusterView.flow_resources).
        self.hits: int = 0
        self.misses: int = 0
        self.flushes: int = 0

    # -- validity gates ----------------------------------------------------

    def validate_paths(
        self, topology_epoch: int, failed_links: FrozenSet
    ) -> Dict[Tuple[str, str], Optional[Tuple[ResourceKey, ...]]]:
        """The path memo table, flushed if topology/failures changed."""
        key = (topology_epoch, failed_links)
        if key != self._path_key:
            self._path_key = key
            if self.paths or self.reach is not None or self.path_ids:
                self.paths = {}
                self.reach = None
                self.res_ids = {}
                self.res_keys = []
                self.path_ids = {}
                self.flushes += 1
        return self.paths

    def reach_table(
        self, topology_epoch: int, failed_links: FrozenSet, dc_order: np.ndarray
    ) -> np.ndarray:
        """The reachability table, flushed with the path memo.

        Column ``j`` is server ``dc_order[j]``; a server is never its own
        source (0).
        """
        self.validate_paths(topology_epoch, failed_links)
        if self.reach is None:
            self.reach = np.full((len(dc_order),) * 2, -1, dtype=np.int8)
            self.reach[dc_order, np.arange(len(dc_order))] = 0
        return self.reach

    def intern_path(
        self,
        pair: Tuple[str, str],
        resources: Optional[Tuple[ResourceKey, ...]],
    ) -> Tuple[int, ...]:
        """Record ``pair``'s path in the resource-id table; returns its ids.

        ``resources`` is what ``flow_resources(*pair)`` answered under the
        key :meth:`validate_paths` last saw (``None``: unreachable).
        """
        res_ids = self.res_ids
        ids = []
        for resource in resources or ():
            number = res_ids.get(resource)
            if number is None:
                number = res_ids[resource] = len(self.res_keys)
                self.res_keys.append(resource)
            ids.append(number)
        path = self.path_ids[pair] = tuple(ids)
        return path

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

    Same validity discipline as the path memo above: the carried solver
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
