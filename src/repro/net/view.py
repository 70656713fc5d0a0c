"""What the controller pulls from the agents each cycle (§5.1, Fig. 8).

A :class:`ClusterView` is one cycle's read-only status of the cluster;
:class:`PartialBytes` holds the bytes of blocks still in transfer.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.net.candidates import CandidateTable
from repro.net.cycle_cache import CycleCache
from repro.net.directive import BlockId
from repro.net.topology import ResourceKey, Topology
from repro.overlay.job import MulticastJob
from repro.overlay.store import PossessionMatrix, PossessionReader


class ClusterView:
    """Read-only snapshot handed to strategies each cycle.

    This is the "global view" a centralized controller enjoys; decentralized
    baselines deliberately use only slices of it (their local views).

    **Ownership**: the view borrows the simulator's live structures —
    ``bulk_capacities`` and the partial-bytes store are *not* copied. A
    view is valid for the cycle it was built for; strategies must not
    mutate these mappings or hold a view across cycles (the next cycle
    reuses and mutates them in place).

    Possession is read from ``store.matrix`` and nowhere else: the
    scheduler, the router, the baselines' lenses and the accessors below
    all gather from it through the static per-(job, DC) arrays of a
    :class:`~repro.net.candidates.CandidateTable`. The simulator threads
    in its table and its persistent :class:`CycleCache`; a hand-built
    view may omit either and owns one of its own, built on first use —
    with identical results.
    """

    def __init__(
        self,
        topology: Topology,
        store: PossessionReader,
        jobs: Sequence[MulticastJob],
        cycle: int,
        time: float,
        cycle_seconds: float,
        bulk_capacities: Mapping[ResourceKey, float],
        failed_agents: Set[str],
        controller_available: bool,
        partial_bytes: PartialBytes,
        failed_links: frozenset = frozenset(),
        cache: Optional[CycleCache] = None,
        candidates: Optional[CandidateTable] = None,
    ) -> None:
        self.topology = topology
        self.store = store
        self.jobs = list(jobs)
        self.cycle = cycle
        self.time = time
        self.cycle_seconds = cycle_seconds
        self.bulk_capacities = bulk_capacities
        self.failed_agents = set(failed_agents)
        self.controller_available = controller_available
        self.failed_links = frozenset(failed_links)
        self.partial_bytes = partial_bytes
        self._cache = cache if cache is not None else CycleCache()
        self._candidates = candidates

    @property
    def candidates(self) -> CandidateTable:
        """The candidate (block, destination) arrays of this view's jobs."""
        if self._candidates is None:
            self._candidates = CandidateTable(self.jobs, self.store.matrix)
        return self._candidates

    def replace(self, **changes) -> "ClusterView":
        """This view with ``changes`` to its constructor arguments.

        What the controller decides on besides the simulator's view: the
        §5.3 partition clone (more ``failed_agents``), the §5.1
        speculated view (a ``store`` with the expected deliveries landed)
        and a shard's (its bucket of ``jobs``, its own ``cache`` and
        ``candidates``). Everything not changed is this view's own, the
        :class:`CycleCache` and the candidate table included.
        """
        arguments = dict(
            topology=self.topology,
            store=self.store,
            jobs=self.jobs,
            cycle=self.cycle,
            time=self.time,
            cycle_seconds=self.cycle_seconds,
            bulk_capacities=self.bulk_capacities,
            failed_agents=self.failed_agents,
            controller_available=self.controller_available,
            partial_bytes=self.partial_bytes,
            failed_links=self.failed_links,
            cache=self._cache,
            candidates=self._candidates,
        )
        arguments.update(changes)
        return ClusterView(**arguments)

    def flow_resources(
        self, src_server: str, dst_server: str
    ) -> Optional[Tuple[ResourceKey, ...]]:
        """Failure-aware flow resources, or ``None`` when partitioned off.

        Paths detour around failed WAN links (§5.3). The name API, for
        strategies that build named commodities; the hot path reads
        :meth:`route_table` by server id instead.
        """
        try:
            return self.topology.flow_resources(
                src_server, dst_server, self.failed_links
            )
        except ValueError:
            return None

    def route_table(self) -> CycleCache:
        """The cycle cache, its route table valid for this view's
        topology and failed links, in the possession matrix's server ids."""
        return self._cache.validate(
            self.topology, self.failed_links, self.store.matrix.server_names
        )

    def path_rows(
        self, src: Sequence[int], dst: Sequence[int]
    ) -> List[Tuple[int, ...]]:
        """The failure-aware paths of the ``(src[i], dst[i])`` server-id
        pairs as rows of resource numbers of the cycle cache, ``()`` when
        partitioned off."""
        return self.route_table().rows(src, dst)

    def received_bytes(self, block_id: BlockId, dst_server: str) -> float:
        """Bytes of ``block_id`` already buffered at ``dst_server``."""
        matrix = self.partial_bytes.matrix
        gid, sid = matrix.gid_of(block_id), matrix.server_ids.get(dst_server)
        if gid is None or sid is None:
            return 0.0
        return self.partial_bytes.get(self.partial_bytes.key(gid, sid), 0.0)

    def eligible_sources(self, block_id: BlockId) -> List[str]:
        """Healthy servers currently holding the block, in name order."""
        failed = self.failed_agents
        return sorted(s for s in self.store.holders(block_id) if s not in failed)


class PartialBytes(dict):
    """Bytes buffered at destinations, of blocks whose transfer is underway.

    One entry per (block, destination server) with bytes buffered, keyed
    ``gid * num_servers + sid`` in the ids of ``matrix``, the live
    possession matrix. The simulator owns it and writes it after each
    cycle's progress walk; views lend it to strategies, read only.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: PossessionMatrix) -> None:
        super().__init__()
        self.matrix = matrix

    def key(self, gids, sids):
        """The key of block column(s) ``gids`` at server id(s) ``sids``."""
        return gids * self.matrix.num_servers + sids

    def gather(self, keys: np.ndarray) -> Optional[np.ndarray]:
        """Buffered bytes of each key of ``keys`` (0.0 where none);
        ``None`` when the store is empty, so callers can skip the
        subtraction (``size - 0.0 == size``). One sort of the store, one
        ``searchsorted`` of ``keys``.
        """
        count = len(self)
        if not count:
            return None
        probe = np.fromiter(self, dtype=np.int64, count=count)
        order = probe.argsort()
        probe = probe[order]
        pos = np.minimum(probe.searchsorted(keys), count - 1)
        values = np.fromiter(self.values(), dtype=float, count=count)
        return values[order[pos]] * (probe[pos] == keys)  # bytes are >= 0
