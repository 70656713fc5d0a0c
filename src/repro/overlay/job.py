"""Multicast jobs: one bulk file replicated from a source DC to many DCs.

A job owns its blocks and the *striping* of those blocks across servers:

* in the **source DC** the file starts evenly spread over the DC's servers
  (exactly the Fig. 5 setup: "this 30GB file was evenly stored across all
  these 640 servers");
* in each **destination DC** every block has an assigned destination server,
  and the DC holds a full copy once all assigned servers received their
  shards.

Optional *relay DCs* may store blocks opportunistically without counting
toward completion, enabling Type I overlay paths through non-destination
DCs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.overlay.blocks import Block, DEFAULT_BLOCK_SIZE, split_into_blocks
from repro.net.topology import Topology
from repro.utils.validation import check_non_negative, check_positive

BlockId = Tuple[str, int]


@dataclass
class MulticastJob:
    """An inter-DC multicast transfer request.

    Parameters mirror the BDS API described in §5.4: source DC, destination
    DCs, data size (a pointer to bulk data in production; a byte count
    here), and a start time.
    """

    job_id: str
    src_dc: str
    dst_dcs: Tuple[str, ...]
    total_bytes: float
    block_size: float = DEFAULT_BLOCK_SIZE
    arrival_time: float = 0.0
    relay_dcs: Tuple[str, ...] = ()
    # Scheduling priority: higher values are served before lower ones when
    # jobs contend for the same links (0 = default bulk priority).
    priority: int = 0
    # Per-job control granularity (§5.4 API): a job may request a coarser
    # decision cadence than the simulation's ΔT. Must be a positive
    # multiple of ``SimConfig.cycle_seconds``; ``None`` inherits ΔT. The
    # simulator quantizes the job's arrival up to its own cadence so all
    # completion-time math stays on the global integer cycle grid.
    cycle_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        check_positive("total_bytes", self.total_bytes)
        check_positive("block_size", self.block_size)
        check_non_negative("arrival_time", self.arrival_time)
        if self.cycle_seconds is not None:
            check_positive("cycle_seconds", self.cycle_seconds)
        self.dst_dcs = tuple(self.dst_dcs)
        self.relay_dcs = tuple(self.relay_dcs)
        if not self.dst_dcs:
            raise ValueError("a multicast job needs at least one destination DC")
        if self.src_dc in self.dst_dcs:
            raise ValueError("source DC cannot also be a destination")
        overlap = set(self.relay_dcs) & ({self.src_dc} | set(self.dst_dcs))
        if overlap:
            raise ValueError(f"relay DCs overlap endpoints: {sorted(overlap)}")
        self.blocks: List[Block] = split_into_blocks(
            self.job_id, self.total_bytes, self.block_size
        )
        self._assignment: Dict[Tuple[str, BlockId], str] = {}
        self._block_sizes: Optional[np.ndarray] = None

    # -- striping ----------------------------------------------------------

    def bind(self, topology: Topology) -> None:
        """Compute block-to-server striping for every involved DC.

        Must be called once before the job enters a simulation. Striping is
        round-robin by block index, the layout used by Baidu's setup in the
        paper's measurement study.
        """
        for dc in (self.src_dc,) + self.dst_dcs + self.relay_dcs:
            servers = topology.servers_in(dc)
            if not servers:
                raise ValueError(f"DC {dc!r} has no servers")
            for block in self.blocks:
                server = servers[block.index % len(servers)]
                self._assignment[(dc, block.block_id)] = server.server_id

    def is_bound(self) -> bool:
        return bool(self._assignment)

    def assigned_server(self, dc: str, block_id: BlockId) -> str:
        """The server in ``dc`` that block ``block_id`` is striped onto."""
        try:
            return self._assignment[(dc, block_id)]
        except KeyError:
            if not self._assignment:
                raise RuntimeError(
                    f"job {self.job_id!r} not bound to a topology; call bind()"
                ) from None
            raise

    def initial_placement(self) -> Dict[str, List[Block]]:
        """Blocks initially present on each source-DC server."""
        if not self._assignment:
            raise RuntimeError(f"job {self.job_id!r} not bound; call bind() first")
        placement: Dict[str, List[Block]] = {}
        for block in self.blocks:
            server = self.assigned_server(self.src_dc, block.block_id)
            placement.setdefault(server, []).append(block)
        return placement

    def destination_servers(self, dc: str) -> Dict[str, List[Block]]:
        """Shard map for one destination (or relay) DC: server -> blocks."""
        shard: Dict[str, List[Block]] = {}
        for block in self.blocks:
            server = self.assigned_server(dc, block.block_id)
            shard.setdefault(server, []).append(block)
        return shard

    # -- bookkeeping ---------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> np.ndarray:
        """Block sizes as a float64 array aligned with ``blocks`` (cached)."""
        if self._block_sizes is None:
            self._block_sizes = np.array(
                [b.size for b in self.blocks], dtype=np.float64
            )
        return self._block_sizes

    def block_by_id(self, block_id: BlockId) -> Block:
        job_id, index = block_id
        if job_id != self.job_id or not 0 <= index < len(self.blocks):
            raise KeyError(f"block {block_id!r} not in job {self.job_id!r}")
        return self.blocks[index]
