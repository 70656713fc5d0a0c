"""Multicast jobs: one bulk file replicated from a source DC to many DCs.

A job owns its blocks and the *striping* of those blocks across servers,
both as formulas — no per-block object or table is stored:

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

from collections import abc
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.overlay.blocks import Block, DEFAULT_BLOCK_SIZE
from repro.net.topology import Topology
from repro.utils.validation import check_non_negative, check_positive

BlockId = Tuple[str, int]


def _split(total_bytes: float, block_size: float) -> Tuple[int, float]:
    """The full blocks and the tail (0.0 for none) that subtracting
    ``block_size`` from ``float(total_bytes)`` while over 1e-9 bytes
    remain leaves: one integer ``divmod`` when every remainder is exact
    in a float (both sizes are multiples of a power of two the total is
    fewer than 2**53 of, as integral sizes are), else that loop."""
    remaining = float(total_bytes)
    if type(block_size) in (int, float) and block_size > 1e-9:
        t_num, t_den = remaining.as_integer_ratio()
        b_num, b_den = block_size.as_integer_ratio()
        den = max(t_den, b_den)  # both powers of two
        t, b = t_num * (den // t_den), b_num * (den // b_den)
        if t // ((t | b) & -(t | b)) < 2**53:
            full, rest = divmod(t, b)
            tail = rest / den
            return full, tail if tail > 1e-9 else 0.0
    full = 0
    while remaining > 1e-9 and not remaining < block_size:
        remaining -= block_size
        full += 1
    return full, remaining if remaining > 1e-9 else 0.0


class JobBlocks(abc.Sequence):
    """A job's blocks as a ``Sequence[Block]`` that builds each
    :class:`Block` only when read: ``block_size`` bytes, the ``tail``
    for a last partial block."""

    __slots__ = ("_job",)

    def __init__(self, job: "MulticastJob") -> None:
        self._job = job

    def __len__(self) -> int:
        return self._job.num_blocks

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self[i] for i in range(*item.indices(len(self)))]
        index = range(len(self))[item]
        job = self._job
        return Block(
            job.job_id, index, job.block_size if index < job._full else job.tail
        )


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

    def __post_init__(self) -> None:
        check_positive("total_bytes", self.total_bytes)
        check_positive("block_size", self.block_size)
        check_non_negative("arrival_time", self.arrival_time)
        self.dst_dcs = tuple(self.dst_dcs)
        self.relay_dcs = tuple(self.relay_dcs)
        if not self.dst_dcs:
            raise ValueError("a multicast job needs at least one destination DC")
        for name, dcs in (("dst_dcs", self.dst_dcs), ("relay_dcs", self.relay_dcs)):
            repeated = sorted({dc for dc in dcs if dcs.count(dc) > 1})
            if repeated:
                raise ValueError(f"{name} repeats DC(s) {repeated}")
        if self.src_dc in self.dst_dcs:
            raise ValueError("source DC cannot also be a destination")
        overlap = set(self.relay_dcs) & ({self.src_dc} | set(self.dst_dcs))
        if overlap:
            raise ValueError(f"relay DCs overlap endpoints: {sorted(overlap)}")
        self._full, self.tail = _split(self.total_bytes, self.block_size)
        self.num_blocks = self._full + (self.tail > 0)
        self.blocks: Sequence[Block] = JobBlocks(self)
        # DC -> the ids of its servers that get a block, in stripe order.
        self._stripes: Dict[str, Tuple[str, ...]] = {}
        self._block_sizes: Optional[np.ndarray] = None

    # -- striping ----------------------------------------------------------

    def bind(self, topology: Topology) -> None:
        """Record every involved DC's servers in stripe order.

        Must be called once before the job enters a simulation. Striping is
        round-robin by block index, the layout used by Baidu's setup in the
        paper's measurement study: block ``i`` lies on the DC's server
        ``i mod len(servers)``. That is a formula, so binding stores
        O(servers) per DC and no per-block table; servers past the first
        ``num_blocks`` get no block and are not recorded.
        """
        stripes: Dict[str, Tuple[str, ...]] = {}
        for dc in (self.src_dc,) + self.dst_dcs + self.relay_dcs:
            servers = topology.servers_in(dc)
            if not servers:
                raise ValueError(f"DC {dc!r} has no servers")
            stripes[dc] = tuple(s.server_id for s in servers[: self.num_blocks])
        self._stripes = stripes

    def is_bound(self) -> bool:
        return bool(self._stripes)

    def _stripe_servers(self, dc: str) -> Tuple[str, ...]:
        try:
            return self._stripes[dc]
        except KeyError:
            if not self._stripes:
                raise RuntimeError(
                    f"job {self.job_id!r} not bound to a topology; call bind()"
                ) from None
            raise KeyError(f"DC {dc!r} is not in job {self.job_id!r}") from None

    def stripe(self, dc: str) -> Tuple[Tuple[str, ...], np.ndarray]:
        """``dc``'s stripe: its server ids in stripe order (only servers
        that get a block) and, as an int64 array aligned with ``blocks``,
        each block's slot in them — block ``i`` lies on
        ``servers[slots[i]]``."""
        servers = self._stripe_servers(dc)
        index = np.arange(self.num_blocks, dtype=np.int64)
        return servers, self.stripe_slot(index, len(servers))

    @staticmethod
    def stripe_slot(index, width):
        """The slot of block ``index`` in a stripe of ``width`` servers
        (ints or int arrays alike): the one place striping is written."""
        return index % width

    def assigned_server(self, dc: str, block_id: BlockId) -> str:
        """The server in ``dc`` that block ``block_id`` is striped onto."""
        servers = self._stripe_servers(dc)
        return servers[
            self.stripe_slot(self.block_by_id(block_id).index, len(servers))
        ]

    # -- bookkeeping ---------------------------------------------------------

    def block_sizes(self) -> np.ndarray:
        """Block sizes as a float64 array aligned with ``blocks`` (cached)."""
        if self._block_sizes is None:
            self._block_sizes = np.full(self.num_blocks, float(self.block_size))
            if self.tail:
                self._block_sizes[-1] = self.tail
        return self._block_sizes

    def block_by_id(self, block_id: BlockId) -> Block:
        job_id, index = block_id
        if job_id != self.job_id or not 0 <= index < self.num_blocks:
            raise KeyError(f"block {block_id!r} not in job {self.job_id!r}")
        return self.blocks[index]
