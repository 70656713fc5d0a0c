"""Data blocks: the fine-grained transfer unit of BDS (§4.1).

BDS splits every bulk file into fixed-size blocks (2 MB by default in the
paper) so that different blocks can ride different bottleneck-disjoint
overlay paths simultaneously. This module provides the block abstraction
and file splitting; the router merges blocks that share a server pair
(§5.1's "blocks merging") over its own columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.utils.units import MB
from repro.utils.validation import check_positive

DEFAULT_BLOCK_SIZE = 2 * MB


@dataclass(frozen=True, order=True)
class Block:
    """One block of a multicast job's data file.

    Blocks are ordered by ``(job_id, index)`` so that sorted containers and
    deterministic iteration are cheap.
    """

    job_id: str
    index: int
    size: float
    # Globally unique identifier (hashable). Precomputed: the id is read
    # several times per block per cycle on the controller's hot paths,
    # where a property allocating a fresh tuple each call shows up.
    block_id: Tuple[str, int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_positive("size", self.size)
        if self.index < 0:
            raise ValueError("block index must be >= 0")
        object.__setattr__(self, "block_id", (self.job_id, self.index))


def split_into_blocks(
    job_id: str, total_bytes: float, block_size: float = DEFAULT_BLOCK_SIZE
) -> List[Block]:
    """Split ``total_bytes`` into fixed-size blocks; the tail may be smaller.

    >>> [b.size for b in split_into_blocks("j", 5 * MB, 2 * MB)] == [
    ...     2 * MB, 2 * MB, 1 * MB]
    True
    """
    check_positive("total_bytes", total_bytes)
    check_positive("block_size", block_size)
    blocks: List[Block] = []
    remaining = float(total_bytes)
    index = 0
    while remaining > 1e-9:
        size = min(block_size, remaining)
        blocks.append(Block(job_id=job_id, index=index, size=size))
        remaining -= size
        index += 1
    return blocks
