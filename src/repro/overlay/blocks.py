"""Data blocks: the fine-grained transfer unit of BDS (§4.1).

BDS splits every bulk file into fixed-size blocks (2 MB by default in the
paper) so that different blocks can ride different bottleneck-disjoint
overlay paths simultaneously. This module provides the block abstraction;
a job keeps its split as a formula (:class:`repro.overlay.job.MulticastJob`)
and the router merges blocks that share a server pair (§5.1's "blocks
merging") over its own columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

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
