"""Decision records produced by the controller each cycle.

The paper's output per cycle is the 2-tuple ⟨w, f⟩: ``w_b,s`` (is server s
the destination of block b this cycle) and ``f_b,p`` (bandwidth allocated
to b on path p). :class:`ScheduledBlock` captures a ``w`` entry;
:class:`ControlDecision` carries the final directives (each encodes its
``f`` as a rate cap) plus timing diagnostics used by the scalability
benchmarks (Fig. 11a, 13a).
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.directive import TransferDirective
from repro.overlay.blocks import Block
from repro.overlay.job import MulticastJob

BlockId = Tuple[str, int]


@dataclass(frozen=True)
class ScheduledBlock:
    """One scheduling-step selection: deliver ``block`` to ``dst_server``.

    ``is_relay`` marks placements onto relay DCs (§2.2 Type I path
    diversity); relays never count toward job completion and are scheduled
    at lower priority than real deliveries.
    """

    job_id: str
    block: Block
    dst_dc: str
    dst_server: str
    duplicates: int  # cluster-wide copy count when selected (rarity)
    is_relay: bool = False


class SelectionBatch(abc.Sequence):
    """A scheduler selection as int columns: a ``Sequence[ScheduledBlock]``.

    What the vectorized scheduling kernel returns. Row ``i`` of the
    parallel int64 arrays describes selection ``i`` in the possession
    matrix's interned id space (see
    :class:`repro.overlay.store.PossessionMatrix`); the router groups,
    sizes and deals selections as index segments over these columns and
    never asks for an object. ``len()`` reads the columns;
    :class:`ScheduledBlock` objects are built (once, all rows) only when
    something indexes, iterates or compares the sequence —
    ``core/formulation.py``, tests.
    """

    __slots__ = (
        "jobs", "gids", "indices", "dst_sids", "job_slots", "duplicates",
        "slots", "slot_places", "server_names", "_objects",
    )

    def __init__(
        self,
        jobs: List[MulticastJob],
        gids: np.ndarray,
        indices: np.ndarray,
        dst_sids: np.ndarray,
        job_slots: np.ndarray,
        duplicates: np.ndarray,
        slots: np.ndarray,
        slot_places: List[Tuple[MulticastJob, str, bool]],
        server_names: Sequence[str],
    ) -> None:
        #: The view's job list; ``job_slots`` indexes into it.
        self.jobs = jobs
        #: Per-row interned block column id.
        self.gids = gids
        #: Per-row block index within its job.
        self.indices = indices
        #: Per-row destination server id.
        self.dst_sids = dst_sids
        #: Per-row index into ``jobs``.
        self.job_slots = job_slots
        #: Per-row cluster-wide copy count when selected (rarity).
        self.duplicates = duplicates
        #: Per-row index into ``slot_places``: the (job, destination DC,
        #: is-relay) constants of the candidate group the row came from.
        self.slots = slots
        self.slot_places = slot_places
        #: Server id -> name (the matrix's interning order).
        self.server_names = server_names
        self._objects: Optional[List[ScheduledBlock]] = None

    def __len__(self) -> int:
        return len(self.gids)

    def _materialized(self) -> List[ScheduledBlock]:
        objects = self._objects
        if objects is None:
            names = self.server_names
            places = self.slot_places
            objects = []
            for slot, index, dst, duplicates in zip(
                self.slots.tolist(),
                self.indices.tolist(),
                self.dst_sids.tolist(),
                self.duplicates.tolist(),
            ):
                job, dst_dc, is_relay = places[slot]
                objects.append(
                    ScheduledBlock(
                        job_id=job.job_id,
                        block=job.blocks[index],
                        dst_dc=dst_dc,
                        dst_server=names[dst],
                        duplicates=duplicates,
                        is_relay=is_relay,
                    )
                )
            self._objects = objects
        return objects

    def __getitem__(self, item):
        return self._materialized()[item]

    def __iter__(self) -> Iterator[ScheduledBlock]:
        return iter(self._materialized())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, SelectionBatch)):
            return self._materialized() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SelectionBatch({self._materialized()!r})"


@dataclass
class ControlDecision:
    """The controller's output for one cycle."""

    cycle: int
    #: The emitted directives (the router's ``DirectiveBatch``).
    directives: Sequence[TransferDirective] = field(default_factory=list)
    scheduled_blocks: int = 0
    num_commodities: int = 0
    schedule_runtime: float = 0.0
    routing_runtime: float = 0.0
    objective: float = 0.0  # total allocated bytes/s (Eq. 5 value)
    # Routing-solver telemetry (FPTAS backend; zero/empty otherwise):
    # flow pushes, Fleischer phases, and how the solve started ("cold",
    # "warm", "reuse", "cold-fallback").
    routing_iterations: int = 0
    routing_phases: int = 0
    routing_warm_start: str = ""
    # Sharded control plane telemetry (BDSConfig.shards > 1; zeros on
    # the single-controller path). shard_count is the configured shard
    # count; the walls are the max/mean per-shard schedule+route
    # wall-clock this cycle over the shards that decided (those with an
    # active job); reconcile_runtime is the outer WAN-capacity waterfill
    # over all shards' directives; and reconciled_directives counts
    # directives whose rate cap the reconciliation pass actually lowered.
    shard_count: int = 0
    shard_wall_max: float = 0.0
    shard_wall_mean: float = 0.0
    reconcile_runtime: float = 0.0
    reconciled_directives: int = 0
    # Shard-local state telemetry: the max bytes of the arrays a shard
    # owns (its candidate table; possession is the store's, counted
    # once) over the shards that decided, and the summed structural size
    # of the jobs those shards saw for the first time.
    shard_state_bytes: int = 0
    shard_payload_bytes: int = 0

    @classmethod
    def fold(
        cls,
        cycle: int,
        directives: Sequence[TransferDirective],
        shards: Sequence["ControlDecision"],
        shard_count: int,
        reconcile_runtime: float,
        reconciled_directives: int,
    ) -> "ControlDecision":
        """The sharded control plane's decision: the ``shards`` that
        decided (each with its own wall as ``shard_wall_max``) folded —
        counts, runtimes and payload bytes summed, walls as max and mean,
        state bytes as max, warm starts ``"mixed"`` where they differ —
        beside ``directives`` as emitted and the plane's own telemetry."""
        walls = [s.shard_wall_max for s in shards]
        warm_starts = {s.routing_warm_start for s in shards} - {""}
        return cls(
            cycle=cycle,
            directives=directives,
            scheduled_blocks=sum(s.scheduled_blocks for s in shards),
            num_commodities=sum(s.num_commodities for s in shards),
            schedule_runtime=math.fsum(s.schedule_runtime for s in shards),
            routing_runtime=math.fsum(s.routing_runtime for s in shards),
            objective=math.fsum(s.objective for s in shards),
            routing_iterations=sum(s.routing_iterations for s in shards),
            routing_phases=sum(s.routing_phases for s in shards),
            routing_warm_start=(
                "mixed" if len(warm_starts) > 1 else "".join(warm_starts)
            ),
            shard_count=shard_count,
            shard_wall_max=max(walls, default=0.0),
            shard_wall_mean=math.fsum(walls) / len(walls) if walls else 0.0,
            reconcile_runtime=reconcile_runtime,
            reconciled_directives=reconciled_directives,
            shard_state_bytes=max((s.shard_state_bytes for s in shards), default=0),
            shard_payload_bytes=sum(s.shard_payload_bytes for s in shards),
        )
