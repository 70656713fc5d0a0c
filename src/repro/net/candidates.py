"""Static candidate arrays for the scheduling kernel.

The rarest-first scheduler's decision space is fixed at job-bind time:
every (block, destination DC) pair of every job is a potential delivery,
and every (block, relay DC) pair a potential relay placement. What varies
per cycle is only *which* of those candidates are still pending and which
pass the health filters — both answerable straight from the possession
matrix with array gathers.

:class:`CandidateTable` materializes that decision space once per
simulation as parallel int arrays (block column id, block index, assigned
destination server id), grouped per (job, DC): for each job, destination
DCs first (in ``job.dst_dcs`` order), then relay DCs, each group in
ascending block index. ``select`` concatenates the groups' still-alive
rows in that order, which is the tie-breaker of the stable rarity sort.

Groups track an ``alive`` row subset that is compacted lazily: when more
than half of a group's alive rows turn out possession-dead during a
cycle's gather over the table's own matrix, the dead rows are dropped
for good. Possession is monotone while a simulation runs (the simulator
never drops copies mid-run; disk-loss enters as *agent* failure), so a
dead candidate can never come back. Steady-state per-cycle cost
therefore tracks remaining work, not total state size.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.overlay.job import MulticastJob
from repro.overlay.store import PossessionMatrix


class CandidateGroup:
    """All candidate rows for one (job, DC) — deliveries or relays."""

    __slots__ = (
        "job",
        "dc",
        "dc_gid",
        "is_relay",
        "gids",
        "indices",
        "dst_sids",
        "alive",
    )

    def __init__(
        self,
        job: MulticastJob,
        dc: str,
        dc_gid: int,
        is_relay: bool,
        gids: np.ndarray,
        indices: np.ndarray,
        dst_sids: np.ndarray,
    ) -> None:
        self.job = job
        self.dc = dc
        self.dc_gid = dc_gid
        self.is_relay = is_relay
        self.gids = gids
        self.indices = indices
        self.dst_sids = dst_sids
        # Row positions not yet known to be possession-dead. Starts full;
        # the kernel shrinks it when a cycle's gather finds >50% dead.
        self.alive = np.arange(len(indices), dtype=np.int64)


class CandidateTable:
    """Per-job candidate groups, keyed by job id.

    Built once after initial seeding (every job's span is interned into
    the matrix by then; :meth:`PossessionMatrix.intern_job` is still
    called, a no-op for a known job, so the table never depends on
    seeding order).
    Owned by the :class:`~repro.net.simulator.Simulation` and shared by
    every cycle's view — including partition clones, whose extra failed
    agents are a per-cycle mask, not a table property, and speculated
    views, whose overlay matrix shares this one's id space (their
    gathers read the overlay's bits and compact nothing: ``matrix``
    names the one whose dead rows stay dead).

    The table also grows incrementally: each shard of a sharded
    controller starts an empty table over the same live matrix and calls
    :meth:`ensure_job` for each job the first time the shard sees it
    (the group arrays are those a build-at-once table holds), so a
    shard's candidate memory is O(its partition's pairs).
    """

    def __init__(
        self, jobs: Sequence[MulticastJob], matrix: PossessionMatrix
    ) -> None:
        self.matrix = matrix
        self.groups_by_job: Dict[str, List[CandidateGroup]] = {}
        #: Per job, its groups' ``dst_sids`` as the rows of one array (in
        #: group order), so a pass over every DC of a job is one gather.
        self.assigned: Dict[str, np.ndarray] = {}
        for job in jobs:
            self.ensure_job(job)

    def ensure_job(self, job: MulticastJob) -> None:
        """Build the job's candidate groups if not already present."""
        if job.job_id in self.groups_by_job:
            return
        matrix = self.matrix
        server_ids = matrix.server_ids
        indices = np.arange(job.num_blocks, dtype=np.int64)
        gids = matrix.intern_job(job.job_id, job.num_blocks) + indices
        dcs = [(d, False) for d in job.dst_dcs] + [(d, True) for d in job.relay_dcs]
        stripes = [job.stripe(dc) for dc, _is_relay in dcs]
        assigned = np.array(
            [
                np.array([server_ids[s] for s in servers], dtype=np.int64)[slots]
                for servers, slots in stripes
            ]
        )
        groups = [
            CandidateGroup(
                job=job,
                dc=dc,
                dc_gid=matrix.dc_ids[dc],
                is_relay=is_relay,
                gids=gids,
                indices=indices,
                dst_sids=dst_sids,
            )
            for (dc, is_relay), dst_sids in zip(dcs, assigned)
        ]
        self.groups_by_job[job.job_id] = groups
        self.assigned[job.job_id] = assigned

    def state_bytes(self) -> int:
        """Bytes held by the candidate arrays.

        Per group: the shared gids/indices arrays are counted once per
        job via their group references (they alias across a job's
        groups, but the estimate deliberately counts the per-group view
        the kernel touches — a stable, monotone overapproximation that
        shrinks with ``alive`` compaction) and the per-group dst/alive
        arrays.
        """
        total = 0
        for groups in self.groups_by_job.values():
            for g in groups:
                total += int(
                    g.gids.nbytes
                    + g.indices.nbytes
                    + g.dst_sids.nbytes
                    + g.alive.nbytes
                )
        return total
