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

from typing import Dict, List, Optional, Sequence

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

    Built once after initial seeding (all of a job's blocks are interned
    into the matrix by then; :meth:`PossessionMatrix.intern` is still
    called defensively so the table never depends on seeding order).
    Owned by the :class:`~repro.net.simulator.Simulation` and shared by
    every cycle's view — including partition clones, whose extra failed
    agents are a per-cycle mask, not a table property, and speculated
    views, whose overlay matrix shares this one's id space (their
    gathers read the overlay's bits and compact nothing: ``matrix``
    names the one whose dead rows stay dead).

    The table also grows incrementally: a sharded controller's
    partition-scoped mirrors start empty and :meth:`ensure_job` each job
    the first time its shard sees it (the group arrays are identical to
    a build-at-once table — only the interned gid numbering differs with
    arrival order, and nothing downstream compares gids across jobs), so
    a mirror's candidate memory is O(its partition's pairs).
    """

    def __init__(
        self, jobs: Sequence[MulticastJob], matrix: PossessionMatrix
    ) -> None:
        self.matrix = matrix
        self.groups_by_job: Dict[str, List[CandidateGroup]] = {}
        for job in jobs:
            self.ensure_job(job)

    def ensure_job(
        self, job: MulticastJob, gids: Optional[np.ndarray] = None
    ) -> None:
        """Build the job's candidate groups if not already present.

        ``gids`` lets a caller that just bulk-interned the job's blocks
        (shard mirrors via :meth:`PossessionMatrix.intern_block_range`)
        hand the column ids over directly, skipping the per-block intern
        loop on the cold path.
        """
        if job.job_id in self.groups_by_job:
            return
        matrix = self.matrix
        server_ids = matrix.server_ids
        if gids is None:
            gids = np.fromiter(
                (matrix.intern(b.block_id) for b in job.blocks),
                dtype=np.int64,
                count=len(job.blocks),
            )
        indices = np.arange(len(job.blocks), dtype=np.int64)
        groups: List[CandidateGroup] = []
        for dc, is_relay in [(d, False) for d in job.dst_dcs] + [
            (d, True) for d in job.relay_dcs
        ]:
            dst_sids = self._striped_sids(job, dc)
            if dst_sids is None:
                dst_sids = np.fromiter(
                    (
                        server_ids[job.assigned_server(dc, b.block_id)]
                        for b in job.blocks
                    ),
                    dtype=np.int64,
                    count=len(job.blocks),
                )
            groups.append(
                CandidateGroup(
                    job=job,
                    dc=dc,
                    dc_gid=matrix.dc_ids[dc],
                    is_relay=is_relay,
                    gids=gids,
                    indices=indices,
                    dst_sids=dst_sids,
                )
            )
        self.groups_by_job[job.job_id] = groups

    def _striped_sids(
        self, job: MulticastJob, dc: str
    ) -> Optional[np.ndarray]:
        """Vectorized per-block destination sids via striping periodicity.

        :meth:`MulticastJob.bind` stripes round-robin by block index
        (``servers[index % len(servers)]``), so the per-block assigned
        server repeats with period = the DC's server count. Probing the
        assignment until the first server recurs recovers that pattern
        with O(servers-per-DC) lookups instead of O(blocks); the pattern
        is then verified at the last and middle block (and the repeat
        point itself) before use. Returns ``None`` — caller falls back
        to the exact per-block loop — if any probe disagrees, so a
        hypothetical non-round-robin layout stays correct, just slower.
        """
        blocks = job.blocks
        n = len(blocks)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        server_ids = self.matrix.server_ids
        assigned = job.assigned_server
        first = server_ids[assigned(dc, blocks[0].block_id)]
        pattern: List[int] = [first]
        for k in range(1, n):
            sid = server_ids[assigned(dc, blocks[k].block_id)]
            if sid == first:
                break
            pattern.append(sid)
        period = len(pattern)
        if period >= n:
            return np.asarray(pattern, dtype=np.int64)
        for probe in (period, n // 2, n - 1):
            if (
                server_ids[assigned(dc, blocks[probe].block_id)]
                != pattern[probe % period]
            ):
                return None
        pat = np.asarray(pattern, dtype=np.int64)
        return pat[np.arange(n, dtype=np.int64) % period]

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
