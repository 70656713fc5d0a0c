"""The scheduling step: generalized rarest-first block selection (§4.3).

Each cycle BDS picks *which* blocks to transfer before deciding *how*.
Inspired by BitTorrent's rarest-first, the scheduler selects the subset of
pending (block, destination server) deliveries whose blocks currently have
the fewest copies cluster-wide, balancing block availability so that the
greedy per-cycle routing step rarely starves any block (§4.4's discussion).

The selection is what shrinks the routing step's search space: only the
selected deliveries become LP commodities.

Candidate (block, destination) pairs live in the static per-(job, DC)
int arrays of the view's :class:`~repro.net.candidates.CandidateTable`;
pending-ness, rarity and the health filters are numpy gathers against
the view's possession matrix — the live one, or the overlay copy a
speculated view (§5.1) reads — and the rarity order is one stable
integer sort. The selection leaves as its int columns — a
:class:`~repro.core.decisions.SelectionBatch`, which is a
``Sequence[ScheduledBlock]`` that builds objects only when read as one —
so the router keeps working in interned-id space. It is, row for row,
the selection of the store-query-per-candidate loop this replaced, which
the tests keep as the oracle ``select_rarest_first``.
"""

from __future__ import annotations

import time as _time
from typing import List, Tuple

import numpy as np

from repro.core.decisions import SelectionBatch
from repro.net.simulator import ClusterView


class RarestFirstScheduler:
    """Selects pending deliveries in ascending order of block duplicates."""

    def __init__(
        self, max_blocks_per_cycle: int = 0, use_relays: bool = True
    ) -> None:
        """``max_blocks_per_cycle``: cap on selections per cycle (0 = all).

        A finite cap bounds the routing problem size for enormous jobs; the
        paper instead bounds work through the per-cycle volume constraint
        (Eq. 3), which the router's demand caps implement — both are
        supported. ``use_relays`` additionally schedules block placements
        onto a job's relay DCs (at lower priority than real deliveries).
        """
        if max_blocks_per_cycle < 0:
            raise ValueError("max_blocks_per_cycle must be >= 0")
        self.max_blocks_per_cycle = max_blocks_per_cycle
        self.use_relays = use_relays

    def select(self, view: ClusterView) -> SelectionBatch:
        """The cycle's ``w`` assignments, rarest blocks first.

        Only deliveries with at least one healthy source and a healthy
        destination are selected (a failed agent drops out of the decision
        space, §5.3). Relay placements sort after all real deliveries.

        Per candidate group: one possession gather decides pending-ness
        (matrix bit test for deliveries, DC copy-count for relays), one
        ``dup`` gather supplies rarity, boolean masks apply the failure
        filters, and the surviving rows of all groups are ordered by a
        single stable sort on a packed integer key equal to the tuple
        key ``(is_relay, -priority, duplicates, block index)`` —
        stability supplies the insertion-order tie-break, and the group
        concatenation order is the enumeration order (jobs, then each
        job's destination DCs, then its relay DCs, ascending block index).

        Groups compact their ``alive`` rows when a gather over the
        table's own matrix finds them >50% possession-dead: real
        possession is monotone during a run, so dead rows never
        resurrect (see :mod:`repro.net.candidates`). A copy that is only
        speculated may never arrive, so an overlay's gather compacts
        nothing.
        """
        started = _time.perf_counter()
        table = view.candidates
        matrix = view.store.matrix
        compact = matrix is table.matrix
        groups_by_job = table.groups_by_job
        failed = view.failed_agents
        failed_sids: List[int] = []
        failed_lut = None
        if failed:
            server_ids = matrix.server_ids
            failed_sids = sorted(
                server_ids[s] for s in failed if s in server_ids
            )
            if failed_sids:
                failed_lut = np.zeros(matrix.num_servers, dtype=bool)
                failed_lut[failed_sids] = True
        dup_all = matrix.dup
        dc_counts = matrix.dc_counts
        use_relays = self.use_relays

        # Per-surviving-row columns, one array per group, concatenated
        # once. Fields that are constant within a group (slot, relay flag,
        # priority, destination DC, job slot) are never materialized as
        # columns: the sort key folds them in as scalars, and the capped
        # winners recover their group slot by a searchsorted over the
        # group offsets — at 10^7 candidate rows those constant columns
        # and their concatenations were the largest memory-traffic term
        # of a cold cycle.
        idx_cols: List[np.ndarray] = []
        dst_cols: List[np.ndarray] = []
        dup_cols: List[np.ndarray] = []
        gid_cols: List[np.ndarray] = []
        grp_relay: List[int] = []
        grp_prio: List[int] = []
        grp_dup_max: List[int] = []
        grp_idx_max: List[int] = []
        grp_job_slot: List[int] = []
        grp_place: List[Tuple] = []  # (job, destination DC, is relay)

        for job_slot, job in enumerate(view.jobs):
            groups = groups_by_job[job.job_id]
            neg_priority = -getattr(job, "priority", 0)
            for group in groups:
                if group.is_relay and not use_relays:
                    continue
                rows = group.alive
                n = rows.size
                if n == 0:
                    continue
                # ``alive`` only ever shrinks, so a full-size row set is
                # the identity permutation — use the group's arrays
                # directly instead of gathering copies (the common case on
                # a cold cycle; downstream only reads them).
                full = n == group.gids.size
                gids = group.gids if full else group.gids[rows]
                if group.is_relay:
                    dead = dc_counts[group.dc_gid, gids] > 0
                else:
                    dead = matrix.test_many(
                        group.dst_sids if full else group.dst_sids[rows], gids
                    )
                ndead = int(np.count_nonzero(dead))
                if ndead:
                    keep = ~dead
                    rows = rows[keep]
                    gids = gids[keep]
                    full = False
                    if compact and ndead * 2 > n:
                        group.alive = rows
                    if rows.size == 0:
                        continue
                dst = group.dst_sids if full else group.dst_sids[rows]
                idx = group.indices if full else group.indices[rows]
                dup = dup_all[gids]
                if failed_lut is not None:
                    # Eligible sources = holders minus failed agents; the
                    # destination cannot be a holder of a pending block,
                    # so the count never double-discounts it.
                    held_by_failed = np.zeros(gids.size, dtype=np.int64)
                    for fsid in failed_sids:
                        held_by_failed += matrix.test_row_many(fsid, gids)
                    ok = ~failed_lut[dst] & (dup - held_by_failed > 0)
                else:
                    ok = dup > 0
                if not ok.all():
                    dst = dst[ok]
                    if dst.size == 0:
                        continue
                    idx = idx[ok]
                    dup = dup[ok]
                    gids = gids[ok]
                grp_job_slot.append(job_slot)
                grp_place.append((job, group.dc, group.is_relay))
                idx_cols.append(idx)
                dst_cols.append(dst)
                dup_cols.append(dup)
                gid_cols.append(gids)
                grp_relay.append(1 if group.is_relay else 0)
                grp_prio.append(neg_priority)
                grp_dup_max.append(int(dup.max()))
                grp_idx_max.append(int(idx.max()))

        jobs = list(view.jobs)
        if not grp_place:
            empty = np.empty(0, dtype=np.int64)
            self.last_runtime = _time.perf_counter() - started
            return SelectionBatch(
                jobs, empty, empty, empty, empty, empty, empty, [],
                matrix.server_names,
            )

        idx_col = np.concatenate(idx_cols)
        dst_col = np.concatenate(dst_cols)
        dup_col = np.concatenate(dup_cols)
        gid_col = np.concatenate(gid_cols)
        sizes = np.fromiter(
            (a.size for a in idx_cols), dtype=np.int64, count=len(idx_cols)
        )
        ends = np.cumsum(sizes)

        # One stable sort on a packed integer key ≡ the scalar ascending
        # tuple sort (relay, -priority, duplicates, block index) with
        # insertion order breaking ties. The (relay, priority) fields are
        # constant within a group, so each group's key is built in place
        # as ``dup * idx_range + idx`` plus one scalar prefix. Field
        # widths are data-dependent; if the packed key cannot fit 62
        # bits, fall back to a (stable) lexsort over the separate
        # columns.
        pmin = min(grp_prio)
        prio_range = max(grp_prio) - pmin + 1
        dup_range = max(grp_dup_max) + 1
        idx_range = max(grp_idx_max) + 1
        if 2 * prio_range * dup_range * idx_range < (1 << 62):
            key_cols: List[np.ndarray] = []
            for g in range(len(grp_place)):
                prefix = (
                    (grp_relay[g] * prio_range + (grp_prio[g] - pmin))
                    * dup_range
                    * idx_range
                )
                key = dup_cols[g] * idx_range
                key += idx_cols[g]
                if prefix:
                    key += prefix
                key_cols.append(key)
            order = np.argsort(np.concatenate(key_cols), kind="stable")
        else:  # pragma: no cover - needs ~2^62 distinct key values
            relay_col = np.repeat(
                np.asarray(grp_relay, dtype=np.int64), sizes
            )
            prio_col = np.repeat(np.asarray(grp_prio, dtype=np.int64), sizes)
            order = np.lexsort((idx_col, dup_col, prio_col, relay_col))
        if self.max_blocks_per_cycle:
            order = order[: self.max_blocks_per_cycle]

        # Winners recover their group slot from the offsets; the per-slot
        # constants are then one tiny gather instead of full columns, and
        # the selection leaves as its columns — no per-row Python.
        slots = np.searchsorted(ends, order, side="right")
        batch = SelectionBatch(
            jobs,
            gid_col[order],
            idx_col[order],
            dst_col[order],
            np.asarray(grp_job_slot, dtype=np.int64)[slots],
            dup_col[order],
            slots,
            grp_place,
            matrix.server_names,
        )
        self.last_runtime = _time.perf_counter() - started
        return batch
