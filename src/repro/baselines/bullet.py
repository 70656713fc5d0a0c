"""Bullet: an overlay mesh with RanSub random subsets (Kostic et al., SOSP'03).

Bullet lets geo-distributed nodes self-organize into a mesh: each node
periodically receives a *random subset* of other nodes (the RanSub
mechanism) and picks sending peers from it; peers then send **disjoint**
data, so a receiver never downloads the same block twice. The key contrast
with BDS (paper §7): decisions remain local, so while the mesh avoids
duplicate transmission, it still cannot balance global block availability
or avoid uplink hotspots.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.baselines.base import (
    CHUNK,
    JobPossession,
    OverlayStrategy,
    Rows,
    draw,
    run_bounds,
)
from repro.net.directive import DirectiveBatch
from repro.net.view import ClusterView
from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import check_positive


class BulletStrategy(OverlayStrategy):
    """Mesh overlay: RanSub peer sampling + disjoint block partitions."""


    def __init__(
        self,
        ransub_size: int = 10,
        num_peers: int = 4,
        refresh_interval: int = 5,
        blocks_per_peer: int = 8,
        seed: SeedLike = None,
    ) -> None:
        """
        ``ransub_size``: size of the random subset delivered per epoch.
        ``num_peers``: sending peers a node keeps from that subset.
        ``refresh_interval``: cycles between RanSub epochs.
        ``blocks_per_peer``: request batch size per sender per cycle.
        """
        check_positive("ransub_size", ransub_size)
        check_positive("num_peers", num_peers)
        check_positive("refresh_interval", refresh_interval)
        check_positive("blocks_per_peer", blocks_per_peer)
        self.ransub_size = ransub_size
        self.num_peers = num_peers
        self.refresh_interval = refresh_interval
        self.blocks_per_peer = blocks_per_peer
        self._rng = make_rng(seed)
        # (job_id, receiver id) -> current sending peer ids.
        self._peers: Dict[Tuple[str, int], np.ndarray] = {}
        self._last_epoch = -1

    def decide(self, view: ClusterView) -> DirectiveBatch:
        epoch = view.cycle // self.refresh_interval
        refresh = epoch != self._last_epoch
        self._last_epoch = epoch

        batches = []
        for job in view.jobs:
            lens = self.lens(view, job)
            _seg, dst, idx = lens.missing()
            if not dst.size:
                continue
            bounds = run_bounds(dst)
            keys = [(job.job_id, r) for r in dst[bounds[:-1]].tolist()]
            redraw = [
                k for k, key in enumerate(keys) if refresh or key not in self._peers
            ]
            self._ransub(lens, idx, bounds, keys, redraw)
            peers = [self._peers[key] for key in keys]
            rows = self._partition_disjoint(lens, dst, idx, bounds, peers)
            batches.append(lens.directives([rows]))
        return DirectiveBatch.concat(batches, view.store.matrix)

    def _ransub(
        self,
        lens: JobPossession,
        idx: np.ndarray,
        bounds: np.ndarray,
        keys: List[Tuple[str, int]],
        redraw: List[int],
    ) -> None:
        """One RanSub epoch for each receiver of ``redraw`` (positions in
        ``keys`` and among the runs of ``idx`` between ``bounds``): a
        random subset of the servers holding at least one of its missing
        blocks (the summary tickets RanSub distributes), of which the
        node keeps up to ``num_peers``. The pools are found for every
        receiver at once (and not at all when none is redrawn); the draws
        are made one by one, in order."""
        pools = lens.holders_by_run(idx, bounds.tolist(), redraw)
        for k, pool in zip(redraw, pools):
            subset = draw(self._rng, pool, self.ransub_size)
            self._peers[keys[k]] = subset[: self.num_peers]

    def _partition_disjoint(
        self,
        lens: JobPossession,
        dst: np.ndarray,
        idx: np.ndarray,
        bounds: np.ndarray,
        peers: Sequence[np.ndarray],
    ) -> Rows:
        """Assign each receiver's missing blocks to its peers, each block
        to exactly one peer that holds it: ``(dst, src, idx)`` rows.

        Receiver ``k`` has the rows ``bounds[k]:bounds[k + 1]`` of ``dst``
        and ``idx`` (blocks ascending) and the sending peers ``peers[k]``.
        Its blocks rotate across the peers that hold them and may take
        more (round-robin over eligible ones), so the data received from
        different senders is disjoint — Bullet's core mechanism — until
        every peer is asked for ``blocks_per_peer`` blocks.

        All receivers are dealt in lockstep. Between two rows at which
        one of a receiver's buckets fills, the eligible peers of each row
        are fixed, so a phase deals every receiver's rows up to and
        including its next such row at once; the turn and the counts
        carry over into its next phase. A receiver is dealt a window of
        ``num_peers × blocks_per_peer`` rows at a time (all it could
        take, were every row eligible), and windows go to as many
        receivers at once as make :data:`CHUNK` rows.
        Rows come out by receiver, then peer, then block.
        """
        width, cap = self.num_peers, self.blocks_per_peer
        window = width * cap
        step = max(1, CHUNK // window)
        table = np.full((len(peers), width), -1)
        sizes = np.array([len(p) for p in peers])
        table[_ranges(np.zeros_like(sizes), sizes)] = np.concatenate(peers)
        # A padding slot counts as a full bucket: it is never eligible.
        full = table < 0
        taken = np.zeros(table.shape, dtype=np.int64)
        turn = np.zeros(len(peers), dtype=np.int64)
        pos, end = bounds[:-1].copy(), bounds[1:]
        dealt = [(idx[:0], idx[:0])]  # (row, receiver × width + peer) pairs
        live = np.flatnonzero(~full.all(axis=1))
        while live.size:
            chunk = live[:step]
            hi = np.minimum(pos[chunk] + window, end[chunk])
            owner, row = _ranges(pos[chunk], hi)
            rec = chunk[owner]
            holds = lens.has(table[rec], idx[row][:, None])
            some = holds.any(axis=1)  # a row no peer holds is never dealt
            rec, row, holds = rec[some], row[some], holds[some]
            start = np.searchsorted(rec, rec)  # each row's receiver's first
            at = np.arange(len(row))
            while True:
                eligible = holds & ~full[rec] & (row >= pos[rec])[:, None]
                choices = eligible.sum(axis=1)
                ready = choices > 0
                before = np.cumsum(ready) - ready
                nth = (turn[rec] + before - before[start]) % np.maximum(choices, 1)
                pick = (eligible.cumsum(axis=1) > nth[:, None]).argmax(axis=1)
                hit = ready[:, None] & (pick[:, None] == np.arange(width))
                run = hit.cumsum(axis=0)
                run -= (run - hit)[start]
                count = taken[rec, pick] + run[at, pick]  # of the pick, this row in
                fills = np.flatnonzero(ready & (count == cap))
                fills = fills[np.unique(rec[fills], return_index=True)[1]]
                full[rec[fills], pick[fills]] = True
                # A phase ends at the row that fills a bucket, that row in.
                pos[chunk] = hi
                pos[rec[fills]] = row[fills] + 1
                keep = ready & (row < pos[rec])
                dealt.append((row[keep], rec[keep] * width + pick[keep]))
                np.add.at(taken, (rec[keep], pick[keep]), 1)
                turn += np.bincount(rec[keep], minlength=len(turn))
                if not fills.size:
                    break
            live = live[~full[live].all(axis=1) & (pos[live] < end[live])]
        rows, slots = (np.concatenate(column) for column in zip(*dealt))
        order = np.lexsort((rows, slots))
        rows = rows[order]
        return dst[rows], table.reshape(-1)[slots[order]], idx[rows]


def _ranges(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(k, i)`` for every ``lo[k] <= i < hi[k]``, by ``k``, then ``i``."""
    size = hi - lo
    owner = np.repeat(np.arange(len(lo)), size)
    return owner, np.arange(size.sum()) + (lo - np.cumsum(size) + size)[owner]
