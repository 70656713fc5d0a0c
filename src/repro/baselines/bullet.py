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

from typing import Dict, List, Tuple

import numpy as np

from repro.baselines.base import JobPossession, OverlayStrategy, draw
from repro.net.simulator import ClusterView, TransferDirective
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

    def decide(self, view: ClusterView) -> List[TransferDirective]:
        epoch = view.cycle // self.refresh_interval
        refresh = epoch != self._last_epoch
        self._last_epoch = epoch

        directives: List[TransferDirective] = []
        for job in view.jobs:
            lens = self.lens(view, job)
            for dst, missing in lens.missing_by_server():
                key = (job.job_id, dst)
                if refresh or key not in self._peers:
                    # One RanSub epoch: a random subset of the servers
                    # holding at least one missing block (the summary
                    # tickets RanSub distributes), of which the node keeps
                    # up to ``num_peers``.
                    subset = draw(self._rng, lens.holders(missing), self.ransub_size)
                    self._peers[key] = subset[: self.num_peers]
                peers = self._peers[key]
                partition = self._partition_disjoint(lens, missing, peers)
                directives.extend(
                    lens.directive(dst, peer, blocks)
                    for peer, blocks in zip(peers.tolist(), partition)
                    if blocks
                )
        return directives

    def _partition_disjoint(
        self, lens: JobPossession, missing: np.ndarray, peers: np.ndarray
    ) -> List[List[int]]:
        """Assign each missing block to exactly one peer that holds it.

        Blocks rotate across peers (round-robin over eligible ones) so the
        data received from different senders is disjoint — Bullet's core
        mechanism. Returns one block list per peer.
        """
        partition: List[List[int]] = [[] for _ in peers]
        turn = full = 0
        for block, holders in lens.holder_lists(peers, missing):
            eligible = [
                p for p in holders if len(partition[p]) < self.blocks_per_peer
            ]
            if not eligible:
                continue
            bucket = partition[eligible[turn % len(eligible)]]
            bucket.append(block)
            turn += 1
            if len(bucket) == self.blocks_per_peer:
                full += 1
                if full == len(partition):
                    break  # every peer is asked for all it may send
        return partition
