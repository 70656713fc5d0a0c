"""Gingko: Baidu's receiver-driven decentralized overlay (§2.3).

The paper describes Gingko as a "receiver-driven decentralized overlay
multicast protocol": when DCs request a file, data flows through stages of
intermediate servers, and each receiver picks its senders *locally*, seeing
only a subset of the available data sources. Two consequences the paper
measures, both reproduced here:

* **Limitation 1 — inefficient local adaptation**: each receiver only
  knows a small, periodically refreshed *neighbor set* of servers, and can
  only fetch blocks its current neighbors happen to hold. Because a bulk
  file is striped across many servers, a receiver's neighbors cover only a
  slice of the blocks it needs; receivers idle waiting for useful
  neighbors, pile onto the same uplinks, and a long straggler tail forms —
  the ~4.75× gap from the ideal in Fig. 5.
* **Limitation 2 — no traffic isolation**: Gingko does not respect the
  safety threshold, so bursty bulk transfers push links past it (Fig. 6).

Gingko also serves as BDS's decentralized *fallback* when the controller is
unreachable (§5.3).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.baselines.base import JobPossession, OverlayStrategy, draw
from repro.net.directive import TransferDirective
from repro.net.view import ClusterView
from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import check_positive


class GingkoStrategy(OverlayStrategy):
    """Receiver-driven fetching over limited, slowly-refreshing local views."""


    def __init__(
        self,
        view_size: int = 10,
        epoch_cycles: int = 5,
        fetch_parallelism: int = 3,
        blocks_per_request: int = 8,
        seed: SeedLike = None,
    ) -> None:
        """
        ``view_size``: neighbors a receiver knows at a time — the paper's
        "individual servers only see a subset of available data sources".
        ``epoch_cycles``: cycles between neighbor-set refreshes (gossip is
        slow relative to the transfer). ``fetch_parallelism``: concurrent
        senders used per cycle. ``blocks_per_request``: blocks batched per
        sender per cycle.
        """
        check_positive("view_size", view_size)
        check_positive("epoch_cycles", epoch_cycles)
        check_positive("fetch_parallelism", fetch_parallelism)
        check_positive("blocks_per_request", blocks_per_request)
        self.view_size = view_size
        self.epoch_cycles = epoch_cycles
        self.fetch_parallelism = fetch_parallelism
        self.blocks_per_request = blocks_per_request
        self._rng = make_rng(seed)
        # (job_id, receiver id) -> neighbor server ids known this epoch.
        self._neighbors: Dict[Tuple[str, int], np.ndarray] = {}
        self._last_epoch = -1

    def decide(self, view: ClusterView) -> List[TransferDirective]:
        epoch = view.cycle // self.epoch_cycles
        refresh = epoch != self._last_epoch
        self._last_epoch = epoch

        directives: List[TransferDirective] = []
        for job in view.jobs:
            lens = self.lens(view, job)
            sources = lens.holders()
            for dst, missing in lens.missing_by_server():
                key = (job.job_id, dst)
                if refresh or key not in self._neighbors:
                    # One epoch's local view: the receiver hears through
                    # gossip of every healthy server holding any block of
                    # the job, keeps a random ``view_size`` of them, and is
                    # stuck with that choice until the next epoch.
                    self._neighbors[key] = draw(
                        self._rng, sources[sources != dst], self.view_size
                    )
                neighbors = self._neighbors[key]
                neighbors = neighbors[lens.up[neighbors]]
                fetched = self._fetch_from_neighbors(lens, missing, neighbors)
                directives.extend(
                    lens.directive(dst, neighbors[sender], blocks)
                    for sender, blocks in fetched.items()
                )
        return directives

    def _fetch_from_neighbors(
        self, lens: JobPossession, missing: np.ndarray, neighbors: np.ndarray
    ) -> Dict[int, List[int]]:
        """Request missing blocks that current neighbors actually hold.

        Receivers walk their missing blocks in index order (they do not
        know global rarity — that is the controller's privilege) and ask
        the first neighbor holding each block, up to ``fetch_parallelism``
        senders and ``blocks_per_request`` blocks per sender. Blocks no
        neighbor holds simply wait for a future epoch — the source of the
        straggler tail. Returns sender (position in ``neighbors``) →
        blocks, senders in the order they were first asked.
        """
        fetched: Dict[int, List[int]] = {}
        full = 0
        for block, holders in lens.holder_lists(neighbors, missing):
            pick = next((h for h in holders if h in fetched), None)
            if pick is None:
                if len(fetched) >= self.fetch_parallelism:
                    continue
                pick = holders[int(self._rng.integers(len(holders)))]
                fetched[pick] = []
            bucket = fetched[pick]
            if len(bucket) < self.blocks_per_request:
                bucket.append(block)
                if len(bucket) == self.blocks_per_request:
                    full += 1
                    if full == self.fetch_parallelism:
                        break  # every sender is asked for all it may send
        return fetched
