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

from bisect import bisect_right
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.baselines.base import (
    CHUNK, JobPossession, OverlayStrategy, Rows, draw, head, run_bounds,
)
from repro.net.directive import DirectiveBatch
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

    def decide(self, view: ClusterView) -> DirectiveBatch:
        epoch = view.cycle // self.epoch_cycles
        refresh = epoch != self._last_epoch
        self._last_epoch = epoch

        batches = []
        for job in view.jobs:
            lens = self.lens(view, job)
            _seg, dst, idx = lens.missing()
            if not dst.size:
                continue
            bounds = run_bounds(dst)
            receivers = dst[bounds[:-1]]
            keys = [(job.job_id, r) for r in receivers.tolist()]
            redraw = [key for key in keys if refresh or key not in self._neighbors]
            if redraw:
                # An epoch's local view: a random ``view_size`` of the job's holders.
                sources = lens.holders()
                for key in redraw:
                    self._neighbors[key] = draw(
                        self._rng, sources[sources != key[1]], self.view_size
                    )
            # A draw per receiver and sender it may ask, whatever they hold.
            picks = self._rng.random((len(keys), self.fetch_parallelism))
            neighbors = [self._neighbors[key] for key in keys]
            rows = self._fetch(lens, receivers, idx, bounds, neighbors, picks)
            batches.append(lens.directives(rows))
        return DirectiveBatch.concat(batches, view.store.matrix)

    def _fetch(
        self, lens: JobPossession, receivers: np.ndarray, idx: np.ndarray,
        bounds: np.ndarray, neighbors: Sequence[np.ndarray], picks: np.ndarray,
    ) -> List[Rows]:
        """Request missing blocks current neighbors hold: ``(dst, src, idx)`` rows.

        Receiver ``k`` is ``receivers[k]``, lacks ``idx[bounds[k]:bounds[k
        + 1]]`` (ascending) and asks those of ``neighbors[k]`` that are up.
        It walks its blocks in index order (global rarity is the
        controller's privilege) and asks for each the first neighbor
        already asked that holds it; where none does, and fewer than
        ``fetch_parallelism`` are asked, its ``n``-th new sender is entry
        ``⌊picks[k, n] · h⌋`` of the ``h`` that hold the block. A sender
        gets at most ``blocks_per_request`` blocks. Blocks no neighbor
        holds wait for a future epoch — the source of the straggler tail.

        Receivers are dealt in lockstep, as many at once as have at most
        :data:`CHUNK` rows (or one with more), their neighbors' bits read
        :data:`CHUNK` pairs at a time. An asked set is fixed between two
        new senders, so each of at most ``fetch_parallelism`` phases finds
        every receiver's next block no asked neighbor holds. Rows come out
        by receiver, then sender in the order asked, then block.
        """
        width, parallel, never = self.view_size, self.fetch_parallelism, len(idx)
        # Padding and failed neighbors name the receiver: it holds none of its rows.
        table = np.repeat(receivers[:, None], width, axis=1)
        sizes = np.array([len(n) for n in neighbors])
        table[np.arange(width) < sizes[:, None]] = np.concatenate(neighbors)
        table = np.where(lens.up[table], table, receivers[:, None])
        # Per receiver and turn: the sender's position and the row it was asked at.
        sender = np.zeros((len(neighbors), parallel), dtype=np.int32)
        asked = np.full(sender.shape, never, dtype=np.int32)
        cuts = bounds.tolist()
        dealt: List[Rows] = []
        lo, step = 0, max(1, CHUNK // width)
        while lo < len(cuts) - 1:
            hi = max(lo + 1, bisect_right(cuts, cuts[lo] + CHUNK) - 1)
            first, last = cuts[lo], cuts[hi]
            rec = np.repeat(np.arange(lo, hi), np.diff(bounds[lo : hi + 1]))
            rows = np.arange(last - first)
            holds = np.empty((len(rows), width), dtype=bool)
            for a in range(0, len(rows), step):  # CHUNK pairs at a time
                part = slice(a, a + step)
                holds[part] = lens.has(table[rec[part]], idx[first:last][part, None])
            fresh = holds.any(axis=1)  # held by a neighbor, by none asked yet
            starts, ends = bounds[lo:hi] - first, bounds[lo + 1 : hi + 1] - first
            # Per row: the position and turn of its sender so far, the first
            # neighbor holding it among those asked by then.
            best, turn = np.full(len(rows), width), np.zeros_like(rows)
            for n in range(parallel):
                seen = np.cumsum(fresh)
                at = np.searchsorted(seen, seen[starts] - fresh[starts] + 1)
                new = np.flatnonzero(at < ends)  # receivers with a fresh row
                if not new.size:
                    break
                hold = holds[at[new]]
                h = hold.sum(axis=1)
                nth = np.minimum((picks[lo + new, n] * h).astype(np.int64), h - 1)
                pick = (hold.cumsum(axis=1) > nth[:, None]).argmax(axis=1)
                sender[lo + new, n], asked[lo + new, n] = pick, at[new]
                mine = sender[rec, n]
                took = holds[rows, mine] & (asked[rec, n] <= rows)
                fresh &= ~took
                better = took & (mine < best)
                best[better], turn[better] = mine[better], n
            sent = np.flatnonzero(best < width)
            key = (rec * parallel + turn)[sent]  # (receiver, sender in the order asked)
            order = np.argsort(key, kind="stable")
            sent = sent[order[head(key[order], self.blocks_per_request)]]
            rec, turn, row = rec[sent], turn[sent], first + sent
            dealt.append((receivers[rec], table[rec, sender[rec, turn]], idx[row]))
            lo = hi
        return dealt
