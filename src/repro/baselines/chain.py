"""Simple chain replication through relay servers (the Fig. 3c strategy).

Data flows along a fixed chain: source DC → destination DC 1 → destination
DC 2 → …, with one designated relay server per DC storing and forwarding
blocks in index order. This is the "naive use of application-level overlay
paths" the paper contrasts with BDS's intelligent multicast overlay: better
than direct unicast (it reuses the relay's bandwidth) but unable to use
multiple bottleneck-disjoint paths at once.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.baselines.base import (
    JobPossession,
    OverlayStrategy,
    Rows,
    first_true,
    head,
)
from repro.net.directive import DirectiveBatch
from repro.net.view import ClusterView
from repro.overlay.job import MulticastJob
from repro.utils.validation import check_positive


class ChainStrategy(OverlayStrategy):
    """Store-and-forward down a fixed DC chain via one relay per DC."""

    # Deterministic chain construction from sorted ids: no job, no
    # decision, no state moved — the event engine may skip idle cycles.
    decisions_reusable = True

    def __init__(self, window: int = 16) -> None:
        """``window``: in-flight block window per hop (in index order)."""
        check_positive("window", window)
        self.window = window
        self._relays: Dict[str, List[str]] = {}  # job_id -> relay chain

    def _chain_for(self, view: ClusterView, job: MulticastJob) -> List[str]:
        """Relay servers: source stripe stays put; one relay per dest DC."""
        if job.job_id not in self._relays:
            self._relays[job.job_id] = [
                view.topology.servers_in(dc)[0].server_id for dc in job.dst_dcs
            ]
        return self._relays[job.job_id]

    def decide(self, view: ClusterView) -> DirectiveBatch:
        batches = []
        for job in view.jobs:
            lens = self.lens(view, job)
            chain = np.array([lens.sid_of[r] for r in self._chain_for(view, job)])
            held = lens.holds(chain[:, None])
            rows = [
                self._feed_chain(lens, chain, held),
                self._fan_out(lens, chain, held),
            ]
            batches.append(lens.directives(rows))
        return DirectiveBatch.concat(batches, view.store.matrix)

    def _feed_chain(
        self, lens: JobPossession, chain: np.ndarray, held: np.ndarray
    ) -> Rows:
        """Move blocks hop by hop along the relay chain, in order.

        A relay asks for the first ``window`` blocks it lacks — from the
        origin holders at hop 0, from the previous relay after that — and
        waits for those the upstream does not have yet. ``held[hop]`` is
        what relay ``chain[hop]`` holds.
        """
        hop = np.flatnonzero(lens.up[chain])
        row, idx = first_true(~held[hop], self.window)
        hop = hop[row]
        upstream = lens.first_holder([np.where(hop > 0, chain[hop - 1], -1)], idx)
        return chain[hop], np.where(hop > 0, upstream, lens.origin[idx]), idx

    def _fan_out(
        self, lens: JobPossession, chain: np.ndarray, held: np.ndarray
    ) -> Rows:
        """Each destination server pulls its shard from its DC's relay:
        the first ``window`` of its missing blocks the relay already holds.
        (A relay's own missing blocks are ones it does not hold.)"""
        seg, dst, idx = lens.missing()
        rows = np.flatnonzero(held[seg, idx])
        rows = rows[head(dst[rows], self.window)]
        return dst[rows], chain[seg[rows]], idx[rows]
