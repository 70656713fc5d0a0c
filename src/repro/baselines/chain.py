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

from repro.baselines.base import JobPossession, OverlayStrategy, Rows, head
from repro.net.simulator import ClusterView, TransferDirective
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

    def decide(self, view: ClusterView) -> List[TransferDirective]:
        directives: List[TransferDirective] = []
        for job in view.jobs:
            lens = self.lens(view, job)
            chain = [lens.sid_of[r] for r in self._chain_for(view, job)]
            rows = self._feed_chain(lens, chain) + self._fan_out(lens, chain)
            directives.extend(lens.directives(rows))
        return directives

    def _feed_chain(self, lens: JobPossession, chain: List[int]) -> List[Rows]:
        """Move blocks hop by hop along the relay chain, in order.

        A relay asks for the first ``window`` blocks it lacks — from the
        origin holders at hop 0, from the previous relay after that — and
        waits for those the upstream does not have yet.
        """
        rows = []
        for hop, relay in enumerate(chain):
            if not lens.up[relay]:
                continue
            idx = np.flatnonzero(~lens.has(relay))[: self.window]
            upstream = chain[hop - 1 : hop]
            src = lens.first_holder(upstream, idx) if hop else lens.origin[idx]
            rows.append((relay, src, idx))
        return rows

    def _fan_out(self, lens: JobPossession, chain: List[int]) -> List[Rows]:
        """Each destination server pulls its shard from its DC's relay:
        the first ``window`` of its missing blocks the relay already holds."""
        rows = []
        relay_of = dict(zip(lens.job.dst_dcs, chain))
        for dc, dst, idx in lens.missing():
            relay = relay_of[dc]
            held = (dst != relay) & lens.has(relay, idx)
            dst, idx = head(dst[held], idx[held], self.window)
            rows.append((dst, relay, idx))
        return rows
