"""Akamai-style 3-layer overlay multicast (Andreev et al., SPAA'13).

Akamai's design for live streams uses a fixed 3-layer topology: the
*source* forwards data to a small set of *reflectors*, and reflectors send
outgoing streams to the *edge sinks*. The paper's §7 notes the two contrasts
with BDS reproduced here:

* the coarse 3-layer structure explores far fewer overlay paths than BDS's
  unconstrained server-level mesh;
* data delivery is **in order** (a live-streaming requirement), so a slow
  early block delays everything behind it.

Our mapping: one reflector server is designated in each destination DC;
the source DC streams the file to reflectors in block order; every edge
(destination) server then pulls its shard from its DC's reflector, again in
block order.
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


class AkamaiStrategy(OverlayStrategy):
    """Fixed source → reflector → edge dissemination with in-order blocks."""

    # Reflector choice is memoized deterministically per job: no job, no
    # decision, no state moved — the event engine may skip idle cycles.
    decisions_reusable = True

    def __init__(
        self,
        reflectors_per_dc: int = 1,
        window: int = 16,
    ) -> None:
        """
        ``reflectors_per_dc``: reflector servers designated per destination
        DC. ``window``: in-order window — how many of the earliest missing
        blocks may be in flight to one receiver at once (streaming forces
        near-sequential delivery).
        """
        check_positive("reflectors_per_dc", reflectors_per_dc)
        check_positive("window", window)
        self.reflectors_per_dc = reflectors_per_dc
        self.window = window
        # job_id -> dc -> reflector server ids.
        self._reflectors: Dict[str, Dict[str, List[str]]] = {}

    def _reflectors_for(
        self, view: ClusterView, job: MulticastJob
    ) -> Dict[str, List[str]]:
        if job.job_id not in self._reflectors:
            self._reflectors[job.job_id] = {
                dc: [
                    s.server_id
                    for s in view.topology.servers_in(dc)[: self.reflectors_per_dc]
                ]
                for dc in job.dst_dcs
            }
        return self._reflectors[job.job_id]

    def decide(self, view: ClusterView) -> DirectiveBatch:
        batches = []
        for job in view.jobs:
            lens = self.lens(view, job)
            reflectors = [
                [lens.sid_of[r] for r in names]
                for names in self._reflectors_for(view, job).values()
            ]
            rows = [
                self._source_to_reflectors(lens, reflectors),
                self._reflectors_to_edges(lens, reflectors),
            ]
            batches.append(lens.directives(rows))
        return DirectiveBatch.concat(batches, view.store.matrix)

    def _source_to_reflectors(
        self, lens: JobPossession, reflectors: List[List[int]]
    ) -> Rows:
        """Layer 1: stream blocks, in order, from source DC to reflectors.

        Reflector ``i`` of a DC with ``k`` carries the blocks ``≡ i (mod k)``.
        """
        sids, period, phase = np.array(
            [(sid, len(dc), i) for dc in reflectors for i, sid in enumerate(dc)]
        ).T[:, :, None]
        stripe = np.arange(lens.job.num_blocks) % period == phase
        row, idx = first_true(stripe & lens.up[sids] & ~lens.holds(sids), self.window)
        return sids[row, 0], lens.origin[idx], idx

    def _reflectors_to_edges(
        self, lens: JobPossession, reflectors: List[List[int]]
    ) -> Rows:
        """Layer 2: edge servers pull their shard from their DC's reflector."""
        width = max(map(len, reflectors))
        # Per DC (a row), its reflectors by rank; -1 pads a short DC.
        ranks = np.array([dc + [-1] * (width - len(dc)) for dc in reflectors])
        seg, dst, idx = lens.missing()
        edge = np.ones(len(lens.names), dtype=bool)
        edge[ranks[ranks >= 0]] = False  # reflectors: fed by layer 1
        # Whole runs of a server go, so the window is cut on every run.
        rows = np.flatnonzero(head(dst, self.window) & edge[dst])
        dst, idx = dst[rows], idx[rows]
        # A block comes from the first live local reflector holding it.
        return dst, lens.first_holder(ranks[seg[rows]].T, idx), idx
