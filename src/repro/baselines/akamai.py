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

from repro.baselines.base import JobPossession, OverlayStrategy, Rows, head
from repro.net.simulator import ClusterView, TransferDirective
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

    def decide(self, view: ClusterView) -> List[TransferDirective]:
        directives: List[TransferDirective] = []
        for job in view.jobs:
            lens = self.lens(view, job)
            reflectors = {
                dc: [lens.sid_of[r] for r in names]
                for dc, names in self._reflectors_for(view, job).items()
            }
            rows = self._source_to_reflectors(lens, reflectors)
            rows += self._reflectors_to_edges(lens, reflectors)
            directives.extend(lens.directives(rows))
        return directives

    def _source_to_reflectors(
        self, lens: JobPossession, reflectors: Dict[str, List[int]]
    ) -> List[Rows]:
        """Layer 1: stream blocks, in order, from source DC to reflectors."""
        rows = []
        stripe = np.arange(len(lens.job.blocks))
        for dc_reflectors in reflectors.values():
            for i, reflector in enumerate(dc_reflectors):
                if not lens.up[reflector]:
                    continue
                # Reflector i of a DC carries the i-th stripe of blocks.
                wanted = ~lens.has(reflector) & (stripe % len(dc_reflectors) == i)
                idx = np.flatnonzero(wanted)[: self.window]
                rows.append((reflector, lens.origin[idx], idx))
        return rows

    def _reflectors_to_edges(
        self, lens: JobPossession, reflectors: Dict[str, List[int]]
    ) -> List[Rows]:
        """Layer 2: edge servers pull their shard from their DC's reflector."""
        rows = []
        edge = np.ones(len(lens.names), dtype=bool)
        edge[sum(reflectors.values(), [])] = False  # reflectors: fed by layer 1
        for dc, dst, idx in lens.missing():
            dst, idx = head(dst[edge[dst]], idx[edge[dst]], self.window)
            # A block comes from the first live local reflector holding it.
            rows.append((dst, lens.first_holder(reflectors[dc], idx), idx))
        return rows
