"""Direct replication: no overlay at all (the Fig. 3b strategy).

The source DC unicasts the data separately to every destination DC over the
network-layer WAN path. Destination servers pull their shard blocks straight
from the origin holders; copies that already arrived elsewhere are never
reused. This is the baseline every overlay improves on.
"""

from __future__ import annotations

from repro.baselines.base import OverlayStrategy, head
from repro.net.directive import DirectiveBatch
from repro.net.view import ClusterView
from repro.utils.validation import check_positive


class DirectStrategy(OverlayStrategy):
    """Source-DC-only senders; one unicast stream per destination server."""

    # Pure function of possession/failures/active jobs — no RNG, no
    # cycle-keyed behavior — so the event engine may skip idle cycles.
    decisions_reusable = True

    def __init__(self, window: int = 32) -> None:
        """``window``: maximum blocks requested per receiver per cycle."""
        check_positive("window", window)
        self.window = window

    def decide(self, view: ClusterView) -> DirectiveBatch:
        batches = []
        for job in view.jobs:
            lens = self.lens(view, job)
            _seg, dst, idx = lens.missing()
            keep = head(dst, self.window)
            dst, idx = dst[keep], idx[keep]
            # Only origin-DC holders count: direct replication reuses
            # nothing that already arrived elsewhere.
            batches.append(lens.directives([(dst, lens.origin[idx], idx)]))
        return DirectiveBatch.concat(batches, view.store.matrix)
