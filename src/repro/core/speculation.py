"""Non-blocking updates via speculated delivery status (§5.1).

While the controller computes a new decision, the previous cycle's
transfers keep running (agents are never blocked on the controller). The
controller therefore feeds its algorithm not the *reported* delivery state
but a *speculated* one: for every in-flight transfer it assumes the bytes
that will land during the decision window have landed.

:func:`speculate` reads the previous cycle's
:class:`~repro.net.directive.DirectiveBatch` as its columns, which are
already in the possession matrix's ids, and returns the block deliveries
expected to complete within a given horizon, as (server id, block column
id) columns of that matrix. The controller decides on
``view.replace(store=PossessionOverlay(view.store, sids, gids))``: the
same view, reading possession from a
:class:`~repro.overlay.store.PossessionOverlay` that holds them too. The
same scheduler and router decide it; the real index is not touched.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.net.directive import DirectiveBatch, TransferDirective
from repro.net.view import ClusterView
from repro.utils.validation import check_non_negative


def speculate(
    view: ClusterView,
    previous: Sequence[TransferDirective],
    horizon_seconds: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Deliveries of the ``previous`` directives expected to complete
    within ``horizon_seconds``, as ``(destination server ids, block
    column ids)`` of the view's possession matrix.

    The prediction is conservative and purely local: each directive's
    bytes land in block order at its rate cap, and a block whose
    remaining bytes fit in what is left of ``horizon_seconds × rate`` is
    speculated as delivered. A directive without a rate cap is skipped —
    without a controller-assigned rate there is no honest local estimate
    of its progress — as is one with an endpoint outside the matrix or of
    a job the view no longer lists; so are block indices outside the
    job, copies the destination already holds, and copies its source
    does not hold.
    """
    check_non_negative("horizon_seconds", horizon_seconds)
    matrix = view.store.matrix
    batch = DirectiveBatch.pack(previous, matrix)  # the router's batch: itself
    partial = view.partial_bytes
    sizes = {job.job_id: job.block_sizes() for job in view.jobs}
    servers = matrix.num_servers
    column, bounds = batch.column, batch.bounds
    sids: List[int] = []
    gids: List[int] = []
    for i, (job_id, src, dst, cap) in enumerate(
        zip(batch.job_ids, batch.src, batch.dst, batch.caps)
    ):
        if not cap or cap <= 0 or src >= servers or dst >= servers:
            continue
        size_of = sizes.get(job_id)
        if size_of is None:
            continue
        base, count = matrix.spans.get(job_id, (0, 0))
        budget = cap * horizon_seconds
        # Rows are read block by block: the budget runs out long before
        # a merged directive's block list does.
        for index in column[bounds[i] : bounds[i + 1]].tolist():
            if budget <= 0:
                break
            if not 0 <= index < count:
                continue
            gid = base + index
            if matrix.test_many(dst, gid):
                continue  # already arrived for real
            if not matrix.test_many(src, gid):
                # Phantom source: the directive was decided on a
                # speculated copy that never arrived, the simulator
                # dropped it, and these bytes never moved.
                continue
            remaining = float(size_of[index]) - partial.get(
                partial.key(gid, dst), 0.0
            )
            if remaining <= budget:
                sids.append(dst)
                gids.append(gid)
            budget -= min(remaining, budget)
    return np.array(sids, dtype=np.int64), np.array(gids, dtype=np.int64)
