"""Non-blocking updates via speculated delivery status (§5.1).

While the controller computes a new decision, the previous cycle's
transfers keep running (agents are never blocked on the controller). The
controller therefore feeds its algorithm not the *reported* delivery state
but a *speculated* one: for every in-flight transfer it assumes the bytes
that will land during the decision window have landed.

:class:`DeliverySpeculator` consumes the previous cycle's directives and
produces the block deliveries expected to complete within a given
horizon, as (server id, block column id) columns of the possession
matrix; :class:`SpeculatedView` is the real
:class:`~repro.net.simulator.ClusterView` reading possession from a
:class:`~repro.overlay.store.PossessionOverlay` that holds them too. The
same scheduler and router decide it; the real index is not touched.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.net.simulator import ClusterView, TransferDirective
from repro.overlay.store import PossessionOverlay
from repro.utils.validation import check_non_negative


class DeliverySpeculator:
    """Predicts deliveries completing while the controller is thinking.

    The prediction is conservative and purely local: for each directive of
    the previous cycle, bytes land in block order at the directive's rate;
    blocks whose remaining bytes fit within ``horizon_seconds × rate`` are
    speculated as delivered.
    """

    def __init__(self, horizon_seconds: float) -> None:
        check_non_negative("horizon_seconds", horizon_seconds)
        self.horizon_seconds = horizon_seconds

    def speculate(
        self,
        view: ClusterView,
        previous_directives: Sequence[TransferDirective],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Deliveries expected to complete within the horizon, as
        ``(destination server ids, block column ids)`` of the view's
        possession matrix.

        Directives without a rate cap are skipped — without a controller-
        assigned rate there is no honest local estimate of their progress
        — as are those of jobs the view no longer lists.
        """
        matrix = view.store.matrix
        gid_of = matrix.block_gids.get
        sizes = {job.job_id: job.block_sizes() for job in view.jobs}
        sids: List[int] = []
        gids: List[int] = []
        for directive in previous_directives:
            if not directive.rate_cap or directive.rate_cap <= 0:
                continue
            src = matrix.server_ids.get(directive.src_server)
            dst = matrix.server_ids.get(directive.dst_server)
            if src is None or dst is None:
                continue
            budget = directive.rate_cap * self.horizon_seconds
            # Ids are built block by block: the budget runs out long
            # before a merged directive's block list does.
            indices = directive.block_indices
            for block_id in (
                directive.block_ids
                if indices is None
                else ((directive.job_id, i) for i in indices.tolist())
            ):
                if budget <= 0:
                    break
                gid = gid_of(block_id)
                size_of = sizes.get(block_id[0])
                if gid is None or size_of is None:
                    continue
                if matrix.test_bit(dst, gid):
                    continue  # already arrived for real
                if not matrix.test_bit(src, gid):
                    # Phantom source: the directive was decided on a
                    # speculated copy that never arrived, the simulator
                    # dropped it, and these bytes never moved.
                    continue
                remaining = float(size_of[block_id[1]]) - view.received_bytes(
                    block_id, directive.dst_server
                )
                if remaining <= budget:
                    sids.append(dst)
                    gids.append(gid)
                budget -= min(remaining, budget)
        return np.array(sids, dtype=np.int64), np.array(gids, dtype=np.int64)


class SpeculatedView(ClusterView):
    """``base`` with the ``(sids, gids)`` deliveries already landed.

    Everything but the store is ``base``'s own — jobs, budgets, failure
    sets, partial bytes, the :class:`~repro.net.cycle_cache.CycleCache`
    and the candidate table (block and server ids are the same in the
    overlay's matrix).
    """

    def __init__(
        self, base: ClusterView, sids: np.ndarray, gids: np.ndarray
    ) -> None:
        super().__init__(
            topology=base.topology,
            store=PossessionOverlay(base.store, sids, gids),
            jobs=base.jobs,
            cycle=base.cycle,
            time=base.time,
            cycle_seconds=base.cycle_seconds,
            bulk_capacities=base.bulk_capacities,
            failed_agents=base.failed_agents,
            controller_available=base.controller_available,
            partial_bytes=base._partial,
            failed_links=base.failed_links,
            cache=base._cache,
            candidates=base.candidates,
        )
