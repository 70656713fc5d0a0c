"""Non-blocking updates via speculated delivery status (§5.1).

While the controller computes a new decision, the previous cycle's
transfers keep running (agents are never blocked on the controller). The
controller therefore feeds its algorithm not the *reported* delivery state
but a *speculated* one: for every in-flight transfer it assumes the bytes
that will land during the decision window have landed.

:class:`DeliverySpeculator` consumes the previous cycle's directives and
produces the set of block deliveries expected to complete within a given
horizon; :class:`SpeculatedView` overlays those onto a real
:class:`~repro.net.simulator.ClusterView` without mutating the underlying
possession index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.net.simulator import ClusterView, TransferDirective
from repro.utils.validation import check_non_negative

BlockId = Tuple[str, int]


@dataclass(frozen=True)
class SpeculatedDelivery:
    """One block expected to finish arriving within the horizon."""

    block_id: BlockId
    dst_server: str
    src_server: str


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
        block_sizes: Mapping[BlockId, float],
    ) -> List[SpeculatedDelivery]:
        """Deliveries expected to complete within the horizon.

        Directives without a rate cap are skipped — without a controller-
        assigned rate there is no honest local estimate of their progress.
        """
        speculated: List[SpeculatedDelivery] = []
        for directive in previous_directives:
            if not directive.rate_cap or directive.rate_cap <= 0:
                continue
            budget = directive.rate_cap * self.horizon_seconds
            for block_id in directive.block_ids:
                if budget <= 0:
                    break
                if view.store.has(directive.dst_server, block_id):
                    continue  # already arrived for real
                if not view.store.has(directive.src_server, block_id):
                    # Phantom source: the directive was decided on a
                    # speculated copy that never arrived, the simulator
                    # dropped it, and these bytes never moved.
                    continue
                size = block_sizes.get(block_id)
                if size is None:
                    continue
                remaining = size - view.received_bytes(
                    block_id, directive.dst_server
                )
                if remaining <= budget:
                    speculated.append(
                        SpeculatedDelivery(
                            block_id=block_id,
                            dst_server=directive.dst_server,
                            src_server=directive.src_server,
                        )
                    )
                budget -= min(remaining, budget)
        return speculated


class _SpeculatedStore:
    """Read-only possession overlay: real store + speculated deliveries."""

    # The wrapped store's PossessionMatrix (if any) does not know about
    # the speculated extra copies, so array consumers must not answer
    # from it. A class attribute (not delegation through __getattr__,
    # which would leak the real store's True) pins the witness to False.
    is_exact_matrix = False

    def __init__(self, store, extra: Iterable[SpeculatedDelivery]) -> None:
        self._store = store
        self._extra_by_server: Dict[str, Set[BlockId]] = {}
        self._extra_holders: Dict[BlockId, Set[str]] = {}
        for delivery in extra:
            self._extra_by_server.setdefault(delivery.dst_server, set()).add(
                delivery.block_id
            )
            self._extra_holders.setdefault(delivery.block_id, set()).add(
                delivery.dst_server
            )

    def __getattr__(self, name):
        return getattr(self._store, name)

    def has(self, server_id: str, block_id: BlockId) -> bool:
        if block_id in self._extra_by_server.get(server_id, ()):
            return True
        return self._store.has(server_id, block_id)

    def holders(self, block_id: BlockId) -> Set[str]:
        return self._store.holders(block_id) | self._extra_holders.get(
            block_id, set()
        )

    def duplicate_count(self, block_id: BlockId) -> int:
        return len(self.holders(block_id))

    def blocks_on(self, server_id: str) -> Set[BlockId]:
        return self._store.blocks_on(server_id) | self._extra_by_server.get(
            server_id, set()
        )

    def dc_has_block(self, dc: str, block_id: BlockId) -> bool:
        if self._store.dc_has_block(dc, block_id):
            return True
        return any(
            self._store.dc_of(s) == dc
            for s in self._extra_holders.get(block_id, ())
        )


class SpeculatedView(ClusterView):
    """A :class:`ClusterView` whose store reflects speculated deliveries.

    Construction is cheap: the underlying view's fields are shared; only
    the store is wrapped. The base view's :class:`CycleCache` is *not*
    shared — its source/rarity memos answer for the real store, and the
    wrapped store sees extra speculated holders — so this view gets a
    fresh cache of its own (path memos are rebuilt; source memos key on
    the wrapped store's epoch). The simulator's pending maps are shared:
    they track the real store only, and the inherited pending accessors
    re-check every map entry against ``self.store`` — here the wrapped
    store — so speculated deliveries drop out exactly as a full scan
    over the wrapped store would.
    """

    def __init__(
        self, base: ClusterView, deliveries: Iterable[SpeculatedDelivery]
    ) -> None:
        from repro.net.cycle_cache import CycleCache

        self.topology = base.topology
        self.store = _SpeculatedStore(base.store, deliveries)
        self.jobs = base.jobs
        self.cycle = base.cycle
        self.time = base.time
        self.cycle_seconds = base.cycle_seconds
        self.bulk_capacities = base.bulk_capacities
        self.failed_agents = base.failed_agents
        self.controller_available = base.controller_available
        self.failed_links = base.failed_links
        self._partial = base._partial
        self._pending_map = base._pending_map
        self._relay_pending_map = base._relay_pending_map
        self._blocks_by_id = base._blocks_by_id
        self._cache = CycleCache()
        self._failed_frozen = base._failed_frozen
        self._pending_order = base._pending_order
        self._relay_order = base._relay_order
        # The wrapped store shadows the real one with speculated extra
        # copies, so the exactness witness must not hold: keep the *base*
        # store as the witness object — ``self.store`` (the wrapper) is a
        # different object, forcing the per-entry possession re-check.
        self._map_store = base._map_store
        self._map_epoch = base._map_epoch
        # No candidate table: the vectorized kernel reads possession
        # straight from the matrix, which does not see speculated copies.
        self._candidates = None
