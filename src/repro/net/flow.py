"""Flow-level bandwidth sharing.

Two allocation regimes are needed by the reproduction:

* **Max-min fairness** (progressive filling) — models what TCP-like
  transport gives the *decentralized* baselines (Gingko, Bullet, Akamai),
  where nobody assigns explicit rates and flows contend on shared links.
* **Controller-assigned rates** — BDS assigns each flow an explicit rate;
  :func:`clip_rates_to_capacity` then enforces physics by proportionally
  scaling down any resource that ended up oversubscribed (e.g. because the
  controller worked from slightly stale state, §5.1's non-blocking update).

Both allocators exist in two bit-identical implementations: scalar dict
loops, and array kernels over a CSR flow×resource incidence
(:class:`repro.lp.incidence.FlowIncidence` — the same interning and
``reduceat``/``bincount`` machinery the routing solvers use). The public
entry points dispatch on input size (:data:`VECTOR_MIN_FLOWS`). The
per-kernel bit-identity arguments live next to each vectorized step; the
randomized equivalence suite in ``tests/test_flow_kernel.py`` asserts
exact dict equality between the paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.net.topology import ResourceKey

#: Below this many flows the scalar loops win on constant factors, so the
#: dispatchers fall back to them; results are bit-identical either way.
VECTOR_MIN_FLOWS = 64


@dataclass
class Flow:
    """A unidirectional transfer consuming a fixed set of resources.

    ``rate_cap`` optionally bounds the rate from above (BDS's bandwidth
    allocation, or a per-flow application limit); ``demand`` optionally
    bounds it by how much the flow can actually use this cycle
    (remaining bytes / cycle length).
    """

    flow_id: Hashable
    resources: Tuple[ResourceKey, ...]
    rate_cap: Optional[float] = None
    demand: Optional[float] = None

    def effective_cap(self) -> float:
        """The flow's own upper bound, +inf when unconstrained."""
        cap = float("inf")
        if self.rate_cap is not None:
            cap = min(cap, self.rate_cap)
        if self.demand is not None:
            cap = min(cap, self.demand)
        return cap


@dataclass
class FlowKernelStats:
    """Diagnostics the rate kernels report back to their caller.

    ``stalemates`` counts progressive-filling iterations that terminated
    without freezing any flow — the numerical corner where no resource
    saturates and no cap binds within tolerance, historically a silent
    ``break``. The simulator surfaces the count per cycle through
    ``CycleStats.rate_stalemates``.
    """

    stalemates: int = 0


def max_min_fair_rates(
    flows: Sequence[Flow],
    capacities: Mapping[ResourceKey, float],
    stats: Optional[FlowKernelStats] = None,
) -> Dict[Hashable, float]:
    """Progressive-filling max-min fair allocation.

    All flows grow at the same rate until some resource saturates; flows
    through that resource freeze at their current rate, and the remaining
    flows keep growing. Flow-level caps (``rate_cap``/``demand``) are
    honoured: a flow freezes when it hits its own cap, releasing capacity
    to the others.

    Dispatches between :func:`max_min_fair_rates_scalar` and
    :func:`max_min_fair_rates_vectorized` (bit-identical results): the
    array kernel only pays off past :data:`VECTOR_MIN_FLOWS` flows.
    """
    if len(flows) >= VECTOR_MIN_FLOWS:
        return max_min_fair_rates_vectorized(flows, capacities, stats)
    return max_min_fair_rates_scalar(flows, capacities, stats)


def max_min_fair_rates_scalar(
    flows: Sequence[Flow],
    capacities: Mapping[ResourceKey, float],
    stats: Optional[FlowKernelStats] = None,
) -> Dict[Hashable, float]:
    """The scalar progressive-filling loop (dict bookkeeping).

    Runs in O(iterations × flows × path length); iterations are bounded
    by the number of resources plus the number of flows.

    The per-resource active-flow counts (``load``) only ever lose flows as
    the filling progresses, so they are maintained incrementally: each
    frozen flow decrements its resources' counts instead of the counts
    being rebuilt from every active flow each iteration. Allocations are
    bit-identical to the rebuild-every-iteration reference (the test
    oracle ``max_min_fair_rates_reference``) and to the array kernel
    (:func:`max_min_fair_rates_vectorized`).
    """
    rates: Dict[Hashable, float] = {f.flow_id: 0.0 for f in flows}
    active: List[Flow] = [f for f in flows if f.effective_cap() > 0]
    for flow in flows:
        if flow.effective_cap() <= 0:
            rates[flow.flow_id] = 0.0
    residual: Dict[ResourceKey, float] = dict(capacities)
    level = 0.0  # the common fair-share water level so far

    # Active flows per resource; maintained incrementally as flows freeze.
    load: Dict[ResourceKey, int] = {}
    for flow in active:
        for res in flow.resources:
            if res not in residual:
                raise KeyError(f"flow references unknown resource {res!r}")
            load[res] = load.get(res, 0) + 1

    while active:
        # Smallest increment that saturates a resource or hits a flow cap.
        increment = float("inf")
        for res, count in load.items():
            increment = min(increment, residual[res] / count)
        for flow in active:
            increment = min(increment, flow.effective_cap() - level)
        if increment == float("inf"):
            raise ValueError("unbounded allocation: no capacities bind any flow")
        increment = max(increment, 0.0)

        level += increment
        for flow in active:
            rates[flow.flow_id] = level
        for res, count in load.items():
            residual[res] -= increment * count
            if residual[res] < 0:  # numerical dust
                residual[res] = 0.0

        still_active: List[Flow] = []
        frozen: List[Flow] = []
        for flow in active:
            capped = flow.effective_cap() - level <= 1e-12
            saturated = any(residual[res] <= 1e-9 for res in flow.resources)
            if capped or saturated:
                frozen.append(flow)
            else:
                still_active.append(flow)
        if not frozen:
            # Numerical stalemate: nothing saturated and nothing capped
            # within tolerance. Freeze everything to terminate, and count
            # the event so it is observable (CycleStats.rate_stalemates).
            if stats is not None:
                stats.stalemates += 1
            break
        for flow in frozen:
            for res in flow.resources:
                load[res] -= 1
                if load[res] == 0:
                    del load[res]
        active = still_active
    return rates


def max_min_fair_rates_vectorized(
    flows: Sequence[Flow],
    capacities: Mapping[ResourceKey, float],
    stats: Optional[FlowKernelStats] = None,
) -> Dict[Hashable, float]:
    """Array progressive filling over CSR flow×resource incidence.

    Bit-identical to :func:`max_min_fair_rates_scalar`; every step of the
    scalar loop has an exact array counterpart:

    * the bottleneck increment ``min(residual/load)`` is a float minimum —
      order-independent, so an array ``.min()`` equals the dict-iteration
      ``min`` chain;
    * the cap increment ``min(cap_i - level)`` equals ``min(cap_i) -
      level`` because IEEE subtraction by a constant is monotone, so only
      the running cap minimum is subtracted;
    * per-resource residual updates subtract ``increment × load`` with
      one elementwise multiply — the same two-operand IEEE ops, per
      resource, as the scalar loop;
    * flow freezing is boolean masking (``capped | saturated``) with
      saturation detected by per-flow segment minima over residuals;
    * load updates scatter-subtract each frozen flow's resource counts
      (integer arithmetic — exact).

    Duplicate ``flow_id`` values resolve like the scalar loop: the final
    dict value is the freeze level of the longest-surviving duplicate
    (levels are monotone, so that is the maximum).
    """
    # Imported lazily: repro.lp.__init__ imports repro.lp.mcf, which
    # imports repro.net.topology, which triggers repro.net.__init__ →
    # this module — an eager import here would close that cycle onto a
    # partially-initialized repro.lp.mcf.
    from repro.lp.incidence import FlowIncidence, segment_mins

    rates: Dict[Hashable, float] = {f.flow_id: 0.0 for f in flows}
    active: List[Flow] = [f for f in flows if f.effective_cap() > 0]
    if not active:
        return rates

    # Only active flows are compiled (and therefore validated) — the
    # scalar loop likewise never looks at a zero-cap flow's resources.
    inc = FlowIncidence.build((f.resources for f in active), capacities)
    residual = inc.caps.copy()
    load = inc.loads()  # int64: exact scatter arithmetic
    num_res = residual.size

    act_flat = inc.flat_res
    act_lens = inc.lens
    act_caps = np.array([f.effective_cap() for f in active], dtype=np.float64)
    act_ids = np.arange(len(active), dtype=np.intp)
    final_level = np.zeros(len(active), dtype=np.float64)
    level = 0.0

    while act_ids.size:
        pos = load > 0
        if pos.any():
            inc_res = (residual[pos] / load[pos]).min()
        else:
            inc_res = np.inf
        increment = min(inc_res, act_caps.min() - level)
        if increment == float("inf"):
            raise ValueError("unbounded allocation: no capacities bind any flow")
        increment = float(max(increment, 0.0))

        level += increment
        residual[pos] -= increment * load[pos]
        np.maximum(residual, 0.0, out=residual)  # numerical dust

        capped = (act_caps - level) <= 1e-12
        act_starts = np.concatenate(
            ([0], np.cumsum(act_lens[:-1]))
        ) if act_lens.size else act_lens
        saturated = (
            segment_mins(residual[act_flat], act_starts, act_lens, np.inf)
            <= 1e-9
        )
        frozen = capped | saturated
        if not frozen.any():
            # Numerical stalemate (see the scalar loop): freeze the
            # remaining flows at the current level and count the event.
            if stats is not None:
                stats.stalemates += 1
            final_level[act_ids] = level
            break
        final_level[act_ids[frozen]] = level

        entry_frozen = np.repeat(frozen, act_lens)
        load -= np.bincount(act_flat[entry_frozen], minlength=num_res)
        keep = ~frozen
        act_flat = act_flat[~entry_frozen]
        act_lens = act_lens[keep]
        act_caps = act_caps[keep]
        act_ids = act_ids[keep]

    for i, flow in enumerate(active):
        r = final_level[i]
        if r > rates[flow.flow_id]:
            rates[flow.flow_id] = float(r)
    return rates


def clip_rates_to_capacity(
    flows: Sequence[Flow],
    requested: Mapping[Hashable, float],
    capacities: Mapping[ResourceKey, float],
) -> Dict[Hashable, float]:
    """Scale requested rates so no resource is oversubscribed.

    Every resource with aggregate demand above capacity scales all its flows
    by the same factor (the network's approximation of per-link fair
    dropping); a flow crossing several oversubscribed resources gets the
    most restrictive factor. One pass is sufficient because scaling only
    ever decreases loads.

    Dispatches between :func:`clip_rates_to_capacity_scalar` and
    :func:`clip_rates_to_capacity_vectorized` (bit-identical results).
    """
    if len(flows) >= VECTOR_MIN_FLOWS:
        return clip_rates_to_capacity_vectorized(flows, requested, capacities)
    return clip_rates_to_capacity_scalar(flows, requested, capacities)


def clip_rates_to_capacity_scalar(
    flows: Sequence[Flow],
    requested: Mapping[Hashable, float],
    capacities: Mapping[ResourceKey, float],
) -> Dict[Hashable, float]:
    """The scalar one-pass clip (dict bookkeeping)."""
    usage: Dict[ResourceKey, float] = {}
    for flow in flows:
        r = requested.get(flow.flow_id, 0.0)
        for res in flow.resources:
            usage[res] = usage.get(res, 0.0) + r
    scale: Dict[ResourceKey, float] = {}
    for res, used in usage.items():
        cap = capacities.get(res)
        if cap is None:
            raise KeyError(f"flow references unknown resource {res!r}")
        scale[res] = 1.0 if used <= cap or used <= 0 else cap / used
    result: Dict[Hashable, float] = {}
    for flow in flows:
        r = requested.get(flow.flow_id, 0.0)
        factor = min((scale[res] for res in flow.resources), default=1.0)
        result[flow.flow_id] = r * factor
    return result


def clip_rates_to_capacity_vectorized(
    flows: Sequence[Flow],
    requested: Mapping[Hashable, float],
    capacities: Mapping[ResourceKey, float],
) -> Dict[Hashable, float]:
    """Array one-pass clip over CSR flow×resource incidence.

    Bit-identical to :func:`clip_rates_to_capacity_scalar`: the whole
    arithmetic lives in :func:`repro.lp.incidence.outer_waterfill`, which
    accumulates per-resource usage via ``bincount`` in the same entry
    order as the scalar dict loop (identical partial sums), applies the
    same ``cap / used`` guard elementwise, and takes each flow's factor
    as a segment minimum over its resources (order-independent). Unlike
    the waterfill, *every* flow's resources are validated — the scalar
    clip builds usage over all flows, zero-rate ones included.
    """
    # Imported lazily: see the waterfill note on the repro.lp cycle.
    from repro.lp.incidence import FlowIncidence, outer_waterfill

    if not flows:
        return {}
    inc = FlowIncidence.build((f.resources for f in flows), capacities)
    r = np.fromiter(
        (requested.get(f.flow_id, 0.0) for f in flows),
        dtype=np.float64,
        count=len(flows),
    )
    vals = outer_waterfill(inc, r)
    return {f.flow_id: float(vals[i]) for i, f in enumerate(flows)}


def resource_utilization(
    flows: Sequence[Flow],
    rates: Mapping[Hashable, float],
) -> Dict[ResourceKey, float]:
    """Aggregate bytes/second crossing each resource under ``rates``."""
    usage: Dict[ResourceKey, float] = {}
    for flow in flows:
        r = rates.get(flow.flow_id, 0.0)
        for res in flow.resources:
            usage[res] = usage.get(res, 0.0) + r
    return usage
