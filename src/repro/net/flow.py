"""Flow-level bandwidth sharing.

Two allocation regimes are needed by the reproduction:

* **Max-min fairness** (progressive filling) — models what TCP-like
  transport gives the *decentralized* baselines (Gingko, Bullet, Akamai),
  where nobody assigns explicit rates and flows contend on shared links.
* **Controller-assigned rates** — BDS assigns each flow an explicit rate;
  :func:`clip_rates_to_capacity` then enforces physics by proportionally
  scaling down any resource that ended up oversubscribed (e.g. because the
  controller worked from slightly stale state, §5.1's non-blocking update).

The waterfill is one event-driven kernel whose work per freeze event is
over resources, not over every active flow. The clip has a scalar dict
loop and an array kernel, dispatched on input size
(:data:`VECTOR_MIN_FLOWS`). The waterfill and the array clip compile
their flows into a CSR flow×resource incidence
(:class:`repro.lp.incidence.FlowIncidence` — the same interning and
``reduceat``/``bincount`` machinery the routing solvers use).
The bit-identity arguments live in the docstrings; the equivalence suite
in ``tests/test_flow_kernel.py`` asserts exact dict equality against the
retired kernels and the textbook loop kept in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.net.topology import ResourceKey

#: Below this many flows the scalar clip wins on constant factors, so the
#: dispatcher falls back to it; results are bit-identical either way.
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

    Event-driven: each iteration of the loop is one freeze event, and
    only what the event touches is revisited. The caps are sorted once,
    so the flows frozen by their own cap are a prefix of what is left of
    that order; a resource→flows index names the flows a saturated
    resource freezes; load decrements touch only the frozen flows'
    entries. The array work per event is over resources only: one
    minimum of ``residual / load``, one ``residual -= increment * load``
    and the saturation test. A saturated resource's residual becomes
    ``inf``: it has no flow left to load, and must neither bind nor
    saturate again.

    The water level is a running float sum, so events stay sequential,
    and each increment, residual update and freeze test is the IEEE
    operation of the textbook loop (``tests/oracles.py`` keeps it and
    the two kernels this one replaced): ``min(cap_i - level)`` is
    ``min(cap_i) - level`` because subtracting a constant is monotone,
    float minima are order-independent, and the load counts are exact.
    A duplicate ``flow_id`` keeps the highest level any of its flows
    froze at, as the textbook loop's last write does.
    """
    # Imported lazily: repro.lp.__init__ imports repro.lp.mcf, which
    # imports repro.net.topology, which triggers repro.net.__init__ →
    # this module — an eager import here would close that cycle onto a
    # partially-initialized repro.lp.mcf.
    from repro.lp.incidence import FlowIncidence

    rates: Dict[Hashable, float] = {f.flow_id: 0.0 for f in flows}
    active: List[Flow] = []
    caps: List[float] = []
    for flow in flows:
        cap = flow.effective_cap()
        if cap > 0:
            active.append(flow)
            caps.append(cap)
    if not active:
        return rates

    # Only active flows are compiled (and therefore validated): a
    # zero-cap flow's resources are never looked at.
    inc = FlowIncidence.build((f.resources for f in active), capacities)
    n = len(active)
    residual = inc.caps.copy()
    counts = inc.loads()
    # Active flows per resource: a list for the per-entry decrements,
    # mirrored into floats (exact — small integers) for the array passes.
    count = counts.tolist()
    load = counts.astype(np.float64)
    scratch = np.empty_like(residual)
    entries = inc.flat_res.tolist()
    starts = inc.starts.tolist()
    ends = (inc.starts + inc.lens).tolist()
    # Resource → the flows that load it, as CSR over the entries.
    by_res = np.repeat(np.arange(n), inc.lens)[
        np.argsort(inc.flat_res, kind="stable")
    ].tolist()
    res_bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    by_cap = np.argsort(np.asarray(caps), kind="stable").tolist()

    alive = [True] * n
    final = [0.0] * n
    remaining = n
    head = 0  # position in by_cap of the smallest cap still alive
    level = 0.0
    inf = float("inf")
    with np.errstate(divide="ignore"):  # finite / 0 on unloaded resources
        while remaining:
            while not alive[by_cap[head]]:
                head += 1
            np.divide(residual, load, out=scratch)
            increment = min(
                float(np.minimum.reduce(scratch, initial=inf)),
                caps[by_cap[head]] - level,
            )
            if increment == inf:
                raise ValueError(
                    "unbounded allocation: no capacities bind any flow"
                )
            increment = max(increment, 0.0)

            level += increment
            np.multiply(load, increment, out=scratch)
            np.subtract(residual, scratch, out=residual)

            frozen: List[int] = []
            while head < n:
                f = by_cap[head]
                if alive[f]:
                    if caps[f] - level > 1e-12:
                        break
                    alive[f] = False
                    frozen.append(f)
                head += 1
            # A residual below zero is numerical dust the textbook loop
            # clamps to 0; it saturates either way, and a saturated
            # residual is replaced by inf, so no clamp is needed.
            saturated = (residual <= 1e-9).nonzero()[0].tolist()
            if saturated:
                residual[saturated] = inf
                for r in saturated:
                    for f in by_res[res_bounds[r] : res_bounds[r + 1]]:
                        if alive[f]:
                            alive[f] = False
                            frozen.append(f)
            if not frozen:
                # Numerical stalemate: nothing saturated and nothing
                # capped within tolerance. Freeze everything at the
                # current level, and count the event so it is observable
                # (CycleStats.rate_stalemates).
                if stats is not None:
                    stats.stalemates += 1
                for f in range(n):
                    if alive[f]:
                        final[f] = level
                break
            remaining -= len(frozen)
            for f in frozen:
                final[f] = level
                for r in entries[starts[f] : ends[f]]:
                    count[r] -= 1
                    load[r] = count[r]

    for flow, r in zip(active, final):
        if r > rates[flow.flow_id]:
            rates[flow.flow_id] = r
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
