"""Flow-level bandwidth sharing.

Two allocation regimes are needed by the reproduction:

* **Max-min fairness** (progressive filling) — models what TCP-like
  transport gives the *decentralized* baselines (Gingko, Bullet, Akamai),
  where nobody assigns explicit rates and flows contend on shared links.
* **Controller-assigned rates** — BDS assigns each flow an explicit rate;
  :func:`clip_rates_to_capacity` then enforces physics by proportionally
  scaling down any resource that ended up oversubscribed (e.g. because the
  controller worked from slightly stale state, §5.1's non-blocking update).

Each regime is one kernel over :class:`FlowRows` — every flow as a row of
resource numbers, the numbering of a
:class:`~repro.net.cycle_cache.CycleCache` — shared
by the data plane and the sharded controller's WAN reconciliation. Each
answers one rate per row. The waterfill's work per freeze event is over
resources, not over every active flow; the clip is one pass of
``bincount`` and a segment minimum. The
bit-identity arguments live in the docstrings; the equivalence suites
in ``tests/test_flow_kernel.py`` and ``tests/test_directive_batch.py``
assert exact equality against the retired kernels and the textbook loop
kept in ``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.net.topology import ResourceKey


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


@dataclass
class FlowRows:
    """Flows as rows of resource numbers: what the rate kernels run on.

    ``paths[i]`` is flow ``i``'s resources as indices into ``res_keys``
    (duplicates kept: a flow crossing a resource twice loads it twice),
    and ``caps[i]`` its own upper bound — the smaller of its rate cap
    and its demand, ``inf`` when unconstrained. ``len()`` is the flow
    count. The data plane and the reconciler pass the rows of a
    :class:`~repro.net.cycle_cache.CycleCache` with its ``res_keys``.
    """

    paths: Sequence[Sequence[int]]
    caps: Sequence[float]
    res_keys: Sequence[ResourceKey]

    def __len__(self) -> int:
        return len(self.paths)

    def compile(
        self, which: Optional[List[int]], capacities: Mapping[ResourceKey, float]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The CSR incidence of flows ``which`` (all when ``None``).

        Returns their concatenated resource numbers, where each flow's
        slice starts and how long it is, and the capacity of every
        resource number as ``float64``. Only these flows are validated:
        one of their resources that ``capacities`` lacks raises
        :class:`KeyError` — the first in flow order, as a dict filled
        flow by flow meets it — while any other may read NaN. The map is
        asked for the resources the flows load (one ``bincount``) when
        they have fewer entries than there are resources, else for all.
        """
        paths = self.paths if which is None else [self.paths[i] for i in which]
        lens = [len(path) for path in paths]
        flat = np.fromiter(
            itertools.chain.from_iterable(paths), dtype=np.intp, count=sum(lens)
        )
        keys = self.res_keys
        get = capacities.get
        if len(flat) < len(keys):
            caps = [np.nan] * len(keys)
            for res in np.flatnonzero(np.bincount(flat, minlength=len(keys))).tolist():
                caps[res] = get(keys[res])
        else:
            caps = [get(key) for key in keys]
        if None in caps:
            for res in flat.tolist():
                if caps[res] is None:
                    raise KeyError(f"flow references unknown resource {keys[res]!r}")
            caps = [np.nan if cap is None else cap for cap in caps]
        ends = np.cumsum(lens, dtype=np.intp)
        lens = np.array(lens, dtype=np.intp)
        return flat, ends - lens, lens, np.array(caps, dtype=np.float64)


def max_min_fair_rates(
    rows: FlowRows,
    capacities: Mapping[ResourceKey, float],
    stats: Optional[FlowKernelStats] = None,
) -> List[float]:
    """Progressive-filling max-min fair allocation.

    All flows grow at the same rate until some resource saturates; flows
    through that resource freeze at their current rate, and the remaining
    flows keep growing. Each row's own cap (``rows.caps``) is honoured:
    a flow freezes when it hits it, releasing capacity to the others.
    Returns one rate per row of ``rows``.

    Event-driven: each iteration of the loop is one freeze event, and
    only what the event touches is revisited. The caps are sorted once,
    so the flows frozen by their own cap are a prefix of what is left of
    that order; a resource→flows index names the flows a saturated
    resource freezes; load decrements touch only the frozen flows'
    entries. The array work per event is over resources only: one
    minimum of ``residual / load``, one ``residual -= increment * load``
    and the saturation test. A saturated resource's residual becomes
    ``inf``: it has no flow left to load, and must neither bind nor
    saturate again — and a resource no active flow crosses starts there.

    The water level is a running float sum, so events stay sequential,
    and each increment, residual update and freeze test is the IEEE
    operation of the textbook loop (``tests/oracles.py`` keeps it and
    the two kernels this one replaced): ``min(cap_i - level)`` is
    ``min(cap_i) - level`` because subtracting a constant is monotone,
    float minima are order-independent, and the load counts are exact —
    so how resources are numbered does not reach a rate.
    """
    rates = [0.0] * len(rows)
    active = [i for i, cap in enumerate(rows.caps) if cap > 0]
    if not active:
        return rates

    # Only active flows are compiled (and therefore validated): a
    # zero-cap flow's resources are never looked at.
    flat, starts, lens, capacity = rows.compile(active, capacities)
    caps = [rows.caps[i] for i in active]
    n = len(active)
    inf = float("inf")
    counts = np.bincount(flat, minlength=len(capacity))
    residual = np.where(counts > 0, capacity, inf)
    # Active flows per resource: a list for the per-entry decrements,
    # mirrored into floats (exact — small integers) for the array passes.
    count = counts.tolist()
    load = counts.astype(np.float64)
    scratch = np.empty_like(residual)
    entries = flat.tolist()
    ends = (starts + lens).tolist()
    starts = starts.tolist()
    # Resource → the flows that load it, as CSR over the entries.
    by_res = np.repeat(np.arange(n), lens)[
        np.argsort(flat, kind="stable")
    ].tolist()
    res_bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    by_cap = np.argsort(np.asarray(caps), kind="stable").tolist()

    alive = [True] * n
    final = [0.0] * n
    remaining = n
    head = 0  # position in by_cap of the smallest cap still alive
    level = 0.0
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

    for i, r in zip(active, final):
        rates[i] = r
    return rates


def clip_rates_to_capacity(
    rows: FlowRows,
    requested: Sequence[float],
    capacities: Mapping[ResourceKey, float],
) -> List[float]:
    """Scale requested rates so no resource is oversubscribed.

    Every resource with aggregate demand above capacity scales all its flows
    by the same factor (the network's approximation of per-link fair
    dropping); a flow crossing several oversubscribed resources gets the
    most restrictive factor. One pass is sufficient because scaling only
    ever decreases loads. ``requested`` is one rate per row of ``rows``,
    and so are the clipped rates.

    One array pass, bit-identical to the dict loop it replaced (kept in
    ``tests/oracles.py``): ``bincount`` accumulates per-resource usage in
    entry order (identical partial sums), the guard ``used > cap and
    used > 0`` applies elementwise, and each flow's factor is a segment
    minimum over its resources (order-independent). Unlike the
    waterfill, *every* flow's resources are validated, zero-rate ones
    included.
    """
    # Imported lazily: repro.lp.__init__ imports repro.lp.mcf, which
    # imports repro.net.topology, which triggers repro.net.__init__ →
    # this module — an eager import here would close that cycle onto a
    # partially-initialized repro.lp.mcf.
    from repro.lp.incidence import segment_mins

    if not len(rows):
        return []
    flat, starts, lens, caps = rows.compile(None, capacities)
    rates = np.array(requested, dtype=np.float64)
    usage = np.bincount(flat, weights=rates.repeat(lens), minlength=len(caps))
    over = (usage > caps) & (usage > 0)
    scale = np.divide(caps, usage, out=np.ones(len(caps)), where=over)
    return (rates * segment_mins(scale[flat], starts, lens, 1.0)).tolist()
