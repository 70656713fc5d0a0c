"""Array-backed path×resource incidence structure for the routing solve.

Every routing backend answers the same question many times per solve —
*"what is the length/room of this path?"*, a reduction over the resources
the path touches. Re-walking ``Commodity.paths`` tuples and capacity
dictionaries for each query is what made the FPTAS the slowest part of
the control cycle. :class:`PathIncidence` interns a commodity set into
flat integer arrays once, shared by

* the Fleischer FPTAS (:mod:`repro.lp.fptas`): whole-instance reductions
  (static bottlenecks, re-clip, dual certificate) are ``reduceat`` /
  ``bincount`` over these arrays; its push loop folds each ≤ 4-term path
  length over ``.tolist()``ed slices of them, in ``reduceat``'s order;
* the exact LP (:func:`repro.lp.mcf.solve_lp_incidence` — constraint rows).

(The router's greedy water-fill does not compile one: it indexes a
residual vector with the :class:`~repro.net.cycle_cache.CycleCache`'s
resource numbers, which outlive the cycle.)

Layout (CSR-style, usable paths only, grouped by commodity so each
commodity's paths occupy one contiguous id range):

``flat_res``
    concatenated resource indices of every usable path, duplicates within
    a path preserved (a path that crosses a resource twice consumes it
    twice, in every backend);
``path_starts``
    offset of each path's slice in ``flat_res`` (``np.minimum.reduceat`` /
    ``np.add.reduceat`` segment boundaries);
``path_commodity`` / ``path_orig_index``
    ownership: the commodity a path belongs to and its index in that
    commodity's *original* ``paths`` tuple. Duplicate candidate paths keep
    distinct original indices — the builder maps positions, not values,
    which is the fix for the historical ``list.index`` aliasing bug that
    silently merged duplicate paths' flows onto the first occurrence.

A path is *usable* when every resource on it has positive capacity and its
commodity has nonzero (or unbounded) demand; unusable paths can never
carry flow and are dropped at build time so the solvers skip them
uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.lp.mcf import Commodity
from repro.net.topology import ResourceKey


@dataclass
class PathIncidence:
    """Compiled path×resource incidence of one max-MCF instance.

    All capacities/demands are kept in the caller's raw units; solvers
    that need normalization (the FPTAS's length numerics) rescale their
    own private copies.
    """

    commodities: Tuple[Commodity, ...]
    #: index → resource key, in first-appearance order over usable paths.
    res_keys: List[ResourceKey]
    #: resource key → index (inverse of ``res_keys``).
    res_index: Dict[ResourceKey, int]
    #: per-resource capacity, raw units (missing resources resolve to 0
    #: in lenient mode and raise in strict mode — see :meth:`build`).
    caps: np.ndarray
    #: concatenated resource indices of all usable paths.
    flat_res: np.ndarray
    #: start offset of each usable path inside ``flat_res``.
    path_starts: np.ndarray
    #: number of resources on each usable path.
    path_lens: np.ndarray
    #: owning commodity index of each usable path.
    path_commodity: np.ndarray
    #: index of each usable path in its commodity's original ``paths``.
    path_orig_index: np.ndarray
    #: per-commodity usable-path id range ``[lo, hi)``; empty when the
    #: commodity has no usable path.
    commodity_path_range: List[Tuple[int, int]]
    #: per-commodity demand, ``inf`` for uncapped.
    demands: np.ndarray
    #: min capacity along each usable path (static bottleneck).
    path_min_cap: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.num_paths:
            self.path_min_cap = np.minimum.reduceat(
                self.caps[self.flat_res], self.path_starts
            )
        else:
            self.path_min_cap = np.zeros(0, dtype=np.float64)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        commodities: Sequence[Commodity],
        capacities: Mapping[ResourceKey, float],
        strict: bool = True,
    ) -> "PathIncidence":
        """Compile ``commodities`` over ``capacities`` into flat arrays.

        ``strict`` controls unknown-resource handling: ``True`` raises
        :class:`KeyError` (the :class:`~repro.lp.mcf.PathMCF` contract),
        ``False`` treats missing resources as zero-capacity (the greedy
        backend's historical ``residual.get(r, 0.0)`` semantics — such
        paths simply become unusable).
        """
        if not commodities:
            raise ValueError("need at least one commodity")
        res_keys: List[ResourceKey] = []
        res_index: Dict[ResourceKey, int] = {}
        caps_list: List[float] = []

        def intern(res: ResourceKey) -> int:
            idx = res_index.get(res)
            if idx is None:
                if strict and res not in capacities:
                    raise KeyError(f"path uses unknown resource {res!r}")
                idx = len(res_keys)
                res_index[res] = idx
                res_keys.append(res)
                caps_list.append(float(capacities.get(res, 0.0)))
            return idx

        flat: List[int] = []
        starts: List[int] = []
        lens: List[int] = []
        owners: List[int] = []
        orig_index: List[int] = []
        ranges: List[Tuple[int, int]] = []
        demands = np.empty(len(commodities), dtype=np.float64)
        for ci, commodity in enumerate(commodities):
            demand = (
                float("inf") if commodity.demand is None else float(commodity.demand)
            )
            demands[ci] = demand
            lo = len(starts)
            if demand > 0:
                for pi, path in enumerate(commodity.paths):
                    idxs = [intern(res) for res in path]
                    if any(caps_list[i] <= 0 for i in idxs):
                        continue  # a zero-capacity resource kills the path
                    starts.append(len(flat))
                    lens.append(len(idxs))
                    owners.append(ci)
                    orig_index.append(pi)
                    flat.extend(idxs)
            else:
                # Zero-demand commodities still intern their resources in
                # strict mode so unknown-resource validation stays uniform.
                if strict:
                    for path in commodity.paths:
                        for res in path:
                            intern(res)
            ranges.append((lo, len(starts)))

        return cls(
            commodities=tuple(commodities),
            res_keys=res_keys,
            res_index=res_index,
            caps=np.asarray(caps_list, dtype=np.float64),
            flat_res=np.asarray(flat, dtype=np.intp),
            path_starts=np.asarray(starts, dtype=np.intp),
            path_lens=np.asarray(lens, dtype=np.intp),
            path_commodity=np.asarray(owners, dtype=np.intp),
            path_orig_index=np.asarray(orig_index, dtype=np.intp),
            commodity_path_range=ranges,
            demands=demands,
        )

    # -- introspection -----------------------------------------------------

    @property
    def num_paths(self) -> int:
        return len(self.path_starts)

    @property
    def num_resources(self) -> int:
        return len(self.res_keys)

    @property
    def num_commodities(self) -> int:
        return len(self.commodities)

    def path_resources(self, path_id: int) -> np.ndarray:
        """Resource indices of one usable path (a view into ``flat_res``)."""
        lo = self.path_starts[path_id]
        return self.flat_res[lo : lo + self.path_lens[path_id]]

    def resource_signature(self) -> Tuple[ResourceKey, ...]:
        """The instance's resource universe, in interning order.

        The FPTAS warm-start guard compares signatures across cycles: a
        changed universe (topology edit, failure, commodity churn that
        adds/removes links) invalidates carried-over length functions.
        """
        return tuple(self.res_keys)

    def flows_to_path_map(
        self, flows: np.ndarray, threshold: float = 1e-12, scale: float = 1.0
    ) -> Dict[Tuple[Hashable, int], float]:
        """Translate per-usable-path flows to ``{(name, orig_index): rate}``.

        Distinct duplicate candidate paths keep distinct indices; true
        repeats of the same *(commodity, original index)* pair accumulate.
        """
        out: Dict[Tuple[Hashable, int], float] = {}
        for pid in np.flatnonzero(flows > threshold):
            ci = int(self.path_commodity[pid])
            key = (self.commodities[ci].name, int(self.path_orig_index[pid]))
            out[key] = out.get(key, 0.0) + float(flows[pid]) * scale
        return out


def segment_mins(
    values: np.ndarray,
    starts: np.ndarray,
    lens: np.ndarray,
    default: float,
) -> np.ndarray:
    """Per-segment minima over CSR ``values``; empty segments yield ``default``.

    ``np.minimum.reduceat`` returns ``values[starts[i]]`` for zero-length
    segments — the wrong answer for an empty reduction — so empty segments
    are masked out and filled with ``default`` explicitly. Dropping an
    empty segment's start is safe: consecutive retained starts still
    bracket exactly the non-empty segments' entries.
    """
    n = len(starts)
    if n == 0:
        return np.empty(0, dtype=np.float64)
    nonzero = lens > 0
    if nonzero.all():
        return np.minimum.reduceat(values, starts)
    out = np.full(n, default, dtype=np.float64)
    if values.size:
        out[nonzero] = np.minimum.reduceat(values, starts[nonzero])
    return out


@dataclass
class FlowIncidence:
    """Compiled flow×resource incidence for the data-plane rate kernels.

    The flow-level sibling of :class:`PathIncidence`, sharing its
    interning contract: resources are interned in first-appearance order
    over the given flows, duplicates within one flow's resource tuple are
    preserved (a flow crossing a resource twice loads it twice), and an
    unknown resource raises :class:`KeyError` at build time with the same
    message the scalar allocators raise. Capacities are converted to
    ``float64`` once at build; callers passing huge integer capacities
    (>2^53) would lose the exact-int division the pure-Python path
    performs, which no real input does (capacities are bytes/second).

    Consumed by :func:`repro.net.flow.max_min_fair_rates_vectorized` and
    :func:`repro.net.flow.clip_rates_to_capacity_vectorized`; both reduce
    over the CSR layout with ``reduceat``/``bincount`` exactly like the
    routing solvers reduce over :class:`PathIncidence`.
    """

    #: index → resource key, in first-appearance order.
    res_keys: List[ResourceKey]
    #: resource key → index (inverse of ``res_keys``).
    res_index: Dict[ResourceKey, int]
    #: per-resource capacity, ``float64``.
    caps: np.ndarray
    #: concatenated resource indices of all flows.
    flat_res: np.ndarray
    #: start offset of each flow's slice inside ``flat_res``.
    starts: np.ndarray
    #: number of resources on each flow.
    lens: np.ndarray

    @classmethod
    def build(
        cls,
        resource_seqs: Iterable[Sequence[ResourceKey]],
        capacities: Mapping[ResourceKey, float],
    ) -> "FlowIncidence":
        """Compile per-flow resource tuples over ``capacities``.

        Always strict: every referenced resource must exist in
        ``capacities`` (callers that tolerate unknown resources — the
        waterfill's zero-cap flows — simply exclude those flows from the
        sequence, matching the scalar validation scope).
        """
        res_keys: List[ResourceKey] = []
        res_index: Dict[ResourceKey, int] = {}
        caps_list: List[float] = []
        flat: List[int] = []
        starts: List[int] = []
        lens: List[int] = []
        get = res_index.get
        for seq in resource_seqs:
            starts.append(len(flat))
            lens.append(len(seq))
            for res in seq:
                idx = get(res)
                if idx is None:
                    if res not in capacities:
                        raise KeyError(
                            f"flow references unknown resource {res!r}"
                        )
                    idx = len(res_keys)
                    res_index[res] = idx
                    res_keys.append(res)
                    caps_list.append(float(capacities[res]))
                flat.append(idx)
        return cls(
            res_keys=res_keys,
            res_index=res_index,
            caps=np.asarray(caps_list, dtype=np.float64),
            flat_res=np.asarray(flat, dtype=np.intp),
            starts=np.asarray(starts, dtype=np.intp),
            lens=np.asarray(lens, dtype=np.intp),
        )

    @property
    def num_flows(self) -> int:
        return len(self.starts)

    @property
    def num_resources(self) -> int:
        return len(self.res_keys)

    def loads(self) -> np.ndarray:
        """Per-resource incidence counts (how many flow entries touch it)."""
        return np.bincount(self.flat_res, minlength=self.num_resources)

    def flow_mins(self, per_resource: np.ndarray, default: float) -> np.ndarray:
        """``min(per_resource[r] for r in flow)``, ``default`` if no resources."""
        return segment_mins(
            per_resource[self.flat_res], self.starts, self.lens, default
        )

    def usage(self, per_flow: np.ndarray) -> np.ndarray:
        """Per-resource usage implied by per-flow rates.

        ``bincount`` accumulates in entry order — the same partial-sum
        order as the scalar dict loop, so the sums are bit-identical.
        """
        per_entry = np.repeat(per_flow, self.lens)
        return np.bincount(
            self.flat_res, weights=per_entry, minlength=self.num_resources
        )


def outer_waterfill(inc: FlowIncidence, requested: np.ndarray) -> np.ndarray:
    """One-pass proportional waterfill of ``requested`` over ``inc``.

    The shared entry point of the data-plane clip kernel
    (:func:`repro.net.flow.clip_rates_to_capacity_vectorized`) and the
    sharded control plane's WAN-capacity reconciliation
    (:meth:`repro.core.controller.BDSController`): every resource whose
    aggregate request exceeds its capacity scales all its flows by the
    same ``cap / used`` factor, and a flow crossing several
    oversubscribed resources takes the most restrictive factor. One pass
    suffices because scaling only ever decreases loads.

    ``requested`` is a per-flow float64 array aligned with the incidence
    rows; the clipped per-flow array comes back in the same order. The
    arithmetic is exactly the scalar clip's: ``bincount`` accumulates
    usage in entry order (identical partial sums), the guard
    ``used > cap and used > 0`` matches elementwise, and the per-flow
    factor is a segment minimum (order-independent) — so results are
    bit-identical to the dict loop.
    """
    requested = np.asarray(requested, dtype=np.float64)
    usage = inc.usage(requested)
    scale = np.ones(inc.num_resources, dtype=np.float64)
    over = (usage > inc.caps) & (usage > 0)
    scale[over] = inc.caps[over] / usage[over]
    factor = inc.flow_mins(scale, default=1.0)
    return requested * factor
