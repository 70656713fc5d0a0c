"""Path-based maximum multi-commodity flow (MCF).

BDS's routing step (§4.4) is "essentially an integer MCF problem", made
tractable by (a) the fractional relaxation over explicit candidate paths and
(b) an FPTAS. This module defines the problem container and its exact-LP
solution; :mod:`repro.lp.fptas` provides the ε-approximate fast path.

A *commodity* is a merged block group (same source/destination server pair
after §5.1 blocks merging) with an explicit set of candidate overlay paths,
each path being the tuple of resources it consumes, and a demand cap (the
bytes/second the group can still usefully absorb this cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.lp.model import LinearProgram
from repro.net.topology import ResourceKey


@dataclass(frozen=True)
class Commodity:
    """One flow demand with explicit candidate paths.

    ``paths`` lists each candidate as a tuple of resource keys; ``demand``
    caps the commodity's total rate (``None`` means unbounded, limited only
    by capacities).
    """

    name: Hashable
    paths: Tuple[Tuple[ResourceKey, ...], ...]
    demand: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.paths:
            raise ValueError(f"commodity {self.name!r} has no candidate paths")
        if any(not p for p in self.paths):
            raise ValueError(f"commodity {self.name!r} has an empty path")
        if self.demand is not None and self.demand < 0:
            raise ValueError("demand must be >= 0 or None")


@dataclass
class MCFResult:
    """Solution of a max-MCF instance.

    ``path_flows[(commodity_name, path_index)]`` is the rate on that path;
    ``objective`` is the total rate across all commodities.
    """

    objective: float
    path_flows: Dict[Tuple[Hashable, int], float]

    def commodity_flow(self, name: Hashable) -> float:
        """Total allocated rate of one commodity."""
        return sum(
            rate for (cname, _i), rate in self.path_flows.items() if cname == name
        )

    def resource_usage(
        self, commodities: Sequence[Commodity]
    ) -> Dict[ResourceKey, float]:
        """Aggregate usage per resource implied by the path flows."""
        by_name = {c.name: c for c in commodities}
        usage: Dict[ResourceKey, float] = {}
        for (cname, pi), rate in self.path_flows.items():
            for res in by_name[cname].paths[pi]:
                usage[res] = usage.get(res, 0.0) + rate
        return usage


class PathMCF:
    """A max-throughput MCF instance over explicit paths.

    Objective (paper Eq. 5): maximize total flow. Constraints: per-resource
    capacity (Eq. 1 & 2 collapsed onto the resource set of each path) and
    per-commodity demand (the per-cycle volume bound of Eq. 3).

    On construction the instance is compiled once into a
    :class:`~repro.lp.incidence.PathIncidence`; the exact LP and the
    FPTAS both solve over those shared arrays.
    """

    def __init__(
        self,
        commodities: Sequence[Commodity],
        capacities: Mapping[ResourceKey, float],
    ) -> None:
        if not commodities:
            raise ValueError("need at least one commodity")
        self.commodities = list(commodities)
        self.capacities = dict(capacities)
        for commodity in self.commodities:
            for path in commodity.paths:
                for res in path:
                    if res not in self.capacities:
                        raise KeyError(
                            f"path of {commodity.name!r} uses unknown resource {res!r}"
                        )
        from repro.lp.incidence import PathIncidence

        self.incidence = PathIncidence.build(
            self.commodities, self.capacities, strict=True
        )

    def solve_lp(self) -> MCFResult:
        """Exact solution via the dense LP (the Fig. 13a 'standard' route)."""
        return solve_lp_incidence(self.incidence)

    def solve_fptas(self, epsilon: float = 0.1, warm=None) -> MCFResult:
        """ε-approximate solution via Fleischer's FPTAS (the BDS fast path).

        ``warm`` forwards a previous solve's
        :class:`~repro.lp.fptas.FPTASWarmState`; see
        :func:`~repro.lp.fptas.max_multicommodity_flow`.
        """
        from repro.lp.fptas import max_multicommodity_flow

        result = max_multicommodity_flow(
            self.commodities,
            self.capacities,
            epsilon=epsilon,
            warm=warm,
            incidence=self.incidence,
        )
        return MCFResult(objective=result.objective, path_flows=result.path_flows)


def solve_lp_incidence(incidence) -> MCFResult:
    """Exact max-MCF over a pre-built incidence structure.

    Builds one variable per *usable* path (paths through zero-capacity
    resources and zero-demand commodities can never carry flow, so their
    variables are elided — the optimum is unchanged), one capacity row per
    resource, and one demand row per capped commodity. A path's
    coefficient in a resource's row is how many times it crosses that
    resource — the charge :meth:`MCFResult.resource_usage`, the greedy
    backend and the FPTAS all apply.
    """
    inc = incidence
    if inc.num_paths == 0:
        return MCFResult(objective=0.0, path_flows={})
    lp = LinearProgram(maximize=True)
    var_names: List[str] = []
    for pid in range(inc.num_paths):
        ci = int(inc.path_commodity[pid])
        name = f"f_{ci}_{int(inc.path_orig_index[pid])}"
        var_names.append(name)
        lp.add_variable(name, lower=0.0, objective=1.0)

    # Per-resource capacity constraints, in resource interning order.
    by_resource: Dict[int, Dict[str, float]] = {}
    for pid in range(inc.num_paths):
        name = var_names[pid]
        for ri in inc.path_resources(pid).tolist():
            row = by_resource.setdefault(ri, {})
            row[name] = row.get(name, 0.0) + 1.0
    for ri in sorted(by_resource):
        lp.add_constraint(by_resource[ri], "<=", float(inc.caps[ri]))

    # Per-commodity demand caps over the commodity's usable paths.
    for ci in range(inc.num_commodities):
        demand = inc.demands[ci]
        lo, hi = inc.commodity_path_range[ci]
        if not (demand < float("inf")) or lo == hi:
            continue
        lp.add_constraint(
            {var_names[pid]: 1.0 for pid in range(lo, hi)}, "<=", float(demand)
        )

    solution = lp.solve()
    flows: Dict[Tuple[Hashable, int], float] = {}
    for pid, name in enumerate(var_names):
        rate = solution.values[name]
        if rate > 1e-12:
            ci = int(inc.path_commodity[pid])
            key = (inc.commodities[ci].name, int(inc.path_orig_index[pid]))
            flows[key] = flows.get(key, 0.0) + rate
    return MCFResult(objective=solution.objective, path_flows=flows)
