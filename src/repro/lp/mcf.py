"""Path-based maximum multi-commodity flow (MCF).

BDS's routing step (§4.4) is "essentially an integer MCF problem", made
tractable by (a) the fractional relaxation over explicit candidate paths and
(b) an FPTAS. This module defines the commodity, the result and the exact-LP
solution over a :class:`~repro.lp.incidence.PathIncidence`
(:func:`solve_lp_incidence`, the ``routing_backend="lp"`` path);
:mod:`repro.lp.fptas` provides the ε-approximate fast path.

A *commodity* is a merged block group (same source/destination server pair
after §5.1 blocks merging) with an explicit set of candidate overlay paths,
each path being the tuple of resources it consumes, and a demand cap (the
bytes/second the group can still usefully absorb this cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

import numpy as np

from repro.lp.model import LPError
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


def solve_lp_incidence(incidence) -> MCFResult:
    """Exact max-MCF over a pre-built incidence structure.

    One variable per *usable* path (paths through zero-capacity resources
    and zero-demand commodities can never carry flow, so the incidence
    has none for them — the optimum is unchanged), bounded below by 0.
    The constraint rows are one CSR built from the incidence arrays: a
    capacity row per resource some usable path crosses, ascending, then
    a demand row per capped commodity with a usable path. A path's
    coefficient in a resource's row is how many times it crosses that
    resource — the charge the greedy backend and the FPTAS apply too.
    scipy is imported here, as :meth:`LinearProgram.solve` imports it.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    inc = incidence
    n = inc.num_paths
    if n == 0:
        return MCFResult(objective=0.0, path_flows={})
    used, res_row = np.unique(inc.flat_res, return_inverse=True)
    # Per path: whether its commodity's demand caps it.
    finite = inc.demands[inc.path_commodity] < np.inf
    capped, demand_row = np.unique(inc.path_commodity[finite], return_inverse=True)
    rows = np.concatenate((res_row, demand_row + len(used)))
    cols = np.concatenate(
        (np.repeat(np.arange(n), inc.path_lens), np.flatnonzero(finite))
    )
    a_ub = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(len(used) + len(capped), n)
    )
    b_ub = np.concatenate((inc.caps[used], inc.demands[capped]))
    result = linprog(-np.ones(n), A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if not result.success:
        raise LPError(f"LP solve failed: {result.message} (status {result.status})")
    return MCFResult(-float(result.fun), inc.flows_to_path_map(result.x))
