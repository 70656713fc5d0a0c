"""The paper's §4.1 joint formulation — the "standard LP" baseline.

BDS's contribution is *decoupling* scheduling from routing. To quantify
what that buys (Fig. 13a running time, Fig. 13b near-optimality), this
module implements the non-decoupled alternative two ways:

* :class:`StandardLPRouter` — a drop-in replacement for
  :class:`~repro.core.routing.BDSRouter` that solves one *joint* LP per
  cycle with per-block variables ``w_{b,s}`` (relaxed to [0,1]) and
  ``f_{b,p}``, no block merging, exactly the Eq. 1–5 constraint structure.
  Its running time grows quickly with the number of blocks, which is the
  paper's point.
* :class:`JointFormulation` — the full multi-cycle problem: find the
  minimum number of cycles ``N`` for which a feasible transfer plan exists
  (the §4.1 objective). Solved by a linear search over ``N`` with one LP
  feasibility check each; tractable only at toy scale, as the paper notes.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.decisions import ScheduledBlock
from repro.core.routing import RoutingDiagnostics
from repro.lp.model import LinearProgram, LPError
from repro.net.directive import TransferDirective
from repro.net.topology import ResourceKey
from repro.net.view import ClusterView
from repro.utils.validation import check_positive

BlockId = Tuple[str, int]


class StandardLPRouter:
    """Per-cycle joint ⟨w, f⟩ LP with no decoupling and no merging.

    Interface-compatible with :class:`~repro.core.routing.BDSRouter` so a
    :class:`~repro.core.controller.BDSController` can be built with either;
    the scheduler's selections are treated as the *candidate* set and the
    LP itself decides which of them to serve this cycle (the relaxed
    ``w_{b,s}``).
    """

    backend = "standard-lp"

    def __init__(self, max_sources_per_block: int = 3) -> None:
        check_positive("max_sources_per_block", max_sources_per_block)
        self.max_sources_per_block = max_sources_per_block

    def route(
        self,
        view: ClusterView,
        selections: Sequence[ScheduledBlock],
        batch=None,
    ) -> Tuple[List[TransferDirective], RoutingDiagnostics]:
        # ``batch`` (the scheduler's interned-id selection companion) is
        # accepted for router-API compatibility but unused: the standard
        # formulation is the optimality yardstick, not a hot path.
        started = _time.perf_counter()
        if not selections:
            return [], RoutingDiagnostics(
                backend=self.backend,
                num_selections=0,
                num_commodities=0,
                objective=0.0,
                runtime=_time.perf_counter() - started,
            )
        dt = view.cycle_seconds
        lp = LinearProgram(maximize=True)

        # Per-selection variables and bookkeeping.
        flow_vars: Dict[Tuple[int, int], str] = {}  # (sel idx, path idx) -> var
        w_vars: Dict[int, str] = {}
        sources_per_sel: Dict[int, List[str]] = {}
        usable: List[int] = []
        for i, entry in enumerate(selections):
            sources = [
                s
                for s in view.eligible_sources(entry.block.block_id)
                if s != entry.dst_server
            ]
            sources.sort()
            sources = sources[: self.max_sources_per_block]
            if not sources:
                continue
            usable.append(i)
            sources_per_sel[i] = sources
            w_vars[i] = lp.add_variable(f"w_{i}", lower=0.0, upper=1.0)
            for pi in range(len(sources)):
                flow_vars[(i, pi)] = lp.add_variable(
                    f"f_{i}_{pi}", lower=0.0, objective=1.0
                )
        if not usable:
            return [], RoutingDiagnostics(
                backend=self.backend,
                num_selections=len(selections),
                num_commodities=0,
                objective=0.0,
                runtime=_time.perf_counter() - started,
            )

        # Eq. 1: path flow <= w * Rdown(dst); flow <= min link capacity
        # along the path is implied by the Eq. 2 resource constraints.
        for i in usable:
            entry = selections[i]
            rdown = view.topology.servers[entry.dst_server].downlink
            for pi in range(len(sources_per_sel[i])):
                lp.add_constraint(
                    {flow_vars[(i, pi)]: 1.0, w_vars[i]: -rdown}, "<=", 0.0
                )

        # Eq. 2: per-resource capacity over all paths.
        by_resource: Dict[ResourceKey, Dict[str, float]] = {}
        for i in usable:
            entry = selections[i]
            for pi, src in enumerate(sources_per_sel[i]):
                path = view.flow_resources(src, entry.dst_server)
                if path is None:
                    # Partitioned source: pin its flow variable to zero.
                    lp.add_constraint({flow_vars[(i, pi)]: 1.0}, "<=", 0.0)
                    continue
                for res in set(path):
                    by_resource.setdefault(res, {})[flow_vars[(i, pi)]] = 1.0
        for res, coeffs in by_resource.items():
            cap = view.bulk_capacities.get(res, 0.0)
            lp.add_constraint(coeffs, "<=", cap)

        # Eq. 3: a selected block must complete within the cycle:
        # w * rho(b) <= sum_p f * dt.
        for i in usable:
            entry = selections[i]
            remaining = entry.block.size - view.received_bytes(
                entry.block.block_id, entry.dst_server
            )
            coeffs: Dict[str, float] = {w_vars[i]: remaining}
            for pi in range(len(sources_per_sel[i])):
                coeffs[flow_vars[(i, pi)]] = -dt
            lp.add_constraint(coeffs, "<=", 0.0)
            # A block cannot absorb more than its remaining bytes per cycle.
            lp.add_constraint(
                {
                    flow_vars[(i, pi)]: dt
                    for pi in range(len(sources_per_sel[i]))
                },
                "<=",
                remaining,
            )

        solution = lp.solve()

        directives: List[TransferDirective] = []
        for i in usable:
            entry = selections[i]
            for pi, src in enumerate(sources_per_sel[i]):
                rate = solution.values[flow_vars[(i, pi)]]
                if rate <= 1e-9:
                    continue
                directives.append(
                    TransferDirective(
                        job_id=entry.job_id,
                        block_ids=(entry.block.block_id,),
                        src_server=src,
                        dst_server=entry.dst_server,
                        rate_cap=rate,
                    )
                )
        return directives, RoutingDiagnostics(
            backend=self.backend,
            num_selections=len(selections),
            num_commodities=len(usable),
            objective=solution.objective,
            runtime=_time.perf_counter() - started,
        )


@dataclass
class JointPlan:
    """Result of the multi-cycle joint formulation."""

    num_cycles: int
    # (cycle, block index, path index) -> bytes/second.
    flows: Dict[Tuple[int, int, int], float]
    feasible: bool


class JointFormulation:
    """Minimum-cycle transfer planning, the intractable §4.1 original.

    ``blocks`` are byte sizes; ``paths_per_block`` lists, per block, the
    candidate paths (tuples of resource keys); ``capacities`` bound each
    resource per cycle. The plan must ship every block's full size within
    ``N`` cycles of ``dt`` seconds; the solver searches the smallest such N.
    """

    def __init__(
        self,
        blocks: Sequence[float],
        paths_per_block: Sequence[Sequence[Tuple[ResourceKey, ...]]],
        capacities: Mapping[ResourceKey, float],
        dt: float = 3.0,
    ) -> None:
        if len(blocks) != len(paths_per_block):
            raise ValueError("blocks and paths_per_block must align")
        if not blocks:
            raise ValueError("need at least one block")
        check_positive("dt", dt)
        self.blocks = [float(b) for b in blocks]
        self.paths = [list(p) for p in paths_per_block]
        self.capacities = dict(capacities)
        self.dt = dt

    def feasible_in(self, num_cycles: int) -> Optional[JointPlan]:
        """LP feasibility: can everything ship within ``num_cycles``?"""
        check_positive("num_cycles", num_cycles)
        lp = LinearProgram(maximize=False)
        flow_vars: Dict[Tuple[int, int, int], str] = {}
        for k in range(num_cycles):
            for bi, paths in enumerate(self.paths):
                for pi in range(len(paths)):
                    flow_vars[(k, bi, pi)] = lp.add_variable(
                        f"f_{k}_{bi}_{pi}", lower=0.0, objective=1.0
                    )
        # Per cycle per resource capacity.
        for k in range(num_cycles):
            by_resource: Dict[ResourceKey, Dict[str, float]] = {}
            for bi, paths in enumerate(self.paths):
                for pi, path in enumerate(paths):
                    for res in set(path):
                        by_resource.setdefault(res, {})[
                            flow_vars[(k, bi, pi)]
                        ] = 1.0
            for res, coeffs in by_resource.items():
                if res not in self.capacities:
                    raise KeyError(f"unknown resource {res!r}")
                lp.add_constraint(coeffs, "<=", self.capacities[res])
        # Eq. 4: full delivery of every block across all cycles.
        for bi, size in enumerate(self.blocks):
            coeffs = {
                flow_vars[(k, bi, pi)]: self.dt
                for k in range(num_cycles)
                for pi in range(len(self.paths[bi]))
            }
            if not coeffs:
                return None  # a block with no path can never ship
            lp.add_constraint(coeffs, ">=", size)
        try:
            solution = lp.solve()
        except LPError:
            return None
        flows = {
            key: solution.values[name]
            for key, name in flow_vars.items()
            if solution.values[name] > 1e-9
        }
        return JointPlan(num_cycles=num_cycles, flows=flows, feasible=True)

    def solve_min_cycles(self, max_cycles: int = 64) -> JointPlan:
        """Linear search for the minimum feasible N (the paper's objective).

        The search is linear rather than binary because infeasibility at N
        implies nothing cheap about N+1 bounds in general LP solvers, and
        N is small in every instance this class is meant for.
        """
        check_positive("max_cycles", max_cycles)
        for n in range(1, max_cycles + 1):
            plan = self.feasible_in(n)
            if plan is not None:
                return plan
        return JointPlan(num_cycles=max_cycles, flows={}, feasible=False)
