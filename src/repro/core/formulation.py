"""The paper's §4.1 joint formulation — the "standard LP" baseline.

BDS's contribution is *decoupling* scheduling from routing. To quantify
what that buys (Fig. 13a running time), :class:`StandardLPRouter` is the
non-decoupled alternative: a drop-in replacement for
:class:`~repro.core.routing.BDSRouter` that solves one *joint* LP per
cycle with per-block variables ``w_{b,s}`` (relaxed to [0,1]) and
``f_{b,p}``, no block merging, exactly the Eq. 1–5 constraint structure.
Its running time grows quickly with the number of blocks, which is the
paper's point. (The full multi-cycle problem, the minimum ``N`` cycles
with a feasible plan, is tractable only at toy scale; it lives with its
tests in ``tests/test_formulation.py``.)
"""

from __future__ import annotations

import time as _time
from typing import Dict, List, Sequence, Tuple

from repro.core.decisions import ScheduledBlock
from repro.core.routing import RoutingDiagnostics
from repro.lp.model import LinearProgram
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
