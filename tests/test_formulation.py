"""The joint (non-decoupled) formulation and the standard-LP router."""

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import pytest

from repro.core import BDSController
from repro.core.formulation import StandardLPRouter
from repro.core.scheduling import RarestFirstScheduler
from repro.lp.model import LinearProgram, LPError
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import ResourceKey, Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import GB, MB, MBps
from repro.utils.validation import check_positive


def make_view(blocks=4):
    topo = Topology.full_mesh(
        num_dcs=2, servers_per_dc=2, wan_capacity=1 * GB, uplink=20 * MBps
    )
    job = MulticastJob(
        job_id="j",
        src_dc="dc0",
        dst_dcs=("dc1",),
        total_bytes=blocks * 2 * MB,
        block_size=2 * MB,
    )
    job.bind(topo)
    sim = Simulation(topo, [job], BDSController(seed=0), SimConfig())
    return sim.snapshot_view()


class TestStandardLPRouter:
    def test_produces_valid_directives(self):
        view = make_view()
        selections = RarestFirstScheduler().select(view)
        directives, diag = StandardLPRouter().route(view, selections)
        assert directives
        assert diag.backend == "standard-lp"
        for d in directives:
            assert d.rate_cap is not None and d.rate_cap > 0
            assert view.store.has(d.src_server, d.block_ids[0])

    def test_respects_capacities(self):
        view = make_view(blocks=8)
        selections = RarestFirstScheduler().select(view)
        directives, _ = StandardLPRouter().route(view, selections)
        usage = {}
        for d in directives:
            for res in view.topology.flow_resources(d.src_server, d.dst_server):
                usage[res] = usage.get(res, 0.0) + (d.rate_cap or 0.0)
        for res, used in usage.items():
            assert used <= view.bulk_capacities[res] * 1.001

    def test_empty_selection(self):
        view = make_view()
        directives, diag = StandardLPRouter().route(view, [])
        assert directives == []
        assert diag.num_selections == 0

    def test_slower_than_decoupled_router_at_scale(self):
        """The Fig. 13a claim: joint LP runtime grows much faster."""
        view = make_view(blocks=128)
        selections = RarestFirstScheduler().select(view)
        controller = BDSController(seed=0)
        _, fast = controller.router.route(view, selections)
        _, slow = StandardLPRouter().route(view, selections)
        assert slow.runtime > fast.runtime

    def test_validation(self):
        with pytest.raises(ValueError):
            StandardLPRouter(max_sources_per_block=0)


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
    ``N`` cycles of ``dt`` seconds.
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


def min_cycles(formulation: JointFormulation, max_cycles: int = 64) -> JointPlan:
    """The §4.1 objective, the minimum feasible ``N``, by linear search:
    infeasibility at ``N`` bounds nothing about ``N + 1`` cheaply, and
    ``N`` is small in every instance here."""
    for n in range(1, max_cycles + 1):
        plan = formulation.feasible_in(n)
        if plan is not None:
            return plan
    return JointPlan(num_cycles=max_cycles, flows={}, feasible=False)


class TestJointFormulation:
    def test_single_block_single_cycle(self):
        plan = min_cycles(JointFormulation(
            blocks=[6.0], paths_per_block=[[("l",)]], capacities={"l": 2.0}, dt=3.0
        ))
        assert plan.feasible
        assert plan.num_cycles == 1

    def test_volume_needs_more_cycles(self):
        plan = min_cycles(JointFormulation(
            blocks=[12.0], paths_per_block=[[("l",)]], capacities={"l": 2.0}, dt=3.0
        ))
        assert plan.num_cycles == 2

    def test_parallel_paths_reduce_cycles(self):
        single = min_cycles(JointFormulation(
            blocks=[12.0], paths_per_block=[[("a",)]], capacities={"a": 2.0, "b": 2.0}
        ))
        double = min_cycles(JointFormulation(
            blocks=[12.0],
            paths_per_block=[[("a",), ("b",)]],
            capacities={"a": 2.0, "b": 2.0},
        ))
        assert double.num_cycles < single.num_cycles

    def test_contending_blocks(self):
        # Two 6-unit blocks through one 2-unit/s link: 12 units / 6 per cycle.
        plan = min_cycles(JointFormulation(
            blocks=[6.0, 6.0],
            paths_per_block=[[("l",)], [("l",)]],
            capacities={"l": 2.0},
        ))
        assert plan.num_cycles == 2

    def test_infeasible_returns_flag(self):
        plan = min_cycles(JointFormulation(
            blocks=[1000.0], paths_per_block=[[("l",)]], capacities={"l": 0.001}
        ), max_cycles=3)
        assert not plan.feasible

    def test_flows_cover_blocks(self):
        formulation = JointFormulation(
            blocks=[6.0, 6.0],
            paths_per_block=[[("a",)], [("b",)]],
            capacities={"a": 2.0, "b": 2.0},
        )
        plan = min_cycles(formulation)
        shipped = {}
        for (k, bi, pi), rate in plan.flows.items():
            shipped[bi] = shipped.get(bi, 0.0) + rate * formulation.dt
        assert shipped[0] >= 6.0 - 1e-6
        assert shipped[1] >= 6.0 - 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            JointFormulation(blocks=[], paths_per_block=[], capacities={})
        with pytest.raises(ValueError):
            JointFormulation(
                blocks=[1.0], paths_per_block=[], capacities={}
            )

    def test_unknown_resource_raises(self):
        formulation = JointFormulation(
            blocks=[1.0], paths_per_block=[[("ghost",)]], capacities={"l": 1.0}
        )
        with pytest.raises(KeyError):
            formulation.feasible_in(1)
