"""Multi-commodity flow: exact LP vs the Garg-Konemann FPTAS."""

import math
import random

import pytest

from repro.lp.fptas import max_multicommodity_flow
from repro.lp.incidence import PathIncidence
from repro.lp.mcf import Commodity, MCFResult, solve_lp_incidence

from tests.oracles import PathMCF, commodity_flow, resource_usage, solve_lp_named


def commodity(name, *paths, demand=None):
    return Commodity(name=name, paths=tuple(tuple(p) for p in paths), demand=demand)


class TestCommodity:
    def test_requires_paths(self):
        with pytest.raises(ValueError):
            Commodity(name="c", paths=())

    def test_rejects_empty_path(self):
        with pytest.raises(ValueError):
            Commodity(name="c", paths=((),))

    def test_rejects_negative_demand(self):
        with pytest.raises(ValueError):
            commodity("c", ["l"], demand=-1)


class TestPathMCFLP:
    def test_single_commodity_single_path(self):
        problem = PathMCF([commodity("c", ["l"])], {"l": 10})
        result = problem.solve_lp()
        assert result.objective == pytest.approx(10)
        assert commodity_flow(result, "c") == pytest.approx(10)

    def test_demand_caps_flow(self):
        problem = PathMCF([commodity("c", ["l"], demand=4)], {"l": 10})
        assert problem.solve_lp().objective == pytest.approx(4)

    def test_two_paths_split(self):
        problem = PathMCF(
            [commodity("c", ["l1"], ["l2"])], {"l1": 3, "l2": 5}
        )
        result = problem.solve_lp()
        assert result.objective == pytest.approx(8)

    def test_shared_link_contention(self):
        problem = PathMCF(
            [
                commodity("a", ["shared", "pa"]),
                commodity("b", ["shared", "pb"]),
            ],
            {"shared": 6, "pa": 10, "pb": 10},
        )
        result = problem.solve_lp()
        assert result.objective == pytest.approx(6)

    def test_resource_usage_consistent(self):
        commodities = [commodity("a", ["x", "y"]), commodity("b", ["y", "z"])]
        caps = {"x": 4, "y": 5, "z": 3}
        problem = PathMCF(commodities, caps)
        result = problem.solve_lp()
        usage = resource_usage(result, commodities)
        for res, used in usage.items():
            assert used <= caps[res] + 1e-6

    def test_unknown_resource_rejected(self):
        with pytest.raises(KeyError):
            PathMCF([commodity("c", ["ghost"])], {"l": 1})

    def test_needs_commodities(self):
        with pytest.raises(ValueError):
            PathMCF([], {"l": 1})

    def test_arrays_solve_the_named_variable_program(self):
        """The LP built from the incidence arrays is the one the named
        variables built: the same objective and path flows, bit for bit,
        through repeated paths and resources, zero capacities, and zero,
        finite and unbounded demands."""
        rng = random.Random(1)
        solved = 0
        for _ in range(80):
            res = [f"r{i}" for i in range(rng.randint(1, 10))]
            caps = {r: rng.choice([0.0, 1.0, 2.5, rng.random() * 50]) for r in res}
            commodities = []
            for c in range(rng.randint(1, 6)):
                paths = [
                    [rng.choice(res) for _ in range(rng.randint(1, 4))]
                    for _ in range(rng.randint(1, 3))
                ]
                demand = rng.choice([None, 0.0, 3.0, rng.random() * 20, math.inf])
                commodities.append(commodity(c, *paths, paths[0], demand=demand))
            inc = PathIncidence.build(commodities, caps, strict=False)
            got, want = solve_lp_incidence(inc), solve_lp_named(inc)
            assert (got.objective, got.path_flows) == (want.objective, want.path_flows)
            solved += got.objective > 0
        assert solved > 40


class TestFPTAS:
    def test_matches_lp_single_commodity(self):
        caps = {"l": 10.0}
        commodities = [commodity("c", ["l"])]
        lp = PathMCF(commodities, caps).solve_lp()
        approx = max_multicommodity_flow(commodities, caps, epsilon=0.05)
        assert approx.objective >= (1 - 0.05) ** 3 * lp.objective
        assert approx.objective <= lp.objective + 1e-6

    def test_matches_lp_with_demands(self):
        caps = {"l1": 8.0, "l2": 4.0, "shared": 5.0}
        commodities = [
            commodity("a", ["shared", "l1"], demand=3),
            commodity("b", ["shared", "l2"]),
        ]
        lp = PathMCF(commodities, caps).solve_lp()
        approx = max_multicommodity_flow(commodities, caps, epsilon=0.05)
        assert approx.objective >= 0.85 * lp.objective

    def test_feasibility_exact(self):
        caps = {"x": 3.0, "y": 7.0, "z": 2.0}
        commodities = [
            commodity("a", ["x", "y"], ["z"]),
            commodity("b", ["y"], demand=5),
            commodity("c", ["x"], ["y", "z"]),
        ]
        result = max_multicommodity_flow(commodities, caps, epsilon=0.1)
        usage = {}
        for (name, pi), rate in result.path_flows.items():
            com = next(c for c in commodities if c.name == name)
            for res in com.paths[pi]:
                usage[res] = usage.get(res, 0.0) + rate
        for res, used in usage.items():
            assert used <= caps[res] + 1e-6

    def test_zero_demand_commodity(self):
        result = max_multicommodity_flow(
            [commodity("c", ["l"], demand=0)], {"l": 5}, epsilon=0.1
        )
        assert result.objective == 0.0

    def test_zero_capacity_resource(self):
        result = max_multicommodity_flow(
            [commodity("c", ["dead"], ["live"])], {"dead": 0.0, "live": 4.0}
        )
        assert result.objective == pytest.approx(4.0, rel=0.2)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            max_multicommodity_flow([commodity("c", ["l"])], {"l": 1}, epsilon=0)
        with pytest.raises(ValueError):
            max_multicommodity_flow([commodity("c", ["l"])], {"l": 1}, epsilon=1.0)

    def test_no_commodities_rejected(self):
        with pytest.raises(ValueError):
            max_multicommodity_flow([], {"l": 1})

    def test_solve_fptas_via_problem(self):
        problem = PathMCF([commodity("c", ["l"], demand=2)], {"l": 10})
        result = problem.solve_fptas(epsilon=0.1)
        assert isinstance(result, MCFResult)
        assert result.objective == pytest.approx(2.0, rel=0.05)

    def test_tiny_demands_not_lost(self):
        # Regression: sub-nanobyte-scale demands must still route.
        caps = {"l": 2.0e7}
        commodities = [commodity("c", ["l"], demand=1e-6)]
        result = max_multicommodity_flow(commodities, caps, epsilon=0.1)
        assert result.objective == pytest.approx(1e-6, rel=0.1)
