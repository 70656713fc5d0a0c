"""Max-min fair allocation and capacity clipping."""

import pytest

from tests.oracles import (
    Flow,
    clip_by_id,
    fair_rates_by_id,
    max_min_fair_rates_reference,
    resource_utilization,
)


def flow(fid, *resources, rate_cap=None, demand=None):
    return Flow(
        flow_id=fid, resources=tuple(resources), rate_cap=rate_cap, demand=demand
    )


class TestMaxMinFair:
    def test_single_flow_gets_bottleneck(self):
        rates = fair_rates_by_id([flow("f", "a", "b")], {"a": 10, "b": 4})
        assert rates["f"] == pytest.approx(4)

    def test_equal_split_on_shared_link(self):
        flows = [flow("f1", "l"), flow("f2", "l")]
        rates = fair_rates_by_id(flows, {"l": 10})
        assert rates["f1"] == pytest.approx(5)
        assert rates["f2"] == pytest.approx(5)

    def test_classic_three_flow_example(self):
        # f1 uses l1, f2 uses l2, f3 uses both; l1=10, l2=4.
        flows = [flow("f1", "l1"), flow("f2", "l2"), flow("f3", "l1", "l2")]
        rates = fair_rates_by_id(flows, {"l1": 10, "l2": 4})
        assert rates["f3"] == pytest.approx(2)
        assert rates["f2"] == pytest.approx(2)
        assert rates["f1"] == pytest.approx(8)

    def test_rate_cap_releases_capacity(self):
        flows = [flow("f1", "l", rate_cap=2), flow("f2", "l")]
        rates = fair_rates_by_id(flows, {"l": 10})
        assert rates["f1"] == pytest.approx(2)
        assert rates["f2"] == pytest.approx(8)

    def test_demand_behaves_like_cap(self):
        flows = [flow("f1", "l", demand=1), flow("f2", "l")]
        rates = fair_rates_by_id(flows, {"l": 4})
        assert rates["f1"] == pytest.approx(1)
        assert rates["f2"] == pytest.approx(3)

    def test_zero_cap_flow_gets_zero(self):
        flows = [flow("f1", "l", rate_cap=0), flow("f2", "l")]
        rates = fair_rates_by_id(flows, {"l": 4})
        assert rates["f1"] == 0.0
        assert rates["f2"] == pytest.approx(4)

    def test_no_flows(self):
        assert fair_rates_by_id([], {"l": 1}) == {}

    def test_unknown_resource_raises(self):
        with pytest.raises(KeyError):
            fair_rates_by_id([flow("f", "ghost")], {"l": 1})

    def test_unbounded_raises(self):
        # No capacity binds and no caps: allocation would be infinite.
        with pytest.raises(ValueError):
            fair_rates_by_id([flow("f")], {"l": 1})

    def test_never_exceeds_capacity(self):
        flows = [
            flow("a", "l1", "l2"),
            flow("b", "l2", "l3"),
            flow("c", "l1", "l3"),
            flow("d", "l2"),
        ]
        caps = {"l1": 7, "l2": 3, "l3": 5}
        rates = fair_rates_by_id(flows, caps)
        usage = resource_utilization(flows, rates)
        for res, cap in caps.items():
            assert usage.get(res, 0) <= cap + 1e-6


class TestClipping:
    def test_within_capacity_unchanged(self):
        flows = [flow(1, "l")]
        out = clip_by_id(flows, {1: 3}, {"l": 10})
        assert out[1] == pytest.approx(3)

    def test_oversubscription_scaled_proportionally(self):
        flows = [flow(1, "l"), flow(2, "l")]
        out = clip_by_id(flows, {1: 8, 2: 4}, {"l": 6})
        assert out[1] == pytest.approx(4)
        assert out[2] == pytest.approx(2)

    def test_most_restrictive_resource_wins(self):
        flows = [flow(1, "a", "b"), flow(2, "b")]
        out = clip_by_id(flows, {1: 10, 2: 0}, {"a": 5, "b": 10})
        assert out[1] == pytest.approx(5)

    def test_missing_request_treated_as_zero(self):
        flows = [flow(1, "l")]
        out = clip_by_id(flows, {}, {"l": 10})
        assert out[1] == 0.0

    def test_unknown_resource_raises(self):
        with pytest.raises(KeyError):
            clip_by_id([flow(1, "ghost")], {1: 1}, {"l": 1})

    def test_result_is_feasible(self):
        flows = [flow(i, "x", f"l{i % 2}") for i in range(6)]
        caps = {"x": 4, "l0": 2, "l1": 3}
        requested = {i: 5.0 for i in range(6)}
        out = clip_by_id(flows, requested, caps)
        usage = resource_utilization(flows, out)
        for res, cap in caps.items():
            assert usage.get(res, 0.0) <= cap + 1e-9


class TestIncrementalLoadEquivalence:
    """The incremental ``load`` bookkeeping must match the
    rebuild-every-iteration reference bit-for-bit (exact dict equality,
    no tolerance): the same floats in the same order feed both paths."""

    def test_matches_reference_on_random_inputs(self):
        from repro.utils.rng import make_rng

        rng = make_rng(123)
        sizes = []
        for _trial in range(25):
            num_res = int(rng.integers(2, 12))
            capacities = {
                f"r{i}": float(rng.uniform(1, 20)) for i in range(num_res)
            }
            flows = []
            sizes.append(int(rng.integers(1, 128)))
            for i in range(sizes[-1]):
                k = int(rng.integers(1, min(4, num_res) + 1))
                resources = tuple(
                    f"r{int(x)}"
                    for x in rng.choice(num_res, size=k, replace=False)
                )
                rate_cap = (
                    float(rng.uniform(0, 10)) if rng.random() < 0.5 else None
                )
                demand = (
                    float(rng.uniform(0, 5)) if rng.random() < 0.3 else None
                )
                flows.append(
                    Flow(
                        flow_id=i,
                        resources=resources,
                        rate_cap=rate_cap,
                        demand=demand,
                    )
                )
            assert fair_rates_by_id(
                flows, capacities
            ) == max_min_fair_rates_reference(flows, capacities)
        # Inputs of a handful of flows and of dozens were compared.
        assert min(sizes) < 10 and max(sizes) > 100

    def test_matches_reference_on_classic_example(self):
        flows = [flow("f1", "l1"), flow("f2", "l2"), flow("f3", "l1", "l2")]
        caps = {"l1": 10, "l2": 4}
        assert fair_rates_by_id(flows, caps) == max_min_fair_rates_reference(
            flows, caps
        )
