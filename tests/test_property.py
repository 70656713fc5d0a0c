"""Property-based tests (hypothesis) on core invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.appendix import (
    balanced_completion_time,
    imbalanced_completion_time,
)
from repro.analysis.metrics import empirical_cdf
from repro.core.bandwidth import residual_budget
from repro.lp.fptas import max_multicommodity_flow
from repro.lp.mcf import Commodity, PathMCF
from repro.net.flow import Flow, max_min_fair_rates, resource_utilization
from repro.overlay.blocks import split_into_blocks, total_size
from repro.workload.distributions import PiecewiseLinearCDF


# ---------------------------------------------------------------------------
# Block splitting
# ---------------------------------------------------------------------------


@given(
    num_blocks=st.floats(min_value=0.01, max_value=2000.0),
    block=st.floats(min_value=1.0, max_value=1e9),
)
@settings(max_examples=200)
def test_split_conserves_bytes(num_blocks, block):
    total = num_blocks * block  # bounded block count, any magnitude
    blocks = split_into_blocks("j", total, block)
    assert total_size(blocks) == pytest.approx(total, rel=1e-9)
    # Every block except the last is exactly block-sized.
    for b in blocks[:-1]:
        assert b.size == pytest.approx(block)
    assert blocks[-1].size <= block * (1 + 1e-9)
    assert [b.index for b in blocks] == list(range(len(blocks)))


# ---------------------------------------------------------------------------
# Max-min fairness
# ---------------------------------------------------------------------------


@st.composite
def flow_system(draw):
    num_resources = draw(st.integers(min_value=1, max_value=6))
    resources = [f"r{i}" for i in range(num_resources)]
    caps = {
        r: draw(st.floats(min_value=0.5, max_value=100.0)) for r in resources
    }
    num_flows = draw(st.integers(min_value=1, max_value=8))
    flows = []
    for i in range(num_flows):
        size = draw(st.integers(min_value=1, max_value=num_resources))
        used = draw(
            st.lists(
                st.sampled_from(resources),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        cap = draw(
            st.one_of(st.none(), st.floats(min_value=0.0, max_value=50.0))
        )
        flows.append(Flow(flow_id=i, resources=tuple(used), rate_cap=cap))
    return flows, caps


@given(flow_system())
@settings(max_examples=200, deadline=None)
def test_max_min_fair_is_feasible_and_respects_caps(system):
    flows, caps = system
    rates = max_min_fair_rates(flows, caps)
    usage = resource_utilization(flows, rates)
    for res, used in usage.items():
        assert used <= caps[res] * (1 + 1e-6) + 1e-9
    for flow in flows:
        if flow.rate_cap is not None:
            assert rates[flow.flow_id] <= flow.rate_cap * (1 + 1e-6) + 1e-9
        assert rates[flow.flow_id] >= 0


@given(flow_system())
@settings(max_examples=100, deadline=None)
def test_max_min_fair_leaves_no_easy_improvement(system):
    """No flow could be given +epsilon without some resource or cap binding."""
    flows, caps = system
    rates = max_min_fair_rates(flows, caps)
    usage = resource_utilization(flows, rates)
    for flow in flows:
        capped = (
            flow.rate_cap is not None
            and rates[flow.flow_id] >= flow.rate_cap - 1e-6
        )
        saturated = any(
            usage[res] >= caps[res] * (1 - 1e-6) - 1e-9 for res in flow.resources
        )
        assert capped or saturated


# ---------------------------------------------------------------------------
# MCF / FPTAS
# ---------------------------------------------------------------------------


@st.composite
def mcf_instance(draw):
    num_resources = draw(st.integers(min_value=2, max_value=5))
    resources = [f"r{i}" for i in range(num_resources)]
    caps = {
        r: draw(st.floats(min_value=1.0, max_value=50.0)) for r in resources
    }
    num_commodities = draw(st.integers(min_value=1, max_value=4))
    commodities = []
    for c in range(num_commodities):
        num_paths = draw(st.integers(min_value=1, max_value=3))
        paths = []
        for _ in range(num_paths):
            size = draw(st.integers(min_value=1, max_value=num_resources))
            path = draw(
                st.lists(
                    st.sampled_from(resources),
                    min_size=size,
                    max_size=size,
                    unique=True,
                )
            )
            paths.append(tuple(path))
        demand = draw(
            st.one_of(st.none(), st.floats(min_value=0.5, max_value=30.0))
        )
        commodities.append(
            Commodity(name=f"c{c}", paths=tuple(paths), demand=demand)
        )
    return commodities, caps


@given(mcf_instance())
@settings(max_examples=50, deadline=None)
def test_fptas_is_feasible_and_near_optimal(instance):
    commodities, caps = instance
    lp = PathMCF(commodities, caps).solve_lp()
    approx = max_multicommodity_flow(commodities, caps, epsilon=0.1)
    # Feasibility: per-resource usage within capacity.
    usage = {}
    for (name, pi), rate in approx.path_flows.items():
        commodity = next(c for c in commodities if c.name == name)
        for res in commodity.paths[pi]:
            usage[res] = usage.get(res, 0.0) + rate
    for res, used in usage.items():
        assert used <= caps[res] * (1 + 1e-6)
    # Demand feasibility.
    for commodity in commodities:
        if commodity.demand is not None:
            flowed = sum(
                rate
                for (name, _pi), rate in approx.path_flows.items()
                if name == commodity.name
            )
            assert flowed <= commodity.demand * (1 + 1e-6)
    # Near-optimality: within (1 - eps)^3 of the LP optimum.
    assert approx.objective >= (1 - 0.1) ** 3 * lp.objective - 1e-9
    assert approx.objective <= lp.objective * (1 + 1e-6) + 1e-9


# ---------------------------------------------------------------------------
# Bandwidth separation
# ---------------------------------------------------------------------------


@given(
    capacity=st.floats(min_value=0.1, max_value=1e9),
    online=st.floats(min_value=0.0, max_value=1e9),
    threshold=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200)
def test_residual_budget_bounds(capacity, online, threshold):
    budget = residual_budget(capacity, online, threshold)
    assert 0.0 <= budget <= threshold * capacity + 1e-9
    # Relative slack: threshold*capacity - online + online need not
    # round-trip; the rounding error scales with the magnitudes involved
    # (a few ulps of threshold*capacity), so an absolute epsilon is wrong
    # for large capacities.
    target = threshold * capacity
    slack = 4 * math.ulp(target) + 1e-9
    assert budget + online >= target - slack or budget == 0.0


# ---------------------------------------------------------------------------
# Appendix theorem (generalized rarest-first justification)
# ---------------------------------------------------------------------------


@given(
    m=st.integers(min_value=3, max_value=50),
    data=st.data(),
)
@settings(max_examples=200)
def test_balanced_beats_imbalanced(m, data):
    k2 = data.draw(st.integers(min_value=2, max_value=m - 1), label="k2")
    k1 = data.draw(st.integers(min_value=1, max_value=k2 - 1), label="k1")
    if (k1 + k2) % 2 != 0:
        k2 = k2 - 1 if k2 - 1 > k1 else k2 + 1
        if k2 >= m or k1 >= k2:
            return
    k = (k1 + k2) // 2
    t_a = balanced_completion_time(100, m, k, 1.0, 1.0)
    t_b = imbalanced_completion_time(100, m, k1, k2, 1.0, 1.0)
    assert t_a < t_b


# ---------------------------------------------------------------------------
# CDF machinery
# ---------------------------------------------------------------------------


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=100)
)
@settings(max_examples=200)
def test_empirical_cdf_properties(values):
    xs, ps = empirical_cdf(values)
    assert xs == sorted(xs)
    assert ps[-1] == pytest.approx(1.0)
    assert all(0 < p <= 1 for p in ps)
    assert len(xs) == len(values)


from hypothesis import assume


@st.composite
def cdf_knots(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    raw_x = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=1e6),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    raw_p = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=0.99),
            min_size=n - 2,
            max_size=n - 2,
            unique=True,
        )
    )
    xs = sorted(raw_x)
    ps = [0.0] + sorted(raw_p) + [1.0]
    # Degenerate spacing (knots or probabilities a few ulps apart) makes the
    # cdf/quantile round trip numerically meaningless; require real gaps.
    assume(all(b - a > 1e-6 * max(abs(b), 1.0) for a, b in zip(xs, xs[1:])))
    assume(all(q - p > 1e-9 for p, q in zip(ps, ps[1:])))
    return list(zip(xs, ps))


@given(cdf_knots(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200)
def test_piecewise_cdf_quantile_roundtrip(knots, q):
    cdf = PiecewiseLinearCDF(knots)
    value = cdf.quantile(q)
    assert knots[0][0] <= value <= knots[-1][0]
    # CDF is monotone: cdf(quantile(q)) ~= q within the knot span.
    assert cdf.cdf(value) == pytest.approx(q, abs=1e-6) or q in (0.0, 1.0)
