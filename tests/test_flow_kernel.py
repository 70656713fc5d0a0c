"""Equivalence suite for the data-plane kernels.

The event-driven waterfill (`max_min_fair_rates`), the clip
(`clip_rates_to_capacity`, whose Hypothesis property lives in
``tests/test_directive_batch.py``) and the batched delivery path
(`PossessionIndex.record_deliveries` + `Simulation._apply_deliveries`)
all claim *bit-identity* with the loops they replace. These tests make
that claim falsifiable: randomized scenario sweeps and a Hypothesis
property compare each kernel dict-for-dict with its one oracle in
``tests/oracles.py`` (the waterfill with the textbook loop, stalemate
counts included; the clip with the scalar dict loop), error paths must
raise the same exceptions, three mutants of the waterfill must be told
apart from it, and whole simulations must reproduce the runs recorded
with the scalar kernels and per-pair delivery forced on
(``tests/data/engine_pins.json``, see :mod:`tests.test_engine_pins`).
"""

from __future__ import annotations

import functools
import inspect
import random
import textwrap

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import repro.net.flow as flow_mod
from repro.analysis.runner import make_strategy
from repro.lp.incidence import segment_mins
from repro.net.flow import FlowKernelStats
from repro.net.result import SimResult
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.blocks import Block
from repro.overlay.job import MulticastJob
from repro.overlay.store import PossessionIndex
from repro.utils.units import MB, MBps

from tests import oracles
from tests.oracles import Flow, clip_by_id, fair_rates_by_id
from tests import test_engine_pins as pins

# ---------------------------------------------------------------------------
# Randomized scenario generation
# ---------------------------------------------------------------------------

RESOURCE_POOL = [("wan", f"dc{i}", f"dc{j}") for i in range(6) for j in range(6)]


def _random_scenario(rng: random.Random, num_flows: int):
    """Random flows over a random subset of a shared resource pool."""
    resources = rng.sample(RESOURCE_POOL, rng.randint(3, 12))
    capacities = {
        res: rng.choice([0.5, 1.0, 2.0, 5.0, 10.0, 100.0]) for res in resources
    }
    flows = []
    for i in range(num_flows):
        path = tuple(rng.sample(resources, rng.randint(1, min(4, len(resources)))))
        demand = rng.choice([0.0, 0.25, 1.0, 3.0, 7.5, float("inf")])
        rate_cap = rng.choice([None, 0.0, 0.5, 2.0, 50.0])
        # flow ids deliberately collide sometimes to exercise dup handling
        fid = f"f{i % max(1, num_flows - 2)}"
        flows.append(
            Flow(flow_id=fid, resources=path, demand=demand, rate_cap=rate_cap)
        )
    return flows, capacities


# ---------------------------------------------------------------------------
# Waterfill: event-driven ≡ textbook loop
# ---------------------------------------------------------------------------

#: The production kernel (over the flows' rows, keyed by flow id) and its
#: oracle, both with a stats slot.
WATERFILLS = {
    "event": fair_rates_by_id,
    "reference": oracles.max_min_fair_rates_reference,
}


def exact(rates):
    """A rates dict as (id, float bits) pairs in key order."""
    assert all(type(v) is float for v in rates.values())
    return [(k, v.hex()) for k, v in rates.items()]


def outcome(kernel, flows, capacities):
    """``(exact rates, stalemates)``, or ``(error type, message)``."""
    stats = FlowKernelStats()
    try:
        return exact(kernel(flows, capacities, stats)), stats.stalemates
    except Exception as exc:  # a mutant may fail in any way
        return type(exc).__name__, str(exc)


def assert_all_agree(flows, capacities, kernel=fair_rates_by_id):
    expected = outcome(oracles.max_min_fair_rates_reference, flows, capacities)
    assert outcome(kernel, flows, capacities) == expected
    return expected


class TestWaterfillEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("num_flows", [1, 7, 64, 150])
    def test_randomized_bit_identity(self, seed, num_flows):
        rng = random.Random(1000 * seed + num_flows)
        flows, capacities = _random_scenario(rng, num_flows)
        # Exact dict equality: same keys, same order, same float bits.
        assert isinstance(assert_all_agree(flows, capacities)[0], list)

    def test_zero_cap_flows_skip_resource_validation(self):
        # Flows with no effective capacity are preset to 0 and never
        # validated, so their unknown resources must not raise.
        flows = [
            Flow(flow_id="dead", resources=(("wan", "x", "y"),), rate_cap=0.0),
            Flow(flow_id="live", resources=(("wan", "a", "b"),), demand=5.0),
        ]
        caps = {("wan", "a", "b"): 2.0}
        for kernel in WATERFILLS.values():
            assert kernel(flows, caps) == {"dead": 0.0, "live": 2.0}

    def test_flow_caps_hit_before_saturation(self):
        # Rate caps freeze flows below every link's fair share; the
        # leftover headroom goes to the uncapped flow.
        shared = ("wan", "a", "b")
        flows = [
            Flow(flow_id="small", resources=(shared,), rate_cap=1.0),
            Flow(flow_id="mid", resources=(shared,), rate_cap=3.0),
            Flow(flow_id="big", resources=(shared,)),
        ]
        caps = {shared: 12.0}
        expected = {"small": 1.0, "mid": 3.0, "big": 8.0}
        for kernel in WATERFILLS.values():
            assert kernel(flows, caps) == expected

    def test_unknown_resource_raises_same_keyerror(self):
        flows = [Flow(flow_id="f", resources=(("wan", "a", "b"),), demand=1.0)]
        messages = set()
        for kernel in WATERFILLS.values():
            with pytest.raises(KeyError) as err:
                kernel(flows, {})
            messages.add(str(err.value))
        assert messages == {"\"flow references unknown resource ('wan', 'a', 'b')\""}

    def test_unbounded_raises_same_valueerror(self):
        flows = [Flow(flow_id="f", resources=())]
        for kernel in WATERFILLS.values():
            with pytest.raises(ValueError, match="unbounded"):
                kernel(flows, {})

    def test_stats_counter_threads_through(self):
        flows = [
            Flow(flow_id="f", resources=(("wan", "a", "b"),), demand=1.0)
        ]
        for kernel in WATERFILLS.values():
            stats = FlowKernelStats()
            kernel(flows, {("wan", "a", "b"): 5.0}, stats=stats)
            # A healthy run records no stalemates.
            assert stats.stalemates == 0


# -- generated inputs ------------------------------------------------------------

_NAMES = [f"r{i}" for i in range(6)]
_capacity = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 10.0, 10.0]),  # dead resources, exact ties
    st.floats(0.5, 100.0),
)


@st.composite
def waterfill_inputs(draw):
    """``(flows, capacities)`` over ≤ 6 resources and ≤ 16 flows.

    A flow may cross a resource twice or cross none, share its id with
    another flow, carry a zero cap or a tied cap; a resource may have
    zero capacity; now and then a flow names a resource ``capacities``
    lacks.

    Hypothesis draws the resources, their capacities, the flow count
    and one bound from its float edge cases; the flows themselves come
    from a drawn ``random.Random`` seed, since one draw per flow field
    cost most of the properties' time.
    """
    names = _NAMES[: draw(st.integers(1, 6))]
    # At 1e9, ulp(capacity) > 1e-9: a bottleneck's residual may stay
    # above the saturation tolerance — a numerical stalemate.
    scale = draw(st.sampled_from([1.0, 1.0, 1e9]))
    capacities = {name: draw(_capacity) * scale for name in names}
    pool = names + (["ghost"] if draw(st.integers(0, 7)) == 0 else [])
    # r0 is a hub: many flows sharing one bottleneck, many freeze events.
    hub = pool + ["r0"] * len(pool)
    count = draw(st.integers(0, 16))
    # zero caps, tied caps, and one edge-case float
    tied = [0.0, 0.5, 2.0, 2.0, 7.5, draw(st.floats(0.1, 60.0))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def bound():
        kind = rng.randrange(3)
        if kind == 0:
            return None
        return scale * (rng.choice(tied) if kind == 1 else rng.uniform(0.1, 60.0))

    flows = []
    for _ in range(count):
        path = () if rng.randrange(10) == 0 else rng.choices(hub, k=rng.randint(1, 4))
        flows.append(
            Flow(
                flow_id=rng.randint(0, 12),
                resources=tuple(path),
                rate_cap=bound(),
                demand=bound(),
            )
        )
    return flows, capacities


#: Seven flows split a capacity whose seventh, times seven, falls short of
#: it by more than 1e-9: nothing saturates, nothing caps — a stalemate.
STALEMATE_WITNESS = ([Flow(i, ("r0",)) for i in range(7)], {"r0": 8128674335.0})
#: After the level reaches 1.0 (r1 saturates), flow 0 sits 5e-10 below its
#: cap: inside 1e-9, outside 1e-12.
CAP_TOLERANCE_WITNESS = (
    [Flow(0, ("r0",), rate_cap=1.0 + 5e-10), Flow(1, ("r1",))],
    {"r0": 100.0, "r1": 1.0},
)
#: Two resources saturate in one event: r0 exactly, r1 within 1e-9.
TWO_SATURATIONS_WITNESS = (
    [Flow(0, ("r0",)), Flow(1, ("r1",))],
    {"r0": 1.0, "r1": 1.0 + 5e-10},
)


def assert_kernel_matches_oracles(kernel, max_examples):
    @settings(
        max_examples=max_examples,
        deadline=None,
        derandomize=True,
        database=None,
        phases=[Phase.explicit, Phase.generate],
    )
    @given(waterfill_inputs())
    @example(STALEMATE_WITNESS)
    @example(CAP_TOLERANCE_WITNESS)
    @example(TWO_SATURATIONS_WITNESS)
    def prop(case):
        assert_all_agree(*case, kernel=kernel)

    prop()


def test_event_kernel_matches_every_oracle():
    assert_kernel_matches_oracles(fair_rates_by_id, max_examples=300)


def test_witnesses_hit_their_corner():
    assert outcome(fair_rates_by_id, *STALEMATE_WITNESS)[1] == 1
    for case in (CAP_TOLERANCE_WITNESS, TWO_SATURATIONS_WITNESS):
        rates, stalemates = outcome(fair_rates_by_id, *case)
        assert stalemates == 0 and float.fromhex(rates[1][1]) == 1.0


def corners(flows, capacities):
    """Which of the suite's named corners one generated input reaches."""
    seen = set()
    caps = [f.effective_cap() for f in flows]
    live = [c for c in caps if 0 < c < float("inf")]
    if len(set(live)) >= 5:
        seen.add("distinct caps")
    if len(set(live)) < len(live):
        seen.add("tied caps")
    if any(c <= 0 for c in caps):
        seen.add("zero cap")
    if any(capacities.get(r) == 0.0 for f in flows for r in f.resources):
        seen.add("zero-capacity resource")
    if len({f.flow_id for f in flows}) < len(flows):
        seen.add("duplicate id")
    if any(len(set(f.resources)) < len(f.resources) for f in flows):
        seen.add("repeated resource")
    if any(not f.resources for f in flows):
        seen.add("no resources")
    result, stalemates = outcome(fair_rates_by_id, flows, capacities)
    if isinstance(result, list):
        seen.add("stalemate" if stalemates else "allocated")
    else:
        seen.add(result)
    return seen


def test_property_inputs_reach_every_corner():
    """The property's inputs — witnesses and generated — reach every
    corner. (Generated stalemates are rare: a bottleneck must be left
    with more than 1e-9 after ``r - (r / l) * l``.)"""
    seen = set()

    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        database=None,
        phases=[Phase.explicit, Phase.generate],
    )
    @given(waterfill_inputs())
    @example(STALEMATE_WITNESS)
    @example(CAP_TOLERANCE_WITNESS)
    @example(TWO_SATURATIONS_WITNESS)
    def collect(case):
        seen.update(corners(*case))

    collect()
    assert seen == {
        "distinct caps", "tied caps", "zero cap", "zero-capacity resource",
        "duplicate id", "repeated resource", "no resources", "allocated",
        "stalemate", "KeyError", "ValueError",
    }


# -- mutants ---------------------------------------------------------------------


def mutant_waterfill(*edits):
    """``max_min_fair_rates`` recompiled with each ``(old, new)`` edit
    applied once, keyed by flow id as :func:`fair_rates_by_id` keys it."""
    source = textwrap.dedent(inspect.getsource(flow_mod.max_min_fair_rates))
    for old, new in edits:
        assert source.count(old) == 1, f"kernel no longer contains {old!r}"
        source = source.replace(old, new)
    namespace = dict(vars(flow_mod))
    exec(compile(source, "<mutant max_min_fair_rates>", "exec"), namespace)
    return functools.partial(fair_rates_by_id, kernel=namespace["max_min_fair_rates"])


WATERFILL_MUTANTS = {
    # a flow is capped within 1e-12 of its cap, not 1e-9
    "cap-tolerance": [("caps[f] - level > 1e-12", "caps[f] - level > 1e-9")],
    # every entry of a frozen flow gives its load back, the first included
    "skipped-decrement": [
        ("entries[starts[f] : ends[f]]", "entries[starts[f] + 1 : ends[f]]")
    ],
    # every resource that saturates in an event freezes its flows
    "first-saturated-only": [("for r in saturated:", "for r in saturated[:1]:")],
}


def test_recompiled_waterfill_without_edits_passes():
    assert_kernel_matches_oracles(mutant_waterfill(), max_examples=50)


def test_waterfill_mutant_with_a_missing_edit_text_fails():
    """A stale edit is an error here, never a mutant that 'was caught'."""
    with pytest.raises(AssertionError, match="no longer contains"):
        mutant_waterfill(("for r in saturated[:1]:", "for r in saturated:"))


@pytest.mark.parametrize("name", sorted(WATERFILL_MUTANTS))
def test_waterfill_mutant_is_caught(name):
    kernel = mutant_waterfill(*WATERFILL_MUTANTS[name])  # a stale edit fails here
    with pytest.raises(AssertionError):
        assert_kernel_matches_oracles(kernel, max_examples=300)


# ---------------------------------------------------------------------------
# Clip: production ≡ scalar
# ---------------------------------------------------------------------------


class TestClipEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_randomized_bit_identity(self, seed):
        rng = random.Random(seed)
        flows, capacities = _random_scenario(rng, rng.randint(1, 80))
        requested = {
            f.flow_id: rng.choice([0.0, 0.3, 1.5, 4.0, 20.0]) for f in flows
        }
        scalar = oracles.clip_rates_to_capacity_scalar(flows, requested, capacities)
        assert clip_by_id(flows, requested, capacities) == scalar

    def test_validates_all_resources_even_at_zero_rate(self):
        # clip (unlike the waterfill) validates every flow's resources.
        flows = [Flow(flow_id="f", resources=(("wan", "x", "y"),))]
        with pytest.raises(KeyError):
            oracles.clip_rates_to_capacity_scalar(flows, {"f": 0.0}, {})
        with pytest.raises(KeyError):
            clip_by_id(flows, {"f": 0.0}, {})


class TestCompile:
    """``FlowRows.compile``, which both kernels call, over resources
    numbered apart from flow order, as a cycle cache numbers them: with
    fewer entries than resources (``FEW``) the map is asked for the
    loaded ones only, else (``MANY``) for every resource."""

    KEYS = ["a", "b", "c", "idle"]
    FEW = flow_mod.FlowRows([[2, 0], [1]], [5.0, 5.0], KEYS)
    MANY = flow_mod.FlowRows([[2, 0], [1], [0, 1]], [5.0, 5.0, 5.0], KEYS)

    def test_the_map_is_asked_for_the_fewer_keys(self):
        class Asked(dict):
            def get(self, key, default=None):
                asked.append(key)
                return super().get(key, default)

        capacity = Asked(a=1.0, b=2.0, c=4.0)  # "idle" is missing, unloaded
        for rows, fair, clipped, keys in (
            (self.FEW, [1.0, 2.0], [1.0, 2.0], ["a", "b", "c"]),
            (self.MANY, [0.5, 1.5, 0.5], [0.5, 1.0, 0.5], self.KEYS),
        ):
            asked = []
            assert flow_mod.max_min_fair_rates(rows, capacity) == fair
            assert sorted(asked) == keys
            requested = [3.0] * len(rows)
            assert flow_mod.clip_rates_to_capacity(rows, requested, capacity) == clipped

    @pytest.mark.parametrize("rows", ["FEW", "MANY"])
    def test_the_first_missing_resource_in_flow_order_raises(self, rows):
        """``b`` and ``c`` are missing: the first flow meets ``c`` first,
        though ``b`` has the lower number."""
        rows = getattr(self, rows)
        for call in (
            lambda: flow_mod.max_min_fair_rates(rows, {"a": 1.0}),
            lambda: flow_mod.clip_rates_to_capacity(
                rows, [1.0] * len(rows), {"a": 1.0}
            ),
        ):
            with pytest.raises(KeyError, match="'c'"):
                call()


# ---------------------------------------------------------------------------
# segment_mins, the per-flow minimum of the clip
# ---------------------------------------------------------------------------


class TestIncidenceHelpers:
    def test_segment_mins_handles_empty_segments(self):
        values = np.array([3.0, 1.0, 2.0])
        starts = np.array([0, 2, 2, 2])
        lens = np.array([2, 0, 1, 0])
        out = segment_mins(values, starts, lens, default=np.inf)
        assert out.tolist() == [1.0, np.inf, 2.0, np.inf]

    def test_segment_mins_empty_input(self):
        out = segment_mins(
            np.array([]), np.array([0]), np.array([0]), default=7.0
        )
        assert out.tolist() == [7.0]


# ---------------------------------------------------------------------------
# Batched delivery: record_deliveries ≡ looped record_delivery
# ---------------------------------------------------------------------------


def _land(index: PossessionIndex, events):
    """``index.record_deliveries`` over tuple events, answered the way a
    ``record_delivery`` loop answers: a record per new copy, else None."""
    before = len(index.deliveries)
    fresh = index.record_deliveries(*oracles.delivery_columns(index.matrix, events))
    records = iter(index.deliveries[before:])
    return [next(records) if new else None for new in fresh.tolist()]


def _fresh_indexes():
    server_dc = {f"dc{d}-s{s}": f"dc{d}" for d in range(3) for s in range(4)}
    batched, sequential = PossessionIndex(server_dc), PossessionIndex(server_dc)
    for index in (batched, sequential):
        index.matrix.intern_job("j", 10)  # the blocks of _random_events
    return (
        batched,
        sequential,
        oracles.DictPossessionIndex(server_dc),
        sorted(server_dc),
    )


def _random_events(rng: random.Random, servers, count: int):
    blocks = [Block(job_id="j", index=i, size=MB) for i in range(10)]
    events = []
    for _ in range(count):
        block = rng.choice(blocks)
        src, dst = rng.sample(servers, 2)
        events.append((block, src, dst, rng.random() * 10.0, "dc0"))
    return events


class TestBatchedDelivery:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("count", [1, 5, 40, 200])
    def test_batch_matches_sequential(self, seed, count):
        rng = random.Random(seed * 7 + count)
        batched, sequential, dict_backed, servers = _fresh_indexes()
        events = _random_events(rng, servers, count)

        out_batch = _land(batched, events)
        out_seq = [sequential.record_delivery(*e) for e in events]
        out_dict = dict_backed.record_deliveries(events)

        assert out_batch == out_seq == out_dict
        assert batched.deliveries == sequential.deliveries
        for server in servers:
            assert oracles.blocks_on(batched, server) == oracles.blocks_on(
                sequential, server
            )
        for block in {e[0] for e in events}:
            bid = block.block_id
            assert batched.holders(bid) == sequential.holders(bid)
            assert batched.holders(bid) == dict_backed.holders(bid)
            assert (
                oracles.duplicate_count(batched, bid)
                == oracles.duplicate_count(sequential, bid)
                == oracles.duplicate_count(dict_backed, bid)
            )
            for dc in ("dc0", "dc1", "dc2"):
                assert oracles.dc_copy_count(
                    batched, dc, bid
                ) == oracles.dc_copy_count(sequential, dc, bid)

    def test_within_batch_duplicate_keeps_first_occurrence(self):
        batched, sequential, _, servers = _fresh_indexes()
        block = Block(job_id="j", index=0, size=MB)
        events = [
            (block, servers[0], servers[1], 1.0, "dc0"),
            (block, servers[2], servers[1], 2.0, "dc0"),  # same pair, later
        ]
        out = _land(batched, events)
        assert out[0] is not None and out[1] is None
        assert [r.time for r in batched.deliveries] == [1.0]
        assert sequential.record_delivery(*events[0]) is not None
        assert sequential.record_delivery(*events[1]) is None

    def test_unknown_destination_rejected(self):
        batched, _, _, servers = _fresh_indexes()
        block = Block(job_id="j", index=0, size=MB)
        dst, gids, src, times, origin = oracles.delivery_columns(
            batched.matrix,
            [(block, servers[0], servers[1], 1.0, "dc0")] * 2,
        )
        dst[1] = len(servers)  # one past the last server id
        with pytest.raises(IndexError):
            batched.record_deliveries(dst, gids, src, times, origin)
        # Whole-batch rejection: nothing landed.
        assert not batched.matrix.dup.any() and not batched.deliveries

    def test_empty_batch_is_noop(self):
        batched, _, _, _ = _fresh_indexes()
        assert _land(batched, []) == []
        assert not batched.matrix.dup.any() and not batched.deliveries


# ---------------------------------------------------------------------------
# Whole-simulation golden fingerprints: the scalar data plane's recorded runs
# ---------------------------------------------------------------------------

SEED = 90


def _simulation(strategy_name: str, config: SimConfig = None) -> Simulation:
    topo = Topology.full_mesh(
        num_dcs=5, servers_per_dc=4, wan_capacity=500 * MBps, uplink=25 * MBps
    )
    job = MulticastJob(
        job_id="fig9",
        src_dc="dc0",
        dst_dcs=tuple(f"dc{i}" for i in range(1, 5)),
        total_bytes=64 * MB,
        block_size=4 * MB,
    )
    job.bind(topo)
    return Simulation(
        topology=topo,
        jobs=[job],
        strategy=make_strategy(strategy_name, seed=SEED),
        config=config,
        seed=SEED,
    )


def _run(strategy_name: str) -> SimResult:
    return _simulation(strategy_name).run()


class TestDataPlaneGolden:
    @pytest.mark.parametrize("strategy", ["bds", "gingko", "bullet"])
    def test_vectorized_flow_matches_scalar(self, strategy):
        result = _run(strategy)
        assert result.all_complete
        pins.check(f"flow:{strategy}:vectorized_flow=False", result)

    def test_delivery_records_identical(self):
        result = _run("gingko")
        scalar = pins.load()["flow:gingko:vectorized_flow=False"]["deliveries"]
        assert pins.delivery_rows(result.store) == scalar
        assert len(scalar) > 0

    def test_stalemate_counter_exported(self):
        result = _run("bds")
        # Healthy scenario: the counter exists and stays at zero.
        assert result.total_rate_stalemates() == 0
