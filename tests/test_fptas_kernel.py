"""The scalar Fleischer push loop against the ``reduceat`` loop it replaced.

``repro.lp.fptas._run_fleischer`` folds path lengths over four slots and
applies pushes over Python lists, and sorts each phase's commodities
once; ``tests/oracles.reduceat_run_fleischer`` is the numpy loop it
replaced, with its lazy heap. ``lp.fptas_iterations`` is chaotic in the
instance, so the contract is equality to the last bit — final
``lengths``, ``raw``, ``iterations`` and ``phases`` of every kernel call
— over generated router-shaped instances, solved cold and then resumed
warm, and over one router-scale chain. Six mutants of the production
kernel (each a one-line rounding, tie-break or ordering change) must be
told apart from it by the same property.
"""

from __future__ import annotations

import inspect
import random
import textwrap

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import repro.core.routing as routing
import repro.lp.fptas as fptas
from repro.analysis.runner import make_strategy
from repro.lp.fptas import max_multicommodity_flow
from repro.lp.mcf import Commodity
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import MB, GBps, MBps
from tests.oracles import reduceat_run_fleischer

# -- generated instances ---------------------------------------------------------

_capacity = st.one_of(
    st.sampled_from([0.0, 1.0, 10.0, 10.0]),  # dead links, and exact ties
    st.floats(0.5, 100.0, allow_nan=False),
)
_demand = st.one_of(
    st.none(), st.sampled_from([0.0, 1.0, 10.0]), st.floats(0.1, 60.0, allow_nan=False)
)


@st.composite
def chains(draw):
    """``(epsilon, max_iterations, [instance, …])`` sharing capacities and paths.

    Router-shaped: 1–4 candidate paths of 1–7 resources (8 terms with the
    virtual demand resource — ``reduceat`` folds longer segments
    pairwise). A path may cross a resource twice, a candidate may be
    listed twice, resources may have zero capacity, demands may be zero
    or absent. Later instances move only the demands, so the solver
    resumes them from the previous instance's warm state.

    Hypothesis draws the resources, capacities, demands and counts; the
    paths and the demand moves come from a drawn ``random.Random`` seed,
    since one draw per path hop cost a third of the property's time.
    """
    names = [f"r{i}" for i in range(draw(st.integers(1, 9)))]
    caps = {name: draw(_capacity) for name in names}
    demands = [draw(_demand) for _ in range(draw(st.integers(1, 5)))]
    moves = draw(st.integers(0, 2))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    commodities = []
    for ci, demand in enumerate(demands):
        paths = [
            tuple(rng.choices(names, k=rng.randint(1, 7)))
            for _ in range(rng.randint(1, 4))
        ]
        if rng.random() < 0.5:
            paths.append(rng.choice(paths))  # duplicate candidate
        commodities.append(Commodity(f"c{ci}", tuple(paths), demand))
    steps = [commodities]
    for _ in range(moves):
        steps.append(
            [
                Commodity(
                    c.name,
                    c.paths,
                    None if c.demand is None else c.demand * rng.choice([1.0, 0.9, 0.5]),
                )
                for c in steps[-1]
            ]
        )
    epsilon = draw(st.sampled_from([0.05, 0.1, 0.3]))
    max_iterations = draw(st.one_of(st.none(), st.integers(0, 60)))
    return epsilon, max_iterations, caps, steps


def kernel_trace(kernel, chain):
    """Every kernel call's outputs, and every solve's label and flows."""
    epsilon, max_iterations, caps, steps = chain
    calls = []

    def recording(ext, eps, delta, lengths, raw, limit):
        lengths, raw, iterations, phases = kernel(ext, eps, delta, lengths, raw, limit)
        calls.append((lengths.tobytes(), raw.tobytes(), iterations, phases))
        return lengths, raw, iterations, phases

    production = fptas._run_fleischer
    fptas._run_fleischer = recording
    try:
        warm = None
        solves = []
        for commodities in steps:
            result = max_multicommodity_flow(
                commodities, caps, epsilon, max_iterations, warm=warm
            )
            warm = result.warm_state
            solves.append((result.warm_start, result.iterations, result.path_flows))
    finally:
        fptas._run_fleischer = production
    return calls, solves


#: One capacity at which ``(ε·bottleneck)/cap`` and ``ε·(bottleneck/cap)``
#: round apart. Which floats a derandomized run draws depends on the
#: constants hypothesis finds in the modules loaded at the time, so the
#: rounding mutant gets a witness that does not.
ROUNDING_WITNESS = (
    0.1, None, {"r0": 13.159553300512856},
    [[Commodity("c0", (("r0",),), 10.0)]],
)

#: Two 4-term paths over the same resources in another order, whose
#: comparison turns on the last bit of ``(s1 + s2) + s3`` — the
#: derandomized generator reaches no such instance.
FOLD_WITNESS = (
    0.1, None, {"r0": 10.0, "r1": 1.0},
    [[Commodity("c0", (("r1", "r0", "r0"), ("r0", "r1", "r0")), 1.0)]],
)

#: A path of six terms that crosses ``r0`` twice, so the fold's tail and
#: the sentinel padding of the shorter candidates run on every draw.
LONG_PATH_WITNESS = (
    0.1, None, {"r0": 10.0, "r1": 1.0, "r2": 5.0},
    [[
        Commodity("c0", (("r0", "r1", "r0", "r2", "r1"), ("r2",)), 10.0),
        Commodity("c1", (("r1", "r2"), ("r0",)), None),
    ]],
)


def assert_bit_equal_to_oracle(kernel, max_examples):
    @settings(
        max_examples=max_examples,
        deadline=None,
        derandomize=True,
        database=None,
        phases=[Phase.explicit, Phase.generate],
    )
    @given(chains())
    @example(ROUNDING_WITNESS)
    @example(FOLD_WITNESS)
    @example(LONG_PATH_WITNESS)
    def prop(chain):
        assert kernel_trace(kernel, chain) == kernel_trace(
            reduceat_run_fleischer, chain
        )

    prop()


# -- the property ----------------------------------------------------------------


def test_scalar_kernel_is_bit_equal_to_reduceat_oracle():
    assert_bit_equal_to_oracle(fptas._run_fleischer, max_examples=300)


def test_generator_reaches_every_warm_start_tier():
    """The chains above do exercise resumes, not only cold solves."""
    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(chains())
    def collect(chain):
        _calls, solves = kernel_trace(fptas._run_fleischer, chain)
        seen.update(label for label, _iterations, _flows in solves)

    collect()
    assert {"cold", "warm", "reuse", "cold-fallback"} <= seen


# -- the router's own instances --------------------------------------------------


def router_chain(max_cycles):
    """The instances a ``bds-fptas`` router solves on ``routing_backends``' mesh.

    One 480 MB file from dc0 to five DCs of 4 servers (2 MB/s NICs, 1 GB/s
    WAN), simulated for ``max_cycles`` cycles: every ``route()`` call's
    commodities, in order, as a chain that :func:`kernel_trace` replays
    warm from one solve to the next, as the router does while the
    topology is unchanged.
    """
    topo = Topology.full_mesh(
        num_dcs=6, servers_per_dc=4, wan_capacity=1 * GBps, uplink=2 * MBps
    )
    job = MulticastJob(
        job_id="backends",
        src_dc="dc0",
        dst_dcs=tuple(f"dc{i}" for i in range(1, 6)),
        total_bytes=60 * 8 * MB,
        block_size=8 * MB,
    )
    job.bind(topo)
    solved = []
    production = routing.max_multicommodity_flow

    def recording(commodities, capacities, epsilon, **kwargs):
        solved.append((list(commodities), dict(capacities), epsilon))
        return production(commodities, capacities, epsilon, **kwargs)

    routing.max_multicommodity_flow = recording
    try:
        Simulation(
            topo,
            [job],
            make_strategy("bds-fptas", seed=0),
            SimConfig(max_cycles=max_cycles),
            seed=0,
        ).run()
    finally:
        routing.max_multicommodity_flow = production
    _first, caps, epsilon = solved[0]
    assert all((c, e) == (caps, epsilon) for _s, c, e in solved)
    return epsilon, None, caps, [commodities for commodities, _c, _e in solved]


def test_router_scale_chain_is_bit_equal_to_reduceat_oracle():
    """Many commodities a phase, where the phase sort's order matters.

    The generated chains hold at most five commodities; the router's hold
    up to a hundred on a symmetric mesh, so lengths tie exactly and a
    phase visits tens of commodities in ``(key, index)`` order.
    """
    chain = router_chain(max_cycles=12)
    calls, solves = kernel_trace(fptas._run_fleischer, chain)
    assert (calls, solves) == kernel_trace(reduceat_run_fleischer, chain)
    sizes = [len(commodities) for commodities in chain[3]]
    labels = [label for label, _iterations, _flows in solves]
    first = next(i for i, n in enumerate(sizes) if n >= 40)
    assert labels[first : first + 2] == ["cold", "warm"]
    assert sizes[first + 1] >= 40 and solves[first][1] > 10_000  # pushes


# -- mutants ---------------------------------------------------------------------


def mutant_kernel(*edits):
    """``_run_fleischer`` recompiled with each ``(old, new)`` edit applied once."""
    source = textwrap.dedent(inspect.getsource(fptas._run_fleischer))
    for old, new in edits:
        assert source.count(old) == 1, f"kernel no longer contains {old!r}"
        source = source.replace(old, new)
    namespace = dict(vars(fptas))
    exec(compile(source, "<mutant _run_fleischer>", "exec"), namespace)
    return namespace["_run_fleischer"]


MUTANTS = {
    # numpy's reduceat is first + fold(rest), not a plain left fold
    "left-fold": [
        (
            "acc = (length[b] + length[c]) + length[d]",
            "acc = ((length[a] + length[b]) + length[c]) + length[d]",
        ),
        ("plen = length[a] + acc", "plen = acc"),
    ],
    # the fold of the rest runs left to right: (s1 + s2) + s3
    "right-fold": [
        (
            "acc = (length[b] + length[c]) + length[d]",
            "acc = length[b] + (length[c] + length[d])",
        )
    ],
    # argmin returns the first minimum
    "last-minimum": [("if plen < best:", "if plen <= best:")],
    # (ε·bottleneck)/cap, not ε·(bottleneck/cap)
    "factor-order": [
        (
            "np.repeat(epsilon * ext.min_cap, ext.lens) / ext.caps[ext.flat]",
            "epsilon * (np.repeat(ext.min_cap, ext.lens) / ext.caps[ext.flat])",
        )
    ],
    # the heap pops equal keys in index order, not in last phase's order
    "key-only-sort": [("queue.sort()", "queue.sort(key=lambda entry: entry[0])")],
    # a visited commodity keeps a stale key, not its new best: its old
    # key, lifted to t_cur (δ after the measuring pass) so the solve ends
    # — the old key alone is below t_cur and would be due again forever
    "stale-key": [
        ("kept.append((best, ci))", "kept.append((max(_key, t_cur, delta), ci))")
    ],
}


def test_recompiled_kernel_without_edits_passes():
    assert_bit_equal_to_oracle(mutant_kernel(), max_examples=50)


def test_mutant_with_a_missing_edit_text_fails():
    """A stale edit is an error here, never a mutant that 'was caught'."""
    with pytest.raises(AssertionError, match="no longer contains"):
        mutant_kernel(("acc = 0.0", "acc = length[first]"))


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(name):
    kernel = mutant_kernel(*MUTANTS[name])  # a stale edit fails here
    with pytest.raises(AssertionError):
        assert_bit_equal_to_oracle(kernel, max_examples=300)
