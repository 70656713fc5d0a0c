"""The scalar Fleischer push loop against the ``reduceat`` loop it replaced.

``repro.lp.fptas._run_fleischer`` folds path lengths and applies pushes
over Python lists; ``tests/oracles.reduceat_run_fleischer`` is the numpy
loop it replaced. ``lp.fptas_iterations`` is chaotic in the instance, so
the contract is equality to the last bit — final ``lengths``, ``raw``,
``iterations`` and ``phases`` of every kernel call — over generated
router-shaped instances, solved cold and then resumed warm. Three mutants
of the production kernel (each a one-line rounding or tie-break change)
must be told apart from it by the same property.
"""

from __future__ import annotations

import inspect
import textwrap

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import repro.lp.fptas as fptas
from repro.lp.fptas import max_multicommodity_flow
from repro.lp.mcf import Commodity
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
    """
    names = [f"r{i}" for i in range(draw(st.integers(1, 9)))]
    caps = {name: draw(_capacity) for name in names}
    resource = st.sampled_from(names)
    commodities = []
    for ci in range(draw(st.integers(1, 5))):
        paths = draw(
            st.lists(st.lists(resource, min_size=1, max_size=7), min_size=1, max_size=4)
        )
        if draw(st.booleans()):
            paths.append(draw(st.sampled_from(paths)))  # duplicate candidate
        commodities.append(
            Commodity(f"c{ci}", tuple(tuple(p) for p in paths), draw(_demand))
        )
    steps = [commodities]
    for _ in range(draw(st.integers(0, 2))):
        steps.append(
            [
                Commodity(
                    c.name,
                    c.paths,
                    None
                    if c.demand is None
                    else c.demand * draw(st.sampled_from([1.0, 0.9, 0.5])),
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
        ("acc = 0.0", "acc = length[first]"),
        ("plen = length[first] + acc", "plen = acc"),
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
}


def test_recompiled_kernel_without_edits_passes():
    assert_bit_equal_to_oracle(mutant_kernel(), max_examples=50)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(name):
    with pytest.raises(AssertionError):
        assert_bit_equal_to_oracle(mutant_kernel(*MUTANTS[name]), max_examples=300)
