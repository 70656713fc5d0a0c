"""The run's state is one value.

A :class:`Simulation` holds configuration, the :class:`RunState` its
cycles evolve, and derived data that ``Simulation._reset_derived``
alone starts cold. Derived data is only cache: a run that starts it
cold before every executed cycle has the fingerprint of the run that
kept it warm. The runs are the golden scenarios of
:mod:`tests.test_determinism_golden` (every strategy, plain and with
failures, shallow and deep; the deep failures runs built from their
scenario file), and BDS speculating on that file's scenario over four
shards, on the FPTAS and on the exact LP, for its first six cycles
(through its last failure event; the whole runs cost 2 s). The warm
golden fingerprints are the session's ``golden_builds``. A reset that
also drops the buffered partial bytes, which are state, is caught.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

from repro.core.config import BDSConfig
from repro.net.simulator import RunState, SimConfig, Simulation

from tests import test_determinism_golden as golden
from tests.test_overlay import mutant

DEEP = golden.Scenario.from_json(golden.DEEP_SCENARIO.read_text(encoding="utf-8"))


def golden_simulation(name: str, failures: bool, deep: bool) -> Simulation:
    if failures and deep:
        return Simulation(**dataclasses.replace(DEEP, strategy=name).build())
    return golden._simulation(name, failures, deep=deep)


def speculating(backend: str) -> Simulation:
    return Simulation(
        **dataclasses.replace(
            DEEP,
            config=BDSConfig(speculation_horizon=3.0, shards=4, routing_backend=backend),
            sim=SimConfig(max_cycles=6),
        ).build()
    )


def cold_fingerprint(sim: Simulation, reset=Simulation._reset_derived) -> str:
    """The fingerprint of ``sim``'s run with ``reset`` called before
    every executed cycle (its first stage advances the failures)."""
    advance = sim._advance_failures

    def cold_then_advance(cycle):
        reset(sim)
        return advance(cycle)

    sim._advance_failures = cold_then_advance
    return sim.run().fingerprint()


def test_derived_data_is_only_cache(golden_builds):
    moved = []
    for name in golden.STRATEGIES:
        for label in ((name, False, False), (name, True, False), (name, True, True)):
            if cold_fingerprint(golden_simulation(*label)) != golden_builds[label][3]:
                moved.append(label)
        # Plain and deep is not a golden_builds label.
        warm = golden_simulation(name, False, True).run().fingerprint()
        if cold_fingerprint(golden_simulation(name, False, True)) != warm:
            moved.append((name, False, True))
    for backend in ("fptas", "lp"):
        warm = speculating(backend).run().fingerprint()
        if cold_fingerprint(speculating(backend)) != warm:
            moved.append(("speculating", backend))
    assert not moved


def test_a_reset_that_drops_partial_bytes_is_caught(golden_builds):
    broken = mutant(
        Simulation._reset_derived,
        ("self._cols: Optional[_BlockColumns] = None",
         "self._cols = None\n    self.state.partial.clear()"),
    )
    label = ("bds", True, True)
    with pytest.raises(AssertionError):
        assert cold_fingerprint(golden_simulation(*label), broken) == golden_builds[label][3]


def test_simulation_assigns_no_state_field():
    """``Simulation`` keeps configuration and derived data: it assigns
    no :class:`RunState` field, and few attributes."""
    module = ast.parse(Path(inspect.getfile(Simulation)).read_text(encoding="utf-8"))
    (tree,) = [
        node for node in module.body
        if isinstance(node, ast.ClassDef) and node.name == "Simulation"
    ]
    assigned = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }
    fields = {field.name for field in dataclasses.fields(RunState)}
    assert not assigned & {*fields, *(f"_{name}" for name in fields)}
    assert "state" in assigned and len(assigned) <= 23
