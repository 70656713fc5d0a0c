"""A run as one value: :class:`Scenario`'s file format, its round trip,
its builds and the errors it raises."""

from __future__ import annotations

import dataclasses
import gc
import json
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.runner import STRATEGY_NAMES, Scenario
from repro.core import BDSConfig
from repro.core.config import ROUTING_BACKENDS
from repro.net.failures import FailureEvent
from repro.net.presets import PRESETS
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import wan_key
from repro.utils.units import MB, MBps

from tests.test_determinism_golden import _simulation

GOLDEN = Path(__file__).parent / "data" / "scenarios" / "golden_deep_failures.json"


# ---------------------------------------------------------------------------
# the checked-in file
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", ["bds", "gingko"])
def test_the_golden_file_is_the_in_code_deep_run(strategy):
    """The file is ``test_determinism_golden``'s deep shape with its four
    failures; read back, it runs bit-identically to the in-code one."""
    scenario = dataclasses.replace(
        Scenario.from_json(GOLDEN.read_text()), strategy=strategy
    )
    result = scenario.run()
    assert result.all_complete
    assert result.cycles_run > max(event.cycle for event in scenario.failures)
    expected = _simulation(strategy, with_failures=True, deep=True).run()
    assert result.fingerprint() == expected.fingerprint()


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------

# At most 10^4 blocks a job: a size that is no multiple of its block
# size is split by a loop.
_SIZES = st.one_of(st.integers(2**17, 2**30), st.floats(2.0**17, 2.0**30))
_RATES = st.floats(1.0, 1e10, allow_nan=False)
_PRESETS = {
    "full_mesh": st.integers(2, 5).flatmap(
        lambda n: st.fixed_dictionaries(
            {
                "num_dcs": st.just(n),
                "servers_per_dc": st.integers(1, 3),
                "wan_capacity": _RATES,
                "uplink": _RATES,
            }
        )
    ),
    "baidu_like": st.fixed_dictionaries(
        {},
        optional={
            "servers_per_dc": st.integers(1, 3),
            "scale": st.floats(0.01, 100.0),
        },
    ),
    "triangle": st.fixed_dictionaries(
        {"nic": _RATES, "ab": _RATES, "ac": _RATES, "bc": _RATES}
    ),
}


@st.composite
def _jobs(draw, dcs):
    jobs = []
    for j in range(draw(st.integers(1, 3))):
        src = draw(st.sampled_from(dcs))
        others = [dc for dc in dcs if dc != src]
        dsts = draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
        rest = [dc for dc in others if dc not in dsts]
        fields = {
            "job_id": f"j{j}",
            "src_dc": src,
            "dst_dcs": tuple(dsts),
            "total_bytes": draw(_SIZES),
        }
        optional = {
            "block_size": _SIZES,
            "arrival_time": st.floats(0.0, 1e6),
            "priority": st.integers(-3, 3),
            "relay_dcs": st.lists(st.sampled_from(rest), unique=True).map(tuple)
            if rest
            else st.just(()),
        }
        for name in draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
            fields[name] = draw(optional[name])
        jobs.append(fields)
    return tuple(jobs)


@st.composite
def scenarios(draw):
    preset = draw(st.sampled_from(sorted(_PRESETS)))
    args = draw(_PRESETS[preset])
    dcs = PRESETS[preset](**args).dc_names()
    pairs = [wan_key(a, b) for a in dcs for b in dcs if a != b]
    cycle = draw(st.floats(0.1, 10.0))
    sim = SimConfig(
        cycle_seconds=cycle,
        max_cycles=draw(st.integers(1, 10**6)),
        safety_threshold=draw(st.floats(0.05, 1.0)),
        stop_when_complete=draw(st.booleans()),
        record_link_stats=draw(st.booleans()),
        links_of_interest=tuple(draw(st.lists(st.sampled_from(pairs), max_size=3))),
        control_overhead_seconds=draw(st.floats(0.0, 0.9)) * cycle,
        flow_setup_seconds=draw(st.floats(0.0, 5.0)),
    )
    config = BDSConfig(
        routing_backend=draw(st.sampled_from(ROUTING_BACKENDS)),
        max_blocks_per_cycle=draw(st.integers(0, 100)),
        merge_blocks=draw(st.booleans()),
        speculation_horizon=draw(st.floats(0.0, 5.0)),
        use_relays=draw(st.booleans()),
        shards=draw(st.integers(1, 4)),
    )
    failures = draw(
        st.lists(
            st.one_of(
                st.builds(
                    FailureEvent,
                    cycle=st.integers(0, 50),
                    kind=st.sampled_from(["agent_fail", "agent_recover"]),
                    target=st.sampled_from(dcs).map(lambda dc: f"{dc}-s0"),
                ),
                st.builds(
                    FailureEvent,
                    cycle=st.integers(0, 50),
                    kind=st.sampled_from(["link_fail", "link_recover"]),
                    target=st.sampled_from(pairs).map(lambda key: key[1:]),
                ),
                st.builds(
                    FailureEvent,
                    cycle=st.integers(0, 50),
                    kind=st.sampled_from(["controller_fail", "controller_recover"]),
                ),
            ),
            max_size=4,
        )
    )
    background = draw(
        st.none()
        | st.fixed_dictionaries(
            {},
            optional={
                "base_fraction": st.floats(0.0, 0.5),
                "diurnal_fraction": st.floats(0.0, 0.5),
                "noise_fraction": st.floats(0.0, 0.1),
                "seed": st.integers(0, 2**31),
                "step_seconds": st.floats(0.0, 600.0),
            },
        )
    )
    return Scenario(
        preset,
        draw(_jobs(dcs)),
        args,
        failures=tuple(failures),
        background=background,
        strategy=draw(st.sampled_from(STRATEGY_NAMES)),
        config=config,
        sim=sim,
        seed=draw(st.none() | st.integers(0, 2**32)),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scenarios())
def test_a_scenario_survives_its_json(scenario):
    text = scenario.to_json()
    assert Scenario.from_json(text) == scenario
    assert Scenario.from_json(text).to_json() == text


def test_a_file_names_only_the_fields_a_scenario_sets():
    plain = json.loads(_mesh().to_json())
    assert set(plain) == {"topology", "jobs", "topology_args", "seed"}
    sharded = json.loads(_mesh(config=BDSConfig(shards=2)).to_json())
    assert sharded["config"] == {"shards": 2}
    # An int block size and a float one fold differently; each is kept.
    for block in (2 * MB, 2.0 * MB):
        (job,) = Scenario.from_json(_mesh(block=block).to_json()).jobs
        assert type(job["block_size"]) is type(block)


def _mesh(block=4 * MB, **fields) -> Scenario:
    return Scenario.mesh(
        3, 2, 100 * MBps, 10 * MBps, 16 * MB, block, "j", seed=5, **fields
    )


# ---------------------------------------------------------------------------
# builds
# ---------------------------------------------------------------------------

_SHAREABLE = (
    type(None), bool, int, float, complex, str, bytes, tuple, frozenset, range,
    type, types.FunctionType, types.BuiltinFunctionType, types.ModuleType,
    types.MethodType, np.dtype, np.generic,
)


def _mutable_reachable(root) -> dict:
    """Every object reachable from ``root`` that a run could mutate: what
    is not immutable, a frozen dataclass, a function or a type."""
    found, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in found:
            continue
        if isinstance(obj, tuple):  # immutable, but may hold mutable objects
            stack.extend(obj)
            continue
        frozen = dataclasses.is_dataclass(obj) and obj.__dataclass_params__.frozen
        if isinstance(obj, _SHAREABLE) or frozen:
            continue
        found[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return found


def test_two_builds_share_no_mutable_object():
    scenario = _mesh(
        failures=(FailureEvent(1, "link_fail", ("dc0", "dc1")),),
        background=dict(base_fraction=0.3, seed=3),
        sim=SimConfig(
            record_link_stats=True, links_of_interest=(wan_key("dc0", "dc1"),)
        ),
    )
    first, second = scenario.build(), scenario.build()
    shared = _mutable_reachable(first).keys() & _mutable_reachable(second).keys()
    assert not shared, [type(_mutable_reachable(first)[i]) for i in shared]
    # Running one leaves the other as built.
    Simulation(**first).run()
    assert Simulation(**second).run().fingerprint() == scenario.run().fingerprint()


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


def _edited(edit) -> str:
    raw = json.loads(GOLDEN.read_text())
    edit(raw)
    return json.dumps(raw)


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda raw: raw.update(shards=2), "shards"),
        (lambda raw: raw["jobs"][0].update(colour="red"), "colour"),
        (lambda raw: raw.update(config={"epsilon": 0.1}), "epsilon"),
        (lambda raw: raw.update(topology="ring"), "ring"),
        (lambda raw: raw["jobs"][0].update(dst_dcs=["dc1", "dc9"]), "dc9"),
        (lambda raw: raw["jobs"][0].update(src_dc="nowhere"), "nowhere"),
        (lambda raw: raw.update(strategy="carrier-pigeon"), "carrier-pigeon"),
        (lambda raw: raw.update(jobs=[]), "no jobs"),
    ],
)
def test_from_json_names_a_bad_key_or_value(edit, named):
    with pytest.raises(ValueError, match=named):
        Scenario.from_json(_edited(edit))


def test_from_json_rejects_what_is_not_one_object():
    with pytest.raises(ValueError, match="one JSON object"):
        Scenario.from_json("[]")
    with pytest.raises(ValueError):
        Scenario.from_json("{not json")
