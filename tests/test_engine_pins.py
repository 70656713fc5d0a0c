"""Whole-run pins of the engine paths that are no longer in ``src/``.

Until PR 18 ``SimConfig`` carried four engine switches
(``incremental_engine``, ``vectorized_store``, ``vectorized_flow``,
``event_engine``) and ``BDSConfig`` a fifth (``shard_local_state``), and
the suites compared every switched-off path against the default one,
run for run. The switches and the paths only they reached are gone;
``tests/data/engine_pins.json`` keeps what the switched-off arms
produced — recorded by running this file as a script against the
parent commit's ``src/`` (the hash is in the file), each arm with its
switches **off** — and the suites assert that the one remaining engine
reproduces them:

* ``golden:*`` — ``tests/test_determinism_golden.py`` (full-scan engine,
  dict store, both; with and without failures);
* ``deep:*`` — here: the same scenario sized to run tens of cycles
  across its failure events, every switch off alone and all four at
  once;
* ``flow:*`` — ``tests/test_flow_kernel.py`` (scalar rate kernels and
  per-pair delivery, delivery log included);
* ``sharded:*`` — ``tests/test_sharded_controller.py`` (shards deciding
  over sub-views of the one shared store);
* ``midrun:*`` — here and in ``tests/test_object_free_decide.py``: a
  simulation stopped after a few cycles on the dict store, with the
  selection and the directives its controller then makes.

The tick loop needs no pin: it is what the same loop does for a
strategy that does not certify its decisions as reusable, and the
event ≡ tick suites reach it by setting ``decisions_reusable = False``
on their strategy instance.

``speculating:*`` are younger: whole speculating runs (§5.1), decide by
decide, first recorded at 740792d, while a speculated view was still a
``has``/``holders`` proxy in front of the store, decided by a scalar
scheduler and router of its own. They were recorded again by
``PYTHONPATH=src:. python tests/test_engine_pins.py speculating`` at
5d9a6b1 (the commit ``_recorded_speculating`` names), when floats began
to fold with ``math.fsum``; 17 of the 26 moved, and no other arm. They
are checked here.

The ``*:gingko:*`` arms were re-recorded by ``python
tests/test_engine_pins.py gingko`` on the commit after f89399a, when
Gingko's sender picks became one draw per job: a new stream, not a new
engine.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np
import pytest

from repro.core.config import BDSConfig
from repro.core.decisions import SelectionBatch
from repro.core.scheduling import RarestFirstScheduler
from repro.net.result import SimResult
from repro.net.simulator import SimConfig, Simulation
from repro.overlay.store import PossessionOverlay
from tests import oracles

PINS_FILE = Path(__file__).parent / "data" / "engine_pins.json"

#: The options whose off-arms the pins were recorded from.
SIM_SWITCHES = (
    "incremental_engine", "vectorized_store", "vectorized_flow", "event_engine",
)
BDS_SWITCHES = ("shard_local_state",)


# -- what a pin holds ----------------------------------------------------------


def delivery_rows(store) -> List[list]:
    return [
        [*r.block_id, r.src_server, r.dst_server, r.time, r.from_origin_dc]
        for r in store.deliveries
    ]


def observe(result: SimResult, deliveries: bool = False) -> Dict[str, object]:
    """A run's deterministic outputs, as JSON reads them back; the
    delivery log as a digest, and row for row when asked."""
    seen = {
        "fingerprint": result.fingerprint(),
        "cycles_run": result.cycles_run,
        "all_complete": result.all_complete,
        "job_completion": sorted(result.job_completion.items()),
        "dc_completion": sorted(
            [*key, t] for key, t in result.dc_completion.items()
        ),
        "server_completion": sorted(
            [*key, t] for key, t in result.server_completion.items()
        ),
        "blocks_per_cycle": result.blocks_per_cycle(),
        "bytes_per_cycle": [s.bytes_transferred for s in result.cycle_stats],
    }
    rows = delivery_rows(result.store)
    seen["deliveries_recorded"] = len(rows)
    seen["deliveries_sha256"] = hashlib.sha256(
        json.dumps(rows).encode()
    ).hexdigest()
    if deliveries:
        seen["deliveries"] = rows
    return json.loads(json.dumps(seen))


def directive_rows(directives) -> List[list]:
    return [
        [d.job_id, [i for _job, i in d.block_ids], d.src_server, d.dst_server,
         d.rate_cap]
        for d in directives
    ]


def observe_midrun(sim: Simulation, result: SimResult, view) -> Dict[str, object]:
    """:func:`observe`, the live state the run stopped in, and the
    selection and directives made from ``view`` (a view of that state)."""
    seen = observe(result)
    seen["store_epoch"] = int(sim.state.store.matrix.dup.sum())  # copies placed
    seen["partial_bytes"] = sorted(
        [*bid, server, have]
        for (bid, server), have in oracles.partial_map(view).items()
    )
    seen["selections"] = [
        [e.job_id, e.block.index, e.dst_dc, e.dst_server, e.duplicates, e.is_relay]
        for e in RarestFirstScheduler().select(view)
    ]
    seen["directives"] = directive_rows(sim.strategy.decide(view))
    return json.loads(json.dumps(seen))


@functools.lru_cache(maxsize=None)
def load() -> Dict[str, dict]:
    """The pins by arm name (plus ``_recorded``); read-only."""
    return json.loads(PINS_FILE.read_text())


def check(name: str, result: SimResult) -> None:
    """``result`` is, output for output, the run pinned as ``name``."""
    pin = load()[name]
    seen = observe(result, deliveries="deliveries" in pin)
    assert seen == {key: pin[key] for key in seen}


# -- the arms ------------------------------------------------------------------
#
# name -> (the switches the recording turned off, run(sim_flags, bds_flags)).
# The scenarios are the suites' own builders, so a pin and the test that
# checks it cannot drift apart.

Arm = Tuple[Dict[str, bool], Callable[[dict, dict], Dict[str, object]]]


def _golden(strategy: str, failures: bool, deep: bool = False) -> Callable:
    def run(sim_flags: dict, _bds_flags: dict) -> Dict[str, object]:
        from tests.test_determinism_golden import _simulation

        sim = _simulation(
            strategy, failures, config=SimConfig(**sim_flags), deep=deep
        )
        return observe(sim.run())

    return run


def _flow(strategy: str) -> Callable:
    def run(sim_flags: dict, _bds_flags: dict) -> Dict[str, object]:
        from tests.test_flow_kernel import _simulation

        sim = _simulation(strategy, config=SimConfig(**sim_flags))
        return observe(sim.run(), deliveries=True)

    return run


def _sharded(shards: int) -> Callable:
    def run(_sim_flags: dict, bds_flags: dict) -> Dict[str, object]:
        from tests.test_sharded_controller import _run

        config = BDSConfig(shards=shards, **bds_flags)
        return observe(_run(shards, config=config))

    return run


def _stopped(seed: int, cycles: int, sim_flags: dict) -> Tuple[Simulation, SimResult]:
    """``tests.test_columnar_handoff._midrun``, with the run's result."""
    from repro.analysis.runner import make_strategy
    from tests.test_columnar_handoff import _scenario

    topo, jobs, failures, pre_seeded = _scenario(seed)
    sim = Simulation(
        topology=topo,
        jobs=jobs,
        strategy=make_strategy("bds", seed=seed),
        config=SimConfig(max_cycles=cycles, stop_when_complete=False, **sim_flags),
        failures=failures,
        pre_seeded=pre_seeded,
        seed=seed,
    )
    return sim, sim.run()


def _midrun(seed: int, cycles: int) -> Callable:
    def run(sim_flags: dict, _bds_flags: dict) -> Dict[str, object]:
        sim, result = _stopped(seed, cycles, sim_flags)
        return observe_midrun(sim, result, sim.snapshot_view(cycles))

    return run


MIDRUNS = [(seed, cycles) for seed in range(6) for cycles in (1, 2, 3)]

ARMS: Dict[str, Arm] = {}
for _strategy in ("bds", "gingko"):
    for _failures in (False, True):
        _tag = f"golden:{_strategy}:" + ("failures:" if _failures else "")
        for _switch in ("incremental_engine", "vectorized_store"):
            ARMS[f"{_tag}{_switch}=False"] = (
                {_switch: False}, _golden(_strategy, _failures)
            )
ARMS["golden:bds:incremental_engine=False,vectorized_store=False"] = (
    {"incremental_engine": False, "vectorized_store": False},
    _golden("bds", False),
)
#: The golden scenario above completes inside cycle 0; the same scenario
#: made deep crosses its four failure events. Every switch off alone, and
#: all four at once (the original engine of PR 0).
DEEP_OFF = [(switch,) for switch in SIM_SWITCHES] + [SIM_SWITCHES]
for _strategy in ("bds", "gingko"):
    for _off in DEEP_OFF:
        _name = ",".join(f"{switch}=False" for switch in _off)
        ARMS[f"deep:{_strategy}:failures:{_name}"] = (
            dict.fromkeys(_off, False), _golden(_strategy, True, deep=True)
        )
for _strategy in ("bds", "gingko", "bullet"):
    ARMS[f"flow:{_strategy}:vectorized_flow=False"] = (
        {"vectorized_flow": False}, _flow(_strategy)
    )
# "x1": recorded at decide stride 1, every shard deciding every cycle.
for _shards in (2, 4):
    ARMS[f"sharded:{_shards}x1:shard_local_state=False"] = (
        {"shard_local_state": False}, _sharded(_shards)
    )
for _seed, _cycles in MIDRUNS:
    ARMS[f"midrun:seed{_seed}:cycles{_cycles}:vectorized_store=False"] = (
        {"vectorized_store": False}, _midrun(_seed, _cycles)
    )


# -- speculating runs ----------------------------------------------------------


def observe_decisions(controller) -> List[list]:
    """Per logged decide: cycle, selections, commodities, and its
    directives (blocks, endpoints, rate caps, in order) as a digest."""
    return [
        [
            decision.cycle,
            decision.scheduled_blocks,
            decision.num_commodities,
            hashlib.sha256(
                json.dumps(directive_rows(decision.directives)).encode()
            ).hexdigest()[:16],
        ]
        for decision in controller.decisions
    ]


def _spec_variants() -> Dict[str, dict]:
    from repro.utils.units import MB, MBps
    from tests.test_determinism_golden import failure_events
    from tests.test_speculation import PARTITION

    deep = {"size": 900 * MB}  # ten cycles or so: past every failure event
    return {
        "plain": deep,
        "relays": {"relays": True, **deep},
        "failures": {"failures": failure_events(), **deep},
        "partition": {"failures": PARTITION, "controller_dc": "dc0", **deep},
        "unmerged": {"merge_blocks": False, **deep},
        # Thin NICs: 50 blocks are more than a cycle moves, so capped
        # decides have transfers in flight to speculate on.
        "capped": {
            "max_blocks_per_cycle": 50, "size": 100 * MB, "uplink": 2 * MBps,
        },
    }


def _speculating(
    horizon: float, shards: int, variant: str = "plain"
) -> Callable[[], Dict[str, object]]:
    def run() -> Dict[str, object]:
        from tests.test_speculation import contended

        sim = contended(
            horizon, shards, max_cycles=120,
            **_spec_variants()[variant],
        )
        result = sim.run()
        seen = observe(result)
        seen["decisions"] = observe_decisions(sim.strategy)
        return json.loads(json.dumps(seen))

    return run


SPEC_ARMS: Dict[str, Callable[[], Dict[str, object]]] = {}
for _horizon in (0.3, 3.0):
    # "q1": recorded at decide stride 1, every shard deciding every cycle.
    for _shards in (1, 2, 3):
        SPEC_ARMS[f"speculating:h{_horizon}:k{_shards}:q1"] = _speculating(
            _horizon, _shards
        )
    for _variant in ("relays", "failures", "partition", "unmerged", "capped"):
        for _shards in (1, 2):
            SPEC_ARMS[f"speculating:h{_horizon}:k{_shards}:{_variant}"] = (
                _speculating(_horizon, _shards, variant=_variant)
            )


# -- tests ---------------------------------------------------------------------


def test_pins_were_recorded_from_the_switched_off_arms():
    pins = load()
    commit = pins["_recorded"]["commit"]
    assert len(commit) == 40 and int(commit, 16) >= 0
    assert sorted(pins) == sorted(
        ["_recorded", "_recorded_speculating", *ARMS, *SPEC_ARMS]
    )
    for name, (flags, _run) in ARMS.items():
        assert pins[name]["switches_off"] == flags
        assert flags and not any(flags.values())
        assert set(flags) <= set(SIM_SWITCHES + BDS_SWITCHES)


@pytest.mark.parametrize("strategy", ["bds", "gingko"])
def test_a_run_across_failures_is_every_switched_off_run(strategy):
    from tests.test_determinism_golden import _simulation

    result = _simulation(strategy, with_failures=True, deep=True).run()
    assert result.all_complete and result.cycles_run > 6  # past the last event
    for off in DEEP_OFF:
        name = ",".join(f"{switch}=False" for switch in off)
        check(f"deep:{strategy}:failures:{name}", result)


@pytest.mark.parametrize("seed,cycles", MIDRUNS)
def test_a_run_stopped_midway_is_where_the_dict_store_left_it(seed, cycles):
    """Possession, partial bytes, and the next decide — from the live
    matrix and from a speculation overlay with nothing speculated (the
    same possession in a copy of the matrix): the same kernels."""
    name = f"midrun:seed{seed}:cycles{cycles}:vectorized_store=False"
    pin = load()[name]
    _off, run = ARMS[name]
    seen = run({}, {})
    assert seen == {key: pin[key] for key in seen}

    sim, result = _stopped(seed, cycles, {})
    nothing = np.empty(0, dtype=np.int64)
    view = sim.snapshot_view(cycles)
    overlay = view.replace(store=PossessionOverlay(view.store, nothing, nothing))
    assert overlay.store.matrix is not sim.state.store.matrix
    assert isinstance(RarestFirstScheduler().select(overlay), SelectionBatch)
    seen = observe_midrun(sim, result, overlay)
    assert seen == {key: pin[key] for key in seen}


@pytest.mark.parametrize("name", SPEC_ARMS)
def test_a_speculating_run_is_the_recorded_one(name):
    """Run for run and decide for decide."""
    pin = load()[name]
    seen = SPEC_ARMS[name]()
    assert seen["all_complete"] and len(seen["decisions"]) > 5
    assert seen == {key: pin[key] for key in seen}


def test_the_config_surface_is_what_this_file_says():
    """An option added to either config is a visible diff here."""
    assert {f.name for f in dataclasses.fields(SimConfig)} == {
        "cycle_seconds", "max_cycles", "safety_threshold", "stop_when_complete",
        "record_link_stats", "links_of_interest", "control_overhead_seconds",
        "flow_setup_seconds",
    }
    assert {f.name for f in dataclasses.fields(BDSConfig)} == {
        "routing_backend", "max_blocks_per_cycle", "merge_blocks", "speculation_horizon", "use_relays", "shards",
        "shard_mode",  # one legal value, for the frozen ledger's spelling
    }
    for switch in SIM_SWITCHES:
        with pytest.raises(TypeError):
            SimConfig(**{switch: False})
    for gone in (
        "shard_local_state", "shard_seed", "shard_stride_target",
        "shard_stride", "shard_partition", "max_sources_per_group",
        "epsilon",
    ):
        with pytest.raises(TypeError):
            BDSConfig(**{gone: 0})


# -- recording -----------------------------------------------------------------


def _dump(pins: Dict[str, object]) -> str:
    """One arm a line."""
    rows = (
        f" {json.dumps(name)}: {json.dumps(pin, separators=(',', ':'))}"
        for name, pin in pins.items()
    )
    return "{\n" + ",\n".join(rows) + "\n}\n"


def _clean_commit() -> str:
    """The commit ``repro`` is imported from, with nothing uncommitted."""
    import repro

    src = Path(repro.__file__).resolve().parent
    commit = subprocess.run(
        ["git", "-C", str(src), "rev-parse", "HEAD"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    dirty = subprocess.run(
        ["git", "-C", str(src), "status", "--porcelain", "--", str(src)],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    if dirty:
        raise SystemExit(f"{src} differs from {commit}:\n{dirty}")
    return commit


def _record() -> None:
    import repro

    have = {f.name for f in dataclasses.fields(SimConfig)} | {
        f.name for f in dataclasses.fields(BDSConfig)
    }
    gone = sorted(set(SIM_SWITCHES + BDS_SWITCHES) - have)
    if gone:
        raise SystemExit(
            f"{repro.__file__} has no {', '.join(gone)}: the pins are the "
            "switched-off arms of the commit before the switches were "
            "removed. Run this file with PYTHONPATH pointing at that "
            f"commit's src/ ({load()['_recorded']['commit']})."
        )
    pins: Dict[str, object] = {
        "_recorded": {
            "commit": _clean_commit(),
            "by": "tests/test_engine_pins.py, every arm with its switches off",
        }
    }
    for name, (flags, run) in ARMS.items():
        sim_flags = {k: v for k, v in flags.items() if k in SIM_SWITCHES}
        bds_flags = {k: v for k, v in flags.items() if k in BDS_SWITCHES}
        pins[name] = {"switches_off": flags, **run(sim_flags, bds_flags)}
        print(name, pins[name]["fingerprint"][:12], file=sys.stderr)
    PINS_FILE.write_text(_dump(pins))


def _record_speculating() -> None:
    """Re-record the ``speculating:*`` arms, leaving the others as they are."""
    pins = {
        name: pin for name, pin in load().items() if "speculating" not in name
    }
    pins["_recorded_speculating"] = {
        "commit": _clean_commit(),
        "by": "tests/test_engine_pins.py speculating",
    }
    for name, run in SPEC_ARMS.items():
        pins[name] = run()
        print(name, pins[name]["fingerprint"][:12], file=sys.stderr)
    PINS_FILE.write_text(_dump(pins))


def _record_gingko() -> None:
    """Re-record the Gingko arms with the one engine, leaving the others
    as they are: for a new Gingko stream, since the switches whose off
    arms the pins hold are gone (the other arms check that the one
    engine reproduces them)."""
    pins = dict(load())
    for name, (flags, run) in ARMS.items():
        if ":gingko:" in name:
            pins[name] = {"switches_off": flags, **run({}, {})}
            print(name, pins[name]["fingerprint"][:12], file=sys.stderr)
    PINS_FILE.write_text(_dump(pins))


if __name__ == "__main__":
    modes = {"speculating": _record_speculating, "gingko": _record_gingko}
    modes.get(" ".join(sys.argv[1:]), _record)()
