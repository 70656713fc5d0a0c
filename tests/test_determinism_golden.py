"""Golden determinism regression: same seed => bit-identical results.

The engine memoizes and mutates per-cycle state; any accidental
dependence on set-iteration order or cache warm-up would show up here as
a diff between two runs of the same scenario, or against the runs the
paths it replaced produced — the full-scan engine, the dict-of-sets
store, both at once — which ``tests/data/engine_pins.json`` keeps (see
:mod:`tests.test_engine_pins`).

The scenario is the Fig. 9 BDS-vs-Gingko shape scaled down: one source
DC multicasting to several destinations over a full mesh, run with both
strategies, with and without mid-run failures.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.analysis.runner import Scenario, make_strategy
from repro.net.failures import FailureEvent, FailureSchedule
from repro.net.result import SimResult
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import MB, MBps

from tests import test_engine_pins as pins

SEED = 90  # the Fig. 9 headline seed


def failure_events():
    """An agent and a WAN link failing and recovering, interleaved."""
    return [
        FailureEvent(cycle=1, kind="agent_fail", target="dc1-s0"),
        FailureEvent(cycle=2, kind="link_fail", target=("dc0", "dc2")),
        FailureEvent(cycle=4, kind="agent_recover", target="dc1-s0"),
        FailureEvent(cycle=5, kind="link_recover", target=("dc0", "dc2")),
    ]


def _simulation(
    strategy_name: str,
    with_failures: bool = False,
    config: SimConfig = None,
    deep: bool = False,
) -> Simulation:
    """``deep``: thin NICs and a file eight times the size — the run
    takes tens of cycles and crosses every failure event (the default
    shape completes inside cycle 0, before the first one)."""
    topo = Topology.full_mesh(
        num_dcs=5,
        servers_per_dc=4,
        wan_capacity=500 * MBps,
        uplink=(5 if deep else 25) * MBps,
    )
    job = MulticastJob(
        job_id="fig9",
        src_dc="dc0",
        dst_dcs=tuple(f"dc{i}" for i in range(1, 5)),
        total_bytes=(512 if deep else 64) * MB,
        block_size=4 * MB,
    )
    job.bind(topo)
    failures = None
    if with_failures:
        failures = FailureSchedule(failure_events())
    return Simulation(
        topology=topo,
        jobs=[job],
        strategy=make_strategy(strategy_name, seed=SEED),
        config=config,
        failures=failures,
        seed=SEED,
    )


def _run(strategy_name: str, with_failures: bool = False) -> SimResult:
    return _simulation(strategy_name, with_failures).run()


def _fingerprint(result: SimResult):
    return (
        result.job_completion,
        result.dc_completion,
        result.server_completion,
        result.blocks_per_cycle(),
        [s.bytes_transferred for s in result.cycle_stats],
    )


class TestGoldenDeterminism:
    @pytest.mark.parametrize("strategy", ["bds", "gingko"])
    @pytest.mark.parametrize("with_failures", [True, False])
    def test_same_seed_same_result(self, strategy, with_failures):
        first = _run(strategy, with_failures)
        second = _run(strategy, with_failures)
        assert first.all_complete
        assert _fingerprint(first) == _fingerprint(second)

    @pytest.mark.parametrize("strategy", ["bds", "gingko"])
    def test_incremental_matches_legacy(self, strategy):
        result = _run(strategy)
        assert result.all_complete
        pins.check(f"golden:{strategy}:incremental_engine=False", result)

    @pytest.mark.parametrize("strategy", ["bds", "gingko"])
    def test_incremental_matches_legacy_under_failures(self, strategy):
        pins.check(
            f"golden:{strategy}:failures:incremental_engine=False",
            _run(strategy, with_failures=True),
        )

    def test_repeated_runs_with_failures_identical(self):
        first = _run("bds", with_failures=True)
        second = _run("bds", with_failures=True)
        assert _fingerprint(first) == _fingerprint(second)


class TestArrayNativeDeterminism:
    """The array-native control plane must be bit-identical to the
    dict-of-sets store + scalar scheduler/router it replaced."""

    @pytest.mark.parametrize("strategy", ["bds", "gingko"])
    def test_vectorized_matches_scalar(self, strategy):
        result = _run(strategy)
        assert result.all_complete
        pins.check(f"golden:{strategy}:vectorized_store=False", result)

    @pytest.mark.parametrize("strategy", ["bds", "gingko"])
    def test_vectorized_matches_scalar_under_failures(self, strategy):
        pins.check(
            f"golden:{strategy}:failures:vectorized_store=False",
            _run(strategy, with_failures=True),
        )

    def test_vectorized_matches_legacy_engine(self):
        # Cross axis: the run with neither the matrix store nor the
        # incremental engine.
        pins.check(
            "golden:bds:incremental_engine=False,vectorized_store=False",
            _run("bds"),
        )


# ---------------------------------------------------------------------------
# Sharded control plane parity: shards=1 is bit-identical to the default
# controller; shards=k is deterministic on both engines
# ---------------------------------------------------------------------------


def _golden_jobs():
    topo = Topology.full_mesh(
        num_dcs=5, servers_per_dc=4, wan_capacity=500 * MBps, uplink=25 * MBps
    )
    jobs = []
    for j in range(4):
        src = f"dc{j}"
        job = MulticastJob(
            job_id=f"golden{j}",
            src_dc=src,
            dst_dcs=tuple(f"dc{i}" for i in range(5) if f"dc{i}" != src),
            total_bytes=48 * MB,
            block_size=4 * MB,
        )
        job.bind(topo)
        jobs.append(job)
    return topo, jobs


def _run_controller(controller, event: bool) -> SimResult:
    """``event=False``: the controller does not certify its decisions as
    reusable, so every cycle decides fresh (fixed ticks)."""
    topo, jobs = _golden_jobs()
    if not event:
        controller.decisions_reusable = False
    return Simulation(
        topology=topo, jobs=jobs, strategy=controller, seed=SEED
    ).run()


def _run_sharded(shards: int, event: bool) -> SimResult:
    from repro.core.config import BDSConfig
    from repro.core.controller import BDSController

    return _run_controller(
        BDSController(BDSConfig(shards=shards)), event
    )


STRATEGIES = ("bds", "gingko", "bullet", "akamai", "chain", "direct")
DEEP_SCENARIO = Path(__file__).parent / "data" / "scenarios" / "golden_deep_failures.json"


def fallback_run(decided) -> SimResult:
    """The deep golden scenario under a controller in ``dc0`` that is down
    for cycles 1–2 and cut off from ``dc4`` for cycles 4–6: its Gingko
    fallback decides alone, then beside the controller for the severed
    DC. ``decided`` gets ``view.controller_available`` of each fallback
    decide."""
    from repro.core.controller import BDSController

    scenario = Scenario.from_json(DEEP_SCENARIO.read_text(encoding="utf-8"))
    cut = [
        (kind, target)
        for other in ("dc0", "dc1", "dc2", "dc3")
        for target in ((other, "dc4"), ("dc4", other))
        for kind in ("link_fail", "link_recover")
    ]
    events = (
        FailureEvent(1, "controller_fail"),
        FailureEvent(3, "controller_recover"),
        *(FailureEvent(4 if kind == "link_fail" else 7, kind, t) for kind, t in cut),
    )
    parts = dataclasses.replace(scenario, failures=events).build()
    controller = parts["strategy"] = BDSController(seed=SEED, controller_dc="dc0")
    decide = controller.fallback.decide

    def recorded(view):
        decided.append(view.controller_available)
        return decide(view)

    controller.fallback.decide = recorded
    return Simulation(**parts).run()


def golden_runs(decided):
    """Every golden scenario once, as ``(label, run)``: each strategy of
    :data:`STRATEGIES` plain, with failures and deep; the controller over
    1, 2 and 4 shards and at fixed ticks; and :func:`fallback_run`, which
    appends to ``decided``."""
    from repro.core.config import BDSConfig
    from repro.core.controller import BDSController

    for name in STRATEGIES:
        for failures, deep in ((False, False), (True, False), (True, True)):
            yield (name, failures, deep), (
                lambda n=name, f=failures, d=deep: _simulation(n, f, deep=d).run()
            )
    for shards in (1, 2, 4):
        yield ("shards", shards), lambda k=shards: _run_controller(
            BDSController(BDSConfig(shards=k)), event=True
        )
    yield ("fixed-ticks",), lambda: _run_controller(BDSController(), event=False)
    yield ("fallback",), lambda: fallback_run(decided)


class TestShardedGoldenDeterminism:
    @pytest.mark.parametrize("event", [False, True])
    def test_single_shard_matches_default_controller(self, event):
        from repro.core.controller import BDSController

        sharded_off = _run_sharded(1, event=event)
        # Same scenario through the default (config-less) controller:
        baseline = _run_controller(BDSController(), event)
        assert sharded_off.all_complete
        assert _fingerprint(sharded_off) == _fingerprint(baseline)

    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("event", [False, True])
    def test_sharded_repeat_identical(self, shards, event):
        first = _run_sharded(shards, event=event)
        second = _run_sharded(shards, event=event)
        assert first.all_complete
        assert _fingerprint(first) == _fingerprint(second)
