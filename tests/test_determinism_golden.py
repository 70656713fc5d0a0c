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

import pytest

from repro.analysis.runner import make_strategy
from repro.net.failures import FailureEvent, FailureSchedule
from repro.net.simulator import SimConfig, SimResult, Simulation
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


def _run_sharded(shards: int, event: bool, stride: int = 1) -> SimResult:
    from repro.core.config import BDSConfig
    from repro.core.controller import BDSController

    return _run_controller(
        BDSController(BDSConfig(shards=shards, shard_stride=stride)), event
    )


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

    def test_sharded_stride_engines_agree(self):
        tick = _run_sharded(4, event=False, stride=2)
        ev = _run_sharded(4, event=True, stride=2)
        assert tick.all_complete
        assert _fingerprint(tick) == _fingerprint(ev)
