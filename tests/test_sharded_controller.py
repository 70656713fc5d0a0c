"""Sharded control plane: identity, determinism, and reconciliation.

Contracts under test (ISSUE: sharded multi-controller control plane):

* ``shards=1`` takes the original single-controller code path and is
  bit-identical to a controller built before the knob existed — the
  golden-fingerprint tests assert equality against a default-config run,
  with decision reuse and with every cycle decided fresh (``event=False``:
  the controller instance does not certify its decisions as reusable).
* ``shards=k`` is deterministic: repeated runs produce identical
  fingerprints, either way.
* The reconciliation pass bounds each WAN link's summed directive rate
  caps by its bulk budget.
* Sharded completion times stay within a small tolerance of the single
  controller (the documented quality envelope).
"""

from __future__ import annotations

import ast
import dataclasses
import itertools
import time
from pathlib import Path

import pytest

from repro.core.config import BDSConfig
from repro.core.controller import BDSController
from repro.core import shardexec
from repro.core.sharding import stable_shard
from repro.core.shardexec import LocalShardRunner, ShardPayload
from repro.net.failures import FailureEvent, FailureSchedule
from repro.net.result import SimResult
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.overlay.store import PossessionOverlay
from repro.utils.units import MB, MBps

from tests import test_engine_pins as pins

SEED = 90

#: Documented quality envelope: sharded completion within 2 cycles and
#: within 2x of single-controller (tiny scenarios quantize to whole
#: cycles, so a relative bound alone would be vacuous or flaky).
QUALITY_SLACK_CYCLES = 2


def _scenario(num_jobs: int = 6):
    topo = Topology.full_mesh(
        num_dcs=5, servers_per_dc=4, wan_capacity=500 * MBps, uplink=25 * MBps
    )
    jobs = []
    for j in range(num_jobs):
        src = f"dc{j % 5}"
        job = MulticastJob(
            job_id=f"job{j}",
            src_dc=src,
            dst_dcs=tuple(f"dc{i}" for i in range(5) if f"dc{i}" != src),
            total_bytes=48 * MB,
            block_size=4 * MB,
        )
        job.bind(topo)
        jobs.append(job)
    return topo, jobs


def _run(
    shards: int,
    event: bool = True,
    num_jobs: int = 6,
    config: BDSConfig = None,
) -> SimResult:
    topo, jobs = _scenario(num_jobs)
    cfg = config or BDSConfig(shards=shards)
    controller = BDSController(cfg)
    if not event:
        controller.decisions_reusable = False
    return Simulation(
        topology=topo, jobs=jobs, strategy=controller, seed=SEED
    ).run()


def _fingerprint(result: SimResult):
    return (
        result.job_completion,
        result.dc_completion,
        result.server_completion,
        result.blocks_per_cycle(),
        [s.bytes_transferred for s in result.cycle_stats],
    )


class TestSingleShardIdentity:
    """shards=1 must be bit-identical to the pre-knob controller."""

    @pytest.mark.parametrize("event", [False, True])
    def test_default_config_unchanged(self, event):
        baseline = _run(1, event=event, config=BDSConfig())
        sharded_off = _run(1, event=event)
        assert baseline.all_complete
        assert _fingerprint(baseline) == _fingerprint(sharded_off)

    def test_no_shard_telemetry_on_single_path(self):
        result = _run(1)
        assert all(s.shard_count == 0 for s in result.cycle_stats)
        assert all(s.time_reconcile == 0.0 for s in result.cycle_stats)

    def test_signature_none_when_unsharded(self):
        assert BDSController(BDSConfig()).shard_signature is False
        assert BDSController(BDSConfig(shards=3)).shard_signature is True


class TestShardedDeterminism:
    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("event", [False, True])
    def test_repeated_runs_identical(self, shards, event):
        first = _run(shards, event=event)
        second = _run(shards, event=event)
        assert first.all_complete
        assert _fingerprint(first) == _fingerprint(second)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_event_matches_tick(self, shards):
        assert _fingerprint(_run(shards, event=True)) == _fingerprint(
            _run(shards, event=False)
        )

    def test_shard_telemetry_recorded(self):
        result = _run(3)
        fresh = [s for s in result.cycle_stats if s.shard_count]
        assert fresh, "sharded cycles must record shard telemetry"
        for s in fresh:
            assert s.shard_count == 3
            assert s.time_shard_max >= s.time_shard_mean >= 0.0
        assert result.stage_time_totals()["reconcile"] >= 0.0


class TestShardsExecuteInProcess:
    """Where shards execute is not an option: the process fan-out
    measured 2-13x slower than the in-process mirrors and is gone."""

    def test_process_mode_is_refused_and_says_why(self):
        with pytest.raises(ValueError, match="process fan-out was removed"):
            BDSConfig(shards=2, shard_mode="process")

    def test_the_ledgers_spelling_still_constructs(self):
        """``benchmarks/ledger/workloads.py`` (frozen) writes this."""
        assert BDSConfig(shards=4, shard_mode="inprocess") == BDSConfig(shards=4)

    def test_the_payload_is_the_possession_delta(self):
        """Possession has no delta to ship: a shard reads the live store,
        and all its payload carries is the jobs it sees for the first
        time (the ledger's ``shardexec.payload_bytes``)."""
        assert [f.name for f in dataclasses.fields(ShardPayload)] == [
            "new_jobs"
        ]


class TestReconciliation:
    def test_wan_sums_within_budget(self):
        """Controller output (pre-simulator) respects every WAN budget."""
        topo, jobs = _scenario(8)
        controller = BDSController(BDSConfig(shards=4))
        controller.decisions_reusable = False  # decide every cycle
        sim = Simulation(topology=topo, jobs=jobs, strategy=controller, seed=SEED)
        sim.run()
        budgets = {
            key: sim.config.safety_threshold * link.capacity
            for key, link in topo.links.items()
        }
        checked = 0
        for decision in controller.decisions:
            usage = {}
            for d in decision.directives:
                if d.rate_cap is None:
                    continue
                res = topo.flow_resources(d.src_server, d.dst_server)
                for key in res:
                    if key in budgets:
                        usage[key] = usage.get(key, 0.0) + d.rate_cap
            for key, used in usage.items():
                checked += 1
                assert used <= budgets[key] * (1 + 1e-9)
        assert checked > 0

    def test_reconciled_counter_sane(self):
        topo, jobs = _scenario(8)
        controller = BDSController(BDSConfig(shards=4))
        controller.decisions_reusable = False  # decide every cycle
        Simulation(
            topology=topo, jobs=jobs, strategy=controller, seed=SEED
        ).run()
        for decision in controller.decisions:
            assert decision.reconciled_directives <= len(decision.directives)
            assert decision.reconcile_runtime >= 0.0


class TestShardLocalState:
    """A shard is a subset of jobs deciding on the live store."""

    @pytest.mark.parametrize("shards", [2, 4])
    def test_mirror_matches_shared_store(self, shards):
        """Shards deciding over sub-views of the one shared store was an
        earlier decide path, and is again: the recorded runs of that path
        (at decide stride 1, every shard every cycle) must come back
        bit-for-bit."""
        result = _run(shards)
        assert result.all_complete
        pins.check(f"sharded:{shards}x1:shard_local_state=False", result)

    def test_state_telemetry_recorded(self):
        result = _run(3)
        fresh = [s for s in result.cycle_stats if s.shard_count]
        assert fresh
        assert any(s.shard_state_bytes > 0 for s in fresh)
        assert any(s.shard_payload_bytes > 0 for s in fresh)

    def test_no_state_telemetry_on_shared_store_path(self, monkeypatch):
        """There is no second path: speculating cycles are decided by the
        shards like any other, over the one speculated view (an overlay
        store) the single controller would read (and that builds no
        global candidate table), so per-shard state is reported on every
        cycle."""
        topo, jobs = _scenario()
        controller = BDSController(BDSConfig(shards=2, speculation_horizon=3.0))
        sim = Simulation(topology=topo, jobs=jobs, strategy=controller, seed=SEED)
        views = []
        decide = LocalShardRunner.decide

        def spy(runner, view, buckets):
            views.append(view)
            return decide(runner, view, buckets)

        monkeypatch.setattr(LocalShardRunner, "decide", spy)
        result = sim.run()
        speculating = [isinstance(view.store, PossessionOverlay) for view in views]
        assert result.all_complete and any(speculating) and not speculating[0]
        for view in views:
            if isinstance(view.store, PossessionOverlay):
                assert view.store.matrix.spans is sim.state.store.matrix.spans
                assert view._candidates is None
            else:
                assert view.store is sim.state.store
        for stats in result.cycle_stats:
            assert stats.shard_count == 2
            assert stats.shard_state_bytes > 0

    @pytest.mark.parametrize("horizon", [0.0, 3.0])
    def test_every_shard_decides_on_the_live_store(self, horizon, monkeypatch):
        """Each shard decide reads the simulator's index — or, speculating,
        an overlay of it — through a table indexing the live matrix."""
        topo, jobs = _scenario()
        controller = BDSController(
            BDSConfig(shards=3, speculation_horizon=horizon)
        )
        sim = Simulation(topology=topo, jobs=jobs, strategy=controller, seed=SEED)
        seen = []
        real = shardexec.schedule_and_route

        def spy(scheduler, router, view):
            seen.append((view.store, view.candidates.matrix))
            return real(scheduler, router, view)

        monkeypatch.setattr(shardexec, "schedule_and_route", spy)
        assert sim.run().all_complete
        live = sim.state.store
        overlays = 0
        for store, table_matrix in seen:
            assert table_matrix is live.matrix
            if store is not live:
                assert isinstance(store, PossessionOverlay)
                assert store.matrix.spans is live.matrix.spans
                overlays += 1
        assert seen and (overlays > 0) == (horizon > 0)

    def test_a_shard_constructs_no_possession_state(self):
        """Possession is held once, in the store: the shard module builds
        no index, matrix or overlay of its own."""
        tree = ast.parse(Path(shardexec.__file__).read_text(encoding="utf-8"))
        called = {
            node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))
        }
        assert called
        assert not called & {
            "PossessionIndex", "PossessionMatrix", "PossessionOverlay",
        }

    def test_per_shard_state_scales_down(self):
        """With 8 jobs of 300 blocks each, each
        shard's state — its candidate table — is a fraction of the single
        controller's candidate table (the largest shard holds 3 of the 8
        jobs)."""
        topo = Topology.full_mesh(
            num_dcs=5, servers_per_dc=4, wan_capacity=500 * MBps,
            uplink=25 * MBps,
        )

        def make_jobs():
            jobs = []
            for j in range(8):
                src = f"dc{j % 5}"
                job = MulticastJob(
                    job_id=f"big{j}",
                    src_dc=src,
                    dst_dcs=tuple(
                        f"dc{i}" for i in range(5) if f"dc{i}" != src
                    ),
                    total_bytes=300 * 4 * MB,
                    block_size=4 * MB,
                )
                job.bind(topo)
                jobs.append(job)
            return jobs

        def run(config):
            controller = BDSController(config)
            sim = Simulation(
                topology=topo,
                jobs=make_jobs(),
                strategy=controller,
                config=SimConfig(max_cycles=2),
                seed=SEED,
            )
            return sim, sim.run()

        base, _result = run(BDSConfig())
        base_bytes = base._cand_table.state_bytes()
        assert base_bytes > 0
        _sim, sharded = run(BDSConfig(shards=4))
        peak = max(s.shard_state_bytes for s in sharded.cycle_stats)
        assert 0 < peak <= 0.5 * base_bytes


class TestNoClockInTheDecision:
    """Every shard decides every cycle: a run's outcome is a function of
    its seed, not of how fast the host ran its shards."""

    @pytest.mark.parametrize(
        "config",
        [pytest.param(dict(shards=s), id=f"k{s}") for s in (1, 4)]
        + [
            pytest.param(dict(shards=2, speculation_horizon=3.0), id="speculating"),
            pytest.param(dict(shards=2, routing_backend="fptas"), id="fptas"),
        ],
    )
    def test_a_slow_clock_moves_nothing(self, config, monkeypatch):
        """Every ``perf_counter`` reading 10 s after the last one — a
        host on which each shard's decide takes tens of seconds — must
        leave the run as the real clock left it."""
        shards = config["shards"]
        real = _run(shards, num_jobs=8, config=BDSConfig(**config))
        ticks = itertools.count()
        monkeypatch.setattr(time, "perf_counter", lambda: 10.0 * next(ticks))
        slow = _run(shards, num_jobs=8, config=BDSConfig(**config))
        assert real.all_complete
        assert max(s.time_decide for s in slow.cycle_stats) >= 10.0
        assert (slow.fingerprint(), slow.cycles_run) == (
            real.fingerprint(),
            real.cycles_run,
        )


class TestAJobTheControllerNeverBucketed:
    """A job that arrives and completes while the controller is down is
    never bucketed; its deliveries sit in the store's log, and no shard
    — not even the one its id hashes to — may be fed it."""

    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_its_deliveries_reach_no_mirror(self, shards):
        topo = Topology.full_mesh(
            num_dcs=3, servers_per_dc=2, wan_capacity=20 * MBps,
            uplink=20 * MBps,
        )
        small_shard = stable_shard("small", shards)
        late = next(
            f"late{i}" for i in itertools.count()
            if stable_shard(f"late{i}", shards) == small_shard
        )
        jobs = [
            MulticastJob("big", "dc0", ("dc1", "dc2"), 600 * MB),
            MulticastJob("small", "dc1", ("dc2",), 2 * MB, arrival_time=9.0),
            MulticastJob(late, "dc0", ("dc1",), 2 * MB, arrival_time=40.0),
        ]
        for job in jobs:
            job.bind(topo)
        controller = BDSController(BDSConfig(shards=shards))
        result = Simulation(
            topology=topo,
            jobs=jobs,
            strategy=controller,
            failures=FailureSchedule(
                [
                    FailureEvent(cycle=2, kind="controller_fail"),
                    FailureEvent(cycle=7, kind="controller_recover"),
                ]
            ),
            seed=SEED,
        ).run()
        assert result.all_complete
        assert result.job_completion["small"] <= 7 * 3.0
        fed = controller._shard_runner.feed._known_jobs
        assert not any("small" in known for known in fed)
        assert late in fed[small_shard]


class TestShardedQuality:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_completion_within_tolerance(self, shards):
        base = _run(1)
        sharded = _run(shards)
        assert sharded.all_complete
        dt = 3.0
        for job_id, t_base in base.job_completion.items():
            t_shard = sharded.job_completion[job_id]
            assert t_shard <= t_base + QUALITY_SLACK_CYCLES * dt
