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
from pathlib import Path

import pytest

from repro.core.config import BDSConfig
from repro.core.controller import BDSController
from repro.core.shardexec import LocalShardRunner, ShardPayload
from repro.net.simulator import SimConfig, SimResult, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
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
    stride: int = 1,
    event: bool = True,
    num_jobs: int = 6,
    config: BDSConfig = None,
) -> SimResult:
    topo, jobs = _scenario(num_jobs)
    cfg = config or BDSConfig(shards=shards, shard_stride=stride)
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
        assert BDSController(BDSConfig()).shard_signature is None
        assert BDSController(
            BDSConfig(shards=3, shard_stride=2)
        ).shard_signature == (3, 2, "hash")
        assert BDSController(
            BDSConfig(shards=3, shard_partition="affinity")
        ).shard_signature == (3, 1, "affinity")


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

    @pytest.mark.parametrize("stride", [2, 3])
    def test_stride_deterministic_both_engines(self, stride):
        tick = _run(3, stride=stride, event=False)
        ev = _run(3, stride=stride, event=True)
        assert tick.all_complete
        assert _fingerprint(tick) == _fingerprint(ev)

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
        assert [f.name for f in dataclasses.fields(ShardPayload)] == [
            "new_jobs", "new_holders", "deliveries", "speculated",
        ]

    def test_src_imports_no_process_or_pool_machinery(self):
        """The simulator is one process by construction."""
        banned = ("concurrent", "multiprocessing")
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                for name in names:
                    assert name.split(".")[0] not in banned, (path, name)


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
    """Partition-scoped mirrors (the sharded decide path)."""

    @pytest.mark.parametrize("shards,stride", [(2, 1), (3, 2), (4, 1)])
    def test_mirror_matches_shared_store(self, shards, stride):
        """Shards deciding over sub-views of the one shared store was the
        PR 7 decide path; the mirror path must reproduce its recorded
        runs bit-for-bit."""
        mirror = _run(shards, stride=stride)
        assert mirror.all_complete
        pins.check(f"sharded:{shards}x{stride}:shard_local_state=False", mirror)

    def test_state_telemetry_recorded(self):
        result = _run(3)
        fresh = [s for s in result.cycle_stats if s.shard_count]
        assert fresh
        assert any(s.shard_state_bytes > 0 for s in fresh)
        assert any(s.shard_candidate_bytes > 0 for s in fresh)
        assert any(s.shard_payload_bytes > 0 for s in fresh)
        assert all(s.shard_stride == 1 for s in fresh)

    def test_no_state_telemetry_on_shared_store_path(self):
        """There is no shared-store path: speculating cycles are decided
        by the mirrors like any other, over the real view — each overlays
        its own store with its share of the speculated copies (and
        applies none: ``tests/test_overlay.py``) — so per-shard state is
        reported on every cycle."""
        topo, jobs = _scenario()
        controller = BDSController(BDSConfig(shards=2, speculation_horizon=3.0))
        speculating = []
        decide_sharded = controller._decide_sharded

        def spy(view, fallback, speculated):
            assert view.store is sim.store
            speculating.append(bool(speculated))
            return decide_sharded(view, fallback, speculated)

        controller._decide_sharded = spy
        sim = Simulation(topology=topo, jobs=jobs, strategy=controller, seed=SEED)
        result = sim.run()
        assert result.all_complete and any(speculating) and not speculating[0]
        for stats in result.cycle_stats:
            assert stats.shard_count == 2
            assert stats.shard_state_bytes > 0 and stats.shard_candidate_bytes > 0

    def test_per_shard_state_scales_down(self):
        """At a scale past the matrix's 1024-column capacity floor, each
        shard's possession state is a fraction of the full store's."""
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
            return sim.run()

        base = run(BDSConfig())
        base_bytes = base.store.state_bytes()
        assert base_bytes > 0
        sharded = run(BDSConfig(shards=4, shard_partition="affinity"))
        peak = max(s.shard_state_bytes for s in sharded.cycle_stats)
        assert 0 < peak <= 0.5 * base_bytes


class TestAffinityPartition:
    @pytest.mark.parametrize("event", [False, True])
    def test_single_shard_matches_hash(self, event):
        """At shards=1 the partition policy is irrelevant: affinity must
        reproduce the default-config golden fingerprint."""
        baseline = _run(1, event=event, config=BDSConfig())
        affinity = _run(
            1,
            event=event,
            config=BDSConfig(shards=1, shard_partition="affinity"),
        )
        assert _fingerprint(baseline) == _fingerprint(affinity)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_deterministic(self, shards):
        cfg = BDSConfig(shards=shards, shard_partition="affinity")
        first = _run(shards, config=cfg)
        second = _run(
            shards,
            config=BDSConfig(shards=shards, shard_partition="affinity"),
        )
        assert first.all_complete
        assert _fingerprint(first) == _fingerprint(second)

    def test_event_matches_tick(self):
        cfg = dict(shards=3, shard_partition="affinity")
        assert _fingerprint(
            _run(3, event=True, config=BDSConfig(**cfg))
        ) == _fingerprint(_run(3, event=False, config=BDSConfig(**cfg)))

    def test_quality_within_tolerance(self):
        base = _run(1)
        sharded = _run(
            3, config=BDSConfig(shards=3, shard_partition="affinity")
        )
        assert sharded.all_complete
        dt = 3.0
        for job_id, t_base in base.job_completion.items():
            assert (
                sharded.job_completion[job_id]
                <= t_base + QUALITY_SLACK_CYCLES * dt
            )


class TestAdaptiveStride:
    def test_auto_run_completes_with_sane_telemetry(self):
        result = _run(
            3, config=BDSConfig(shards=3, shard_stride="auto")
        )
        assert result.all_complete
        fresh = [s for s in result.cycle_stats if s.shard_count]
        assert fresh
        # The effective stride is always a positive int within [1, k].
        assert all(1 <= s.shard_stride <= 3 for s in fresh)

    def test_auto_signature_tracks_effective_stride(self):
        controller = BDSController(BDSConfig(shards=4, shard_stride="auto"))
        # Auto mode cold-starts maximally staggered (stride = shards).
        assert controller.shard_signature == (4, 4, "hash")
        # The signature carries the effective stride, not the knob.
        controller._stride = 2
        assert controller.shard_signature == (4, 2, "hash")

    @pytest.mark.parametrize("dt, settled", [(1.0, 4), (3.0, 2)])
    def test_auto_budget_is_the_simulators_cycle(self, dt, settled):
        """Shard walls of 0.3 s under a target of half of ΔT: at
        ΔT = 1 s the budget is 0.5 s and only the cold-start stride (one
        shard a cycle) fits it; at ΔT = 3 s it is 1.5 s and two shards a
        cycle fit — the controller has no ΔT of its own to say otherwise."""

        class SlowShards(LocalShardRunner):
            def decide(self, *args, **kwargs):
                results = super().decide(*args, **kwargs)
                return [dataclasses.replace(r, wall=0.3) for r in results]

        topo, jobs = _scenario(8)
        controller = BDSController(BDSConfig(shards=4, shard_stride="auto"))
        controller._shard_runner = SlowShards(
            controller.config, controller._shard_of_id
        )
        result = Simulation(
            topology=topo, jobs=jobs, strategy=controller,
            config=SimConfig(cycle_seconds=dt), seed=SEED,
        ).run()
        assert result.all_complete
        assert controller._stride == settled

    def test_auto_quality_within_tolerance(self):
        base = _run(1)
        auto = _run(4, config=BDSConfig(shards=4, shard_stride="auto"))
        assert auto.all_complete
        dt = 3.0
        for job_id, t_base in base.job_completion.items():
            # Worst case the stride widens to k: same envelope as the
            # static stride=k test below.
            assert (
                auto.job_completion[job_id]
                <= t_base + (QUALITY_SLACK_CYCLES + 4) * dt
            )


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

    def test_stride_completion_within_tolerance(self):
        base = _run(1)
        strided = _run(4, stride=4)
        assert strided.all_complete
        dt = 3.0
        for job_id, t_base in base.job_completion.items():
            assert (
                strided.job_completion[job_id]
                <= t_base + (QUALITY_SLACK_CYCLES + 4) * dt
            )
