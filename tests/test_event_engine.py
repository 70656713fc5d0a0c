"""Event-driven simulator core: equivalence, fast-forward, and time grid.

For a strategy that certifies its decisions as reusable the cycle loop
adds decision reuse and analytic multi-cycle fast-forward on top of
fixed ticks. Both shortcuts claim *bit-identical* results — these tests
hold them to it. The tick arm is the same loop run for the same strategy
with the certificate withdrawn on the instance (``decisions_reusable =
False``): every cycle decides fresh and none is skipped.

* randomized property runs compare :meth:`SimResult.fingerprint` between
  the two arms across failures, background traffic, late arrivals,
  pre-seeded copies, and controller replica elections;
* a steady-state scenario asserts fast-forward actually engages (the
  speedup claim is vacuous otherwise);
* a million-cycle run pins the integer-cycle time grid: completion
  timestamps stay exact multiples of ΔT no matter how far time advances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.runner import make_strategy
from repro.core.fault import ControllerReplicaSet
from repro.net.background import BackgroundTraffic
from repro.net.cycle_cache import DecisionReuseState, first_cycle_at_or_after
from repro.net.failures import FailureEvent, FailureSchedule
from repro.net.simulator import SimConfig, SimResult, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import MB, MBps

SEED = 41


def _scenario(
    seed: int,
    strategy_name: str = "bds",
    event_engine: bool = True,
    with_failures: bool = False,
    background: str = "none",
    late_arrival: bool = False,
    pre_seeded: bool = False,
    replicas: bool = False,
    max_cycles: int = 600,
) -> SimResult:
    """One deterministic run; every knob changes the scenario, not the seed."""
    rng = np.random.default_rng(seed)
    num_dcs = int(rng.integers(3, 6))
    topo = Topology.full_mesh(
        num_dcs=num_dcs,
        servers_per_dc=int(rng.integers(2, 4)),
        wan_capacity=float(rng.uniform(5, 50)) * MBps,
        uplink=float(rng.uniform(3, 25)) * MBps,
    )
    jobs = []
    for j in range(int(rng.integers(1, 3))):
        dsts = tuple(
            f"dc{i}" for i in range(1, num_dcs) if i == 1 or rng.uniform() < 0.7
        )
        job = MulticastJob(
            job_id=f"job{j}",
            src_dc="dc0",
            dst_dcs=dsts,
            total_bytes=float(rng.uniform(16, 96)) * MB,
            block_size=4 * MB,
            arrival_time=float(rng.uniform(30, 120)) if late_arrival and j else 0.0,
        )
        job.bind(topo)
        jobs.append(job)
    failures = None
    if with_failures:
        failures = FailureSchedule(
            [
                FailureEvent(cycle=2, kind="agent_fail", target="dc1-s0"),
                FailureEvent(cycle=3, kind="link_fail", target=("dc0", "dc1")),
                FailureEvent(cycle=8, kind="agent_recover", target="dc1-s0"),
                FailureEvent(cycle=9, kind="link_recover", target=("dc0", "dc1")),
            ]
            + (
                [
                    FailureEvent(cycle=4, kind="replica_fail", target="controller-0"),
                    FailureEvent(cycle=7, kind="replica_recover", target="controller-0"),
                ]
                if replicas
                else []
            )
        )
    bg = None
    if background == "static":
        bg = BackgroundTraffic(
            base_fraction=0.2, diurnal_fraction=0.0, noise_fraction=0.0, seed=seed
        )
    elif background == "stepped":
        bg = BackgroundTraffic(
            base_fraction=0.2,
            diurnal_fraction=0.1,
            noise_fraction=0.02,
            seed=seed,
            step_seconds=30.0,
        )
    elif background == "continuous":
        bg = BackgroundTraffic(
            base_fraction=0.2, diurnal_fraction=0.1, noise_fraction=0.02, seed=seed
        )
    seeded = None
    if pre_seeded:
        # Drop the first job's first two blocks onto a destination server.
        job = jobs[0]
        dst = job.assigned_server(job.dst_dcs[0], job.blocks[0].block_id)
        seeded = {dst: [b for b in job.blocks[:2]]}
    strategy = make_strategy(strategy_name, seed=SEED)
    if not event_engine:
        strategy.decisions_reusable = False
    sim = Simulation(
        topology=topo,
        jobs=jobs,
        strategy=strategy,
        config=SimConfig(max_cycles=max_cycles),
        background=bg,
        failures=failures,
        seed=SEED,
        pre_seeded=seeded,
        replica_set=ControllerReplicaSet() if replicas else None,
    )
    return sim.run()


class TestEngineEquivalence:
    """Event engine ≡ tick loop, fingerprint for fingerprint."""

    @pytest.mark.parametrize("strategy", ["bds", "direct", "chain", "akamai"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_plain_scenarios(self, strategy, seed):
        a = _scenario(seed, strategy, event_engine=True)
        b = _scenario(seed, strategy, event_engine=False)
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("strategy", ["bds", "chain"])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_with_failures(self, strategy, seed):
        a = _scenario(seed, strategy, event_engine=True, with_failures=True)
        b = _scenario(seed, strategy, event_engine=False, with_failures=True)
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("background", ["static", "stepped", "continuous"])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_with_background(self, background, seed):
        a = _scenario(seed, event_engine=True, background=background)
        b = _scenario(seed, event_engine=False, background=background)
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("strategy", ["bds", "direct"])
    @pytest.mark.parametrize("seed", [7, 8])
    def test_late_arrivals(self, strategy, seed):
        a = _scenario(seed, strategy, event_engine=True, late_arrival=True)
        b = _scenario(seed, strategy, event_engine=False, late_arrival=True)
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("seed", [9, 10])
    def test_pre_seeded_copies(self, seed):
        a = _scenario(seed, event_engine=True, pre_seeded=True)
        b = _scenario(seed, event_engine=False, pre_seeded=True)
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("seed", [11])
    def test_replica_elections(self, seed):
        a = _scenario(
            seed, event_engine=True, with_failures=True, replicas=True
        )
        b = _scenario(
            seed, event_engine=False, with_failures=True, replicas=True
        )
        assert a.fingerprint() == b.fingerprint()

    def test_kitchen_sink(self):
        """Everything at once: the union of invalidation triggers."""
        kwargs = dict(
            with_failures=True,
            background="stepped",
            late_arrival=True,
            pre_seeded=True,
        )
        a = _scenario(12, "bds", event_engine=True, **kwargs)
        b = _scenario(12, "bds", event_engine=False, **kwargs)
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("event_engine", [True, False])
    def test_golden_repeatability(self, event_engine):
        """Same engine, same seed, run twice: bit-identical (golden)."""
        a = _scenario(13, "bds", event_engine=event_engine)
        b = _scenario(13, "bds", event_engine=event_engine)
        assert a.fingerprint() == b.fingerprint()


class TestFastForwardEngages:
    """The speedup machinery must actually fire on steady-state runs."""

    def _steady(
        self, event_engine: bool, strategy: str = "direct", dt: float = 3.0
    ):
        topo = Topology.full_mesh(
            num_dcs=3, servers_per_dc=2, wan_capacity=2 * MBps, uplink=1 * MBps
        )
        job = MulticastJob(
            job_id="steady",
            src_dc="dc0",
            dst_dcs=("dc1", "dc2"),
            total_bytes=512 * MB,
            block_size=64 * MB,
        )
        job.bind(topo)
        instance = make_strategy(strategy, seed=SEED)
        if not event_engine:
            instance.decisions_reusable = False
        sim = Simulation(
            topology=topo,
            jobs=[job],
            strategy=instance,
            config=SimConfig(max_cycles=5000, cycle_seconds=dt),
            seed=SEED,
        )
        return sim.run()

    @pytest.mark.parametrize("strategy", ["direct", "bds"])
    def test_fast_forward_counts(self, strategy):
        result = self._steady(True, strategy)
        assert result.all_complete
        assert result.cycles_fast_forwarded > 0
        assert result.cycles_decision_reused > 0
        # Accounting closes: every simulated cycle is executed or skipped.
        assert result.cycles_run == len(result.cycle_stats)

    def test_tick_engine_never_skips(self):
        result = self._steady(False)
        assert result.cycles_fast_forwarded == 0
        assert result.cycles_decision_reused == 0
        assert not any(s.fast_forwarded for s in result.cycle_stats)

    def test_skipped_cycles_marked(self):
        result = self._steady(True)
        flagged = sum(1 for s in result.cycle_stats if s.fast_forwarded)
        assert flagged == result.cycles_fast_forwarded

    def test_fingerprints_match(self):
        assert self._steady(True).fingerprint() == self._steady(False).fingerprint()

    @pytest.mark.parametrize("dt", [3.0, 0.7])  # 0.7: c * dt rounds
    @pytest.mark.parametrize("strategy", ["direct", "bds"])
    def test_a_skipped_stretch_is_one_record_that_reads_as_its_cycles(
        self, strategy, dt
    ):
        """Fast-forward appends one run record per stretch; the log still
        reads, cycle for cycle, as the tick loop's list."""
        event = self._steady(True, strategy, dt)
        tick = self._steady(False, strategy, dt)
        log = event.cycle_stats
        records = list(log.runs())
        skipped = [count for first, count in records if first.fast_forwarded]
        assert sum(skipped) == event.cycles_fast_forwarded
        assert len(records) < len(log) == len(tick.cycle_stats)
        assert len(records) == len(log) - sum(skipped) + len(skipped)

        deterministic = (
            "cycle", "time", "blocks_delivered", "bytes_transferred",
            "active_flows", "controller_available",
        )

        def fields(stats):
            return [tuple(getattr(s, f) for f in deterministic) for s in stats]

        assert fields(log) == fields(tick.cycle_stats)
        assert fields(log[i] for i in range(len(log))) == fields(log)
        assert fields(log[-i] for i in range(1, len(log) + 1)) == fields(log)[::-1]
        assert fields(log[3:40:7]) == fields(log)[3:40:7]
        with pytest.raises(IndexError):
            log[len(log)]
        assert log and log == list(log) and list(log) == log and log != []

        # The readers walk records, and fold the same floats in cycle order.
        assert event.blocks_per_cycle() == [s.blocks_delivered for s in log]
        assert event.total_bytes_transferred() == sum(
            s.bytes_transferred for s in log
        ) == tick.total_bytes_transferred()
        assert event.total_rate_stalemates() == sum(s.rate_stalemates for s in log)
        totals = event.stage_time_totals()
        assert totals["deliver"] == sum(s.time_deliver for s in log)

        # Pickle (run_many's transport) and the export round-trip.
        import pickle

        from repro.analysis.export import result_from_dict, result_to_dict

        again = pickle.loads(pickle.dumps(event))
        assert again.cycle_stats == log and again.fingerprint() == event.fingerprint()
        payload = result_to_dict(event)
        assert [c["cycle"] for c in payload["cycles"]] == [s.cycle for s in log]
        assert [c["time"] for c in payload["cycles"]] == [s.time for s in log]
        restored = result_from_dict(payload)
        assert restored.cycle_stats == log
        assert restored.fingerprint() == event.fingerprint()


class TestIntegerCycleGrid:
    """Satellite: timestamps derive from integer cycle counts, always."""

    def test_completion_times_exact_multiples_at_cycle_1e6(self):
        """A job arriving near cycle 10⁶ still completes on the exact grid.

        The legacy loop accumulated ``now + dt`` float additions; after a
        million cycles ``now`` would have drifted off the grid and
        completion timestamps with it. Deriving every timestamp from the
        integer cycle index keeps ``c * dt`` exact for any c.
        """
        dt = 3.0
        arrival_cycle = 999_990
        topo = Topology.full_mesh(
            num_dcs=3, servers_per_dc=2, wan_capacity=50 * MBps, uplink=25 * MBps
        )
        job = MulticastJob(
            job_id="late",
            src_dc="dc0",
            dst_dcs=("dc1", "dc2"),
            total_bytes=16 * MB,
            block_size=4 * MB,
            arrival_time=arrival_cycle * dt,
        )
        job.bind(topo)
        sim = Simulation(
            topology=topo,
            jobs=[job],
            strategy=make_strategy("direct", seed=SEED),
            config=SimConfig(
                max_cycles=1_100_000,
                cycle_seconds=dt,
                record_cycle_stats=False,  # 10⁶ CycleStats would dominate RAM
            ),
            seed=SEED,
        )
        result = sim.run()
        assert result.all_complete
        times = list(result.server_completion.values()) + list(
            result.job_completion.values()
        )
        assert times
        for t in times:
            cycles = t / dt
            # Bitwise on-grid: t is exactly (some integer) * dt.
            assert cycles == int(cycles)
            assert int(cycles) >= arrival_cycle

    def test_arrival_grid_matches_legacy_predicate(self):
        """first_cycle_at_or_after inverts the `arrival <= c*dt` test exactly."""
        for dt in (1.0, 1.5, 3.0, 7.0):
            for arrival in (0.0, 0.1, dt, 2.5 * dt, 1e6 * dt, 1e6 * dt + 1e-7):
                c = first_cycle_at_or_after(arrival, dt)
                assert arrival <= c * dt
                assert c == 0 or arrival > (c - 1) * dt


class TestPerJobCadence:
    """Satellite: jobs may request a coarser decision cadence."""

    def _job(self, cycle_seconds, arrival_time=0.0):
        return MulticastJob(
            job_id="cadence",
            src_dc="dc0",
            dst_dcs=("dc1", "dc2"),
            total_bytes=8 * MB,
            block_size=4 * MB,
            arrival_time=arrival_time,
            cycle_seconds=cycle_seconds,
        )

    def _sim(self, job):
        topo = Topology.full_mesh(
            num_dcs=3, servers_per_dc=2, wan_capacity=50 * MBps, uplink=25 * MBps
        )
        job.bind(topo)
        return Simulation(
            topology=topo,
            jobs=[job],
            strategy=make_strategy("direct", seed=SEED),
            config=SimConfig(max_cycles=100, cycle_seconds=3.0),
            seed=SEED,
        )

    def test_arrival_quantized_to_cadence(self):
        # Arrives at t=4s; cadence 6s quantizes the first active cycle up
        # to the next multiple of 2 cycles (cycle 2, t=6s).
        sim = self._sim(self._job(6.0, arrival_time=4.0))
        assert sim._arrival_cycle_by_idx == [2]
        result = sim.run()
        assert result.all_complete

    def test_non_multiple_cadence_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            self._sim(self._job(4.0))

    def test_negative_cadence_rejected(self):
        with pytest.raises(ValueError):
            self._job(-3.0)


class TestBackgroundChangePoints:
    """next_change_after / state_token drive reuse and fast-forward."""

    def test_static_background_never_changes(self):
        bg = BackgroundTraffic(diurnal_fraction=0.0, noise_fraction=0.0, seed=1)
        assert bg.is_static()
        assert bg.next_change_after(0, 3.0) is None
        assert bg.state_token(0, 3.0) == bg.state_token(12345, 3.0)

    def test_continuous_background_changes_every_cycle(self):
        bg = BackgroundTraffic(diurnal_fraction=0.2, noise_fraction=0.05, seed=1)
        assert not bg.is_static()
        assert bg.next_change_after(7, 3.0) == 8
        assert bg.state_token(7, 3.0) != bg.state_token(8, 3.0)

    def test_stepped_background_changes_at_step_boundaries(self):
        bg = BackgroundTraffic(
            diurnal_fraction=0.2, noise_fraction=0.05, seed=1, step_seconds=30.0
        )
        dt = 3.0  # 10 cycles per step
        nxt = bg.next_change_after(0, dt)
        assert nxt == 10
        # All cycles inside a step share a token; steps differ.
        assert bg.state_token(0, dt) == bg.state_token(9, dt)
        assert bg.state_token(9, dt) != bg.state_token(10, dt)

    def test_stepped_usage_is_call_order_independent(self):
        mk = lambda: BackgroundTraffic(
            diurnal_fraction=0.2, noise_fraction=0.05, seed=9, step_seconds=30.0
        )
        link = ("wan", "dc0", "dc1")
        a, b = mk(), mk()
        times = [0.0, 90.0, 30.0, 0.0, 60.0]
        got_a = [a.usage_fraction(link, t) for t in times]
        got_b = [b.usage_fraction(link, t) for t in reversed(times)]
        assert got_a == list(reversed(got_b))

    def test_decision_reuse_state_horizon(self):
        state = DecisionReuseState()
        state.store_decision(("k",), cycle=5, horizon=3, directives=[], resources=[])
        assert state.valid_for(6, ("k",))
        assert state.valid_for(8, ("k",))
        assert not state.valid_for(9, ("k",))  # past the horizon
        assert not state.valid_for(6, ("other",))  # key mismatch


class TestConfigValidation:
    def test_link_stats_require_cycle_stats(self):
        with pytest.raises(ValueError, match="record_cycle_stats"):
            SimConfig(record_link_stats=True, record_cycle_stats=False)

    def test_cycle_stats_off_still_counts(self):
        topo = Topology.full_mesh(
            num_dcs=3, servers_per_dc=2, wan_capacity=50 * MBps, uplink=25 * MBps
        )
        job = MulticastJob(
            job_id="nostats",
            src_dc="dc0",
            dst_dcs=("dc1", "dc2"),
            total_bytes=16 * MB,
            block_size=4 * MB,
        )
        job.bind(topo)
        sim = Simulation(
            topology=topo,
            jobs=[job],
            strategy=make_strategy("direct", seed=SEED),
            config=SimConfig(max_cycles=500, record_cycle_stats=False),
            seed=SEED,
        )
        result = sim.run()
        assert result.all_complete
        assert result.cycle_stats == []
        assert result.cycles_run > 0
        assert result.sim_time == result.cycles_run * 3.0
