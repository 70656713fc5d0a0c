"""Event-driven simulator core: equivalence, the idle skip, and time grid.

For a strategy that certifies ``decisions_reusable`` the cycle loop skips
the cycles in which no job is active, on top of fixed ticks. The skip
claims *bit-identical* results — these tests hold it to that. The tick
arm is the same loop run for the same strategy with the certificate
withdrawn on the instance (``decisions_reusable = False``): every cycle
executes.

* randomized property runs compare :meth:`SimResult.fingerprint` between
  the two arms across failures, background traffic, late arrivals,
  pre-seeded copies, and controller replica elections;
* an idle-gap scenario asserts the skip actually engages, is capped by
  every change-point, and leaves busy-but-quiet cycles alone (draining
  flows, a job whose holders are all down, a partitioned source);
* a million-cycle run pins the integer-cycle time grid: completion
  timestamps stay exact multiples of ΔT no matter how far time advances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.runner import make_strategy
from repro.core.fault import ControllerReplicaSet
from repro.net.background import BackgroundTraffic
from repro.net.cycle_cache import first_cycle_at_or_after
from repro.net.failures import FailureEvent, FailureSchedule
from repro.net.result import SimResult
from repro.net.simulator import SimConfig, Simulation
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
    """The idle skip must fire on idle stretches — and on nothing else."""

    GAP_ARRIVAL_CYCLE = 300

    def _run(self, topo, jobs, event_engine, strategy, dt=3.0, **sim_kwargs):
        for job in jobs:
            job.bind(topo)
        instance = (
            make_strategy(strategy, seed=SEED)
            if isinstance(strategy, str)
            else strategy
        )
        if not event_engine:
            instance.decisions_reusable = False
        sim = Simulation(
            topology=topo,
            jobs=jobs,
            strategy=instance,
            config=SimConfig(max_cycles=5000, cycle_seconds=dt),
            seed=SEED,
            **sim_kwargs,
        )
        return sim.run()

    def _idle_gap(
        self,
        event_engine: bool,
        strategy: str = "direct",
        dt: float = 3.0,
        background: str = "stepped",
        failures=None,
    ):
        """Two jobs, the second arriving hundreds of cycles after the
        first completes; a stepped background's change-points (every 30 s)
        cut the idle gap into stretches."""
        topo = Topology.full_mesh(
            num_dcs=3, servers_per_dc=2, wan_capacity=50 * MBps, uplink=25 * MBps
        )
        jobs = [
            MulticastJob(
                job_id=name,
                src_dc="dc0",
                dst_dcs=("dc1", "dc2"),
                total_bytes=64 * MB,
                block_size=4 * MB,
                arrival_time=arrival_cycle * dt,
            )
            for name, arrival_cycle in (("early", 0), ("late", self.GAP_ARRIVAL_CYCLE))
        ]
        bg = BackgroundTraffic(
            base_fraction=0.2,
            diurnal_fraction=0.1,
            noise_fraction=0.02,
            seed=SEED,
            step_seconds=30.0 if background == "stepped" else 0.0,
        )
        return self._run(
            topo, jobs, event_engine, strategy, dt,
            background=bg, failures=failures,
        )

    def _steady(self, event_engine: bool, strategy: str = "direct"):
        """One 512 MB job in 64 MB blocks over 1 MB/s NICs: every block
        outlasts 21 cycles, so flows drain for hundreds of cycles with
        nothing delivered — busy, never idle."""
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
        return self._run(topo, [job], event_engine, strategy)

    @staticmethod
    def _skipped_cycles(result) -> set:
        return {
            first.cycle + offset
            for first, count in result.cycle_stats.runs()
            if first.fast_forwarded
            for offset in range(count)
        }

    @pytest.mark.parametrize("strategy", ["direct", "bds"])
    def test_fast_forward_counts(self, strategy):
        result = self._idle_gap(True, strategy)
        assert result.all_complete
        assert result.cycles_run > self.GAP_ARRIVAL_CYCLE
        assert result.cycles_fast_forwarded > 200
        assert result.cycles_decision_reused == 0
        # Accounting closes: every simulated cycle is executed or skipped.
        assert result.cycles_run == len(result.cycle_stats)
        executed = sum(1 for s in result.cycle_stats if not s.fast_forwarded)
        assert executed + result.cycles_fast_forwarded == result.cycles_run

    def test_tick_engine_never_skips(self):
        result = self._idle_gap(False)
        assert result.cycles_fast_forwarded == 0
        assert result.cycles_decision_reused == 0
        assert not any(s.fast_forwarded for s in result.cycle_stats)

    def test_skipped_cycles_marked(self):
        result = self._idle_gap(True)
        flagged = sum(1 for s in result.cycle_stats if s.fast_forwarded)
        assert flagged == result.cycles_fast_forwarded
        assert not any(s.decision_reused for s in result.cycle_stats)

    def test_fingerprints_match(self):
        assert (
            self._idle_gap(True).fingerprint() == self._idle_gap(False).fingerprint()
        )

    def test_a_speculating_controller_idles_exactly(self):
        """§5.1 speculation carries last cycle's directives into the next
        decide; the first idle cycle executes and empties them."""
        from repro.core.config import BDSConfig
        from repro.core.controller import BDSController

        def controller():
            return BDSController(BDSConfig(speculation_horizon=1.5), seed=SEED)

        event = self._idle_gap(True, controller())
        tick = self._idle_gap(False, controller())
        assert event.all_complete and event.cycles_fast_forwarded > 200
        assert event.fingerprint() == tick.fingerprint()

    @pytest.mark.parametrize("strategy", ["direct", "bds"])
    def test_draining_flows_are_not_idle(self, strategy):
        """Cycles that deliver nothing while flows drain all execute."""
        event = self._steady(True, strategy)
        tick = self._steady(False, strategy)
        assert event.all_complete and event.cycles_run > 100
        assert event.cycles_fast_forwarded == 0
        assert sum(1 for n in event.blocks_per_cycle() if n == 0) > 100
        assert event.fingerprint() == tick.fingerprint()

    def test_a_job_whose_holders_are_all_down_is_not_idle(self):
        """Mutation witness for the idle predicate. Every server of the
        job's source DC is down for cycles 0-4, so no one holds a block
        the controller could schedule and it emits no directive. The job
        is active, so those cycles are not idle; a predicate weakened to
        "no directives" skips cycles 1-4."""
        from repro.core.controller import BDSController

        def arm(event_engine: bool):
            topo = Topology.full_mesh(
                num_dcs=3, servers_per_dc=2, wan_capacity=50 * MBps,
                uplink=25 * MBps,
            )
            job = MulticastJob(
                job_id="j", src_dc="dc0", dst_dcs=("dc1", "dc2"),
                total_bytes=64 * MB, block_size=4 * MB,
            )
            down = [s for s, server in topo.servers.items() if server.dc == "dc0"]
            failures = FailureSchedule(
                [FailureEvent(0, "agent_fail", s) for s in down]
                + [FailureEvent(5, "agent_recover", s) for s in down]
            )
            controller = BDSController(seed=SEED)
            result = self._run(
                topo, [job], event_engine, controller, failures=failures
            )
            return result, controller

        event, controller = arm(True)
        quiet = [d for d in controller.decisions if d.cycle < 5]
        assert len(quiet) == 5
        assert not any(d.directives for d in quiet)  # the witness's premise
        assert event.all_complete
        assert event.cycles_fast_forwarded == 0
        tick, _ = arm(False)
        assert event.cycles_run == tick.cycles_run < 20
        assert event.fingerprint() == tick.fingerprint()

    def test_continuous_noisy_background_never_skips(self):
        """Every cycle is a background change-point: nothing to skip."""
        event = self._idle_gap(True, background="continuous")
        tick = self._idle_gap(False, background="continuous")
        assert event.cycles_run > self.GAP_ARRIVAL_CYCLE
        assert event.cycles_fast_forwarded == 0
        assert event.fingerprint() == tick.fingerprint()

    @pytest.mark.parametrize("strategy", ["direct", "bds"])
    def test_events_inside_an_idle_gap_cap_the_stretch(self, strategy):
        """The first cycle a failure event or a background step affects
        executes, so its record shows the state it ran under."""

        def schedule():
            return FailureSchedule(
                [
                    FailureEvent(cycle=100, kind="controller_fail"),
                    FailureEvent(cycle=137, kind="link_fail", target=("dc0", "dc1")),
                    FailureEvent(cycle=150, kind="controller_recover"),
                    FailureEvent(cycle=151, kind="link_recover", target=("dc0", "dc1")),
                ]
            )

        event = self._idle_gap(True, strategy, failures=schedule())
        tick = self._idle_gap(False, strategy, failures=schedule())
        assert event.fingerprint() == tick.fingerprint()
        skipped = self._skipped_cycles(event)
        assert len(skipped) == event.cycles_fast_forwarded > 200
        # Failure events, the background's steps (10 cycles each) and the
        # arrival all land on executed cycles — with skipped ones between.
        executed_in_gap = set(range(50, self.GAP_ARRIVAL_CYCLE + 1)) - skipped
        assert executed_in_gap == (
            {100, 137, 150, 151}
            | set(range(50, self.GAP_ARRIVAL_CYCLE + 1, 10))
        )
        assert {99, 136, 149} <= skipped
        # A stretch copies its first cycle's record: a stretch run across
        # the outage's edge would report the wrong availability.
        assert [s.controller_available for s in event.cycle_stats] == [
            s.controller_available for s in tick.cycle_stats
        ]
        assert [
            s.cycle for s in event.cycle_stats if not s.controller_available
        ] == list(range(100, 150))

    def test_a_stretch_advances_the_failure_watermark(self):
        """A run ending inside a stretch leaves the schedule applied
        through its last cycle: no event can be added at a skipped one."""
        topo = Topology.full_mesh(
            num_dcs=3, servers_per_dc=2, wan_capacity=50 * MBps, uplink=25 * MBps
        )
        job = MulticastJob(
            job_id="j", src_dc="dc0", dst_dcs=("dc1",),
            total_bytes=16 * MB, block_size=4 * MB,
        )
        job.bind(topo)
        failures = FailureSchedule(
            [FailureEvent(cycle=1, kind="agent_fail", target="dc2-s0")]
        )
        result = Simulation(
            topo, [job], make_strategy("direct", seed=SEED),
            SimConfig(max_cycles=400, stop_when_complete=False),
            failures=failures, seed=SEED,
        ).run()
        assert result.cycles_run == 400
        assert list(result.cycle_stats.runs())[-1][0].fast_forwarded
        with pytest.raises(ValueError, match="already applied through 399"):
            failures.add(FailureEvent(cycle=399, kind="controller_fail"))

    @pytest.mark.parametrize("strategy", ["direct", "bds"])
    def test_active_but_blocked_is_not_idle(self, strategy):
        """The source DC is cut off for 60 cycles: a job is active, no
        flow can run — those cycles execute, one by one."""
        cut = [("dc0", "dc1"), ("dc1", "dc0"), ("dc0", "dc2"), ("dc2", "dc0")]

        def arm(event_engine: bool):
            topo = Topology.full_mesh(
                num_dcs=3, servers_per_dc=2, wan_capacity=50 * MBps,
                uplink=25 * MBps,
            )
            job = MulticastJob(
                job_id="blocked", src_dc="dc0", dst_dcs=("dc1", "dc2"),
                total_bytes=64 * MB, block_size=4 * MB,
            )
            failures = FailureSchedule(
                [FailureEvent(cycle=0, kind="link_fail", target=link) for link in cut]
                + [
                    FailureEvent(cycle=60, kind="link_recover", target=link)
                    for link in cut
                ]
            )
            return self._run(topo, [job], event_engine, strategy, failures=failures)

        event, tick = arm(True), arm(False)
        assert event.all_complete and event.cycles_run > 60
        assert [s.active_flows for s in event.cycle_stats][:60] == [0] * 60
        assert event.cycles_fast_forwarded == 0
        assert event.fingerprint() == tick.fingerprint()

    @pytest.mark.parametrize("dt", [3.0, 0.7])  # 0.7: c * dt rounds
    @pytest.mark.parametrize("strategy", ["direct", "bds"])
    def test_a_skipped_stretch_is_one_record_that_reads_as_its_cycles(
        self, strategy, dt
    ):
        """The idle skip appends one run record per stretch; the log still
        reads, cycle for cycle, as the tick loop's list."""
        event = self._idle_gap(True, strategy, dt)
        tick = self._idle_gap(False, strategy, dt)
        log = event.cycle_stats
        records = list(log.runs())
        skipped = [count for first, count in records if first.fast_forwarded]
        assert sum(skipped) == event.cycles_fast_forwarded
        assert len(skipped) > 3  # the background's steps cut the gap
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

        # Pickle and the export.
        import pickle

        from repro.analysis.export import result_to_dict

        again = pickle.loads(pickle.dumps(event))
        assert again.cycle_stats == log and again.fingerprint() == event.fingerprint()
        payload = result_to_dict(event)
        assert [c["cycle"] for c in payload["cycles"]] == [s.cycle for s in log]
        assert [c["time"] for c in payload["cycles"]] == [s.time for s in log]


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
            config=SimConfig(max_cycles=1_100_000, cycle_seconds=dt),
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


class TestBackgroundChangePoints:
    """next_change_after caps the idle skip; state_token_at names a state."""

    def test_static_background_never_changes(self):
        bg = BackgroundTraffic(diurnal_fraction=0.0, noise_fraction=0.0, seed=1)
        assert bg.is_static()
        assert bg.next_change_after(0, 3.0) is None
        assert bg.state_token_at(0.0) == bg.state_token_at(12345 * 3.0)

    def test_continuous_background_changes_every_cycle(self):
        bg = BackgroundTraffic(diurnal_fraction=0.2, noise_fraction=0.05, seed=1)
        assert not bg.is_static()
        assert bg.next_change_after(7, 3.0) == 8
        assert bg.state_token_at(7 * 3.0) is None  # no state outlives a query

    def test_stepped_background_changes_at_step_boundaries(self):
        bg = BackgroundTraffic(
            diurnal_fraction=0.2, noise_fraction=0.05, seed=1, step_seconds=30.0
        )
        dt = 3.0  # 10 cycles per step
        nxt = bg.next_change_after(0, dt)
        assert nxt == 10
        # All cycles inside a step share a token; steps differ.
        assert bg.state_token_at(0 * dt) == bg.state_token_at(9 * dt)
        assert bg.state_token_at(9 * dt) != bg.state_token_at(10 * dt)

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
