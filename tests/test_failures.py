"""Failure schedules and their cycle-driven application."""

import pytest

from repro.net.failures import FailureEvent, FailureSchedule


class TestFailureEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown failure kind"):
            FailureEvent(cycle=0, kind="explode")

    def test_negative_cycle_rejected(self):
        with pytest.raises(ValueError):
            FailureEvent(cycle=-1, kind="controller_fail")

    def test_agent_event_needs_target(self):
        with pytest.raises(ValueError, match="requires a target"):
            FailureEvent(cycle=0, kind="agent_fail")

    def test_controller_event_needs_no_target(self):
        FailureEvent(cycle=0, kind="controller_fail")  # does not raise


class TestFailureSchedule:
    def test_events_apply_in_order(self):
        schedule = FailureSchedule(
            [
                FailureEvent(cycle=2, kind="agent_fail", target="s1"),
                FailureEvent(cycle=5, kind="agent_recover", target="s1"),
            ]
        )
        schedule.advance_to(1)
        assert schedule.agent_is_up("s1")
        schedule.advance_to(2)
        assert not schedule.agent_is_up("s1")
        schedule.advance_to(5)
        assert schedule.agent_is_up("s1")

    def test_advance_is_idempotent(self):
        schedule = FailureSchedule(
            [FailureEvent(cycle=1, kind="agent_fail", target="s1")]
        )
        applied_first = schedule.advance_to(3)
        applied_again = schedule.advance_to(3)
        assert len(applied_first) == 1
        assert applied_again == []

    def test_controller_toggle(self):
        schedule = FailureSchedule(
            [
                FailureEvent(cycle=1, kind="controller_fail"),
                FailureEvent(cycle=3, kind="controller_recover"),
            ]
        )
        schedule.advance_to(1)
        assert schedule.controller_down
        schedule.advance_to(3)
        assert not schedule.controller_down

    def test_link_failure(self):
        schedule = FailureSchedule(
            [FailureEvent(cycle=0, kind="link_fail", target=("a", "b"))]
        )
        schedule.advance_to(0)
        assert not schedule.link_is_up("a", "b")
        assert schedule.link_is_up("b", "a")  # directed

    def test_add_rejects_past_cycles(self):
        schedule = FailureSchedule()
        schedule.advance_to(5)
        with pytest.raises(ValueError, match="already applied"):
            schedule.add(FailureEvent(cycle=3, kind="controller_fail"))

    def test_add_future_event_ok(self):
        schedule = FailureSchedule()
        schedule.advance_to(5)
        schedule.add(FailureEvent(cycle=10, kind="controller_fail"))
        schedule.advance_to(10)
        assert schedule.controller_down

    def test_paper_fig12a_shape(self):
        schedule = FailureSchedule.paper_fig12a(agent="s0")
        schedule.advance_to(10)
        assert not schedule.agent_is_up("s0")
        schedule.advance_to(15)
        assert schedule.agent_is_up("s0")  # recovers next cycle
        assert not schedule.controller_down
        schedule.advance_to(20)
        assert schedule.controller_down
        schedule.advance_to(30)
        assert not schedule.controller_down


class TestOutageStageAccounting:
    """A controller outage is neither scheduling nor routing time."""

    def _run(self, strategy_name):
        from repro.analysis.runner import make_strategy
        from repro.net.simulator import SimConfig, Simulation
        from repro.net.topology import Topology
        from repro.overlay.job import MulticastJob
        from repro.utils.units import MB, MBps

        topo = Topology.full_mesh(
            num_dcs=3, servers_per_dc=2, wan_capacity=40 * MBps, uplink=4 * MBps
        )
        job = MulticastJob(
            job_id="j", src_dc="dc0", dst_dcs=("dc1", "dc2"),
            total_bytes=96 * MB, block_size=4 * MB,
        )
        job.bind(topo)
        failures = FailureSchedule(
            [
                FailureEvent(cycle=2, kind="controller_fail"),
                FailureEvent(cycle=5, kind="controller_recover"),
            ]
        )
        sim = Simulation(
            topo, [job], make_strategy(strategy_name, seed=3),
            SimConfig(max_cycles=9, stop_when_complete=False),
            failures=failures, seed=3,
        )
        return sim.run()

    def test_fallback_cycles_book_no_schedule_or_route_time(self):
        result = self._run("bds")
        outage = [s for s in result.cycle_stats if not s.controller_available]
        assert [s.cycle for s in outage] == [2, 3, 4]
        for s in outage:
            assert s.time_decide > 0.0  # the fallback's decide is still timed
            assert s.time_schedule == 0.0 and s.time_route == 0.0
        decided = [
            s for s in result.cycle_stats
            if s.controller_available and not s.fast_forwarded
        ]
        assert decided and all(s.time_schedule > 0.0 for s in decided)
        totals = result.stage_time_totals()
        assert totals["schedule"] + totals["route"] <= totals["decide"]

    def test_strategies_without_a_decision_log_keep_decide_as_schedule(self):
        result = self._run("gingko")
        assert result.cycle_stats
        for s in result.cycle_stats:
            assert s.time_schedule == s.time_decide and s.time_route == 0.0
