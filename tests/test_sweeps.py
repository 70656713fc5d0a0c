"""The parameter-sweep harness."""

import dataclasses

import pytest

from repro.analysis.runner import Scenario
from repro.analysis.sweeps import SweepPoint, SweepResult, compare_sweeps, sweep
from repro.net.simulator import SimConfig
from repro.utils.units import MB, MBps


def wan_scenario(wan_capacity: float, **fields) -> Scenario:
    return Scenario.mesh(
        3, 2, wan_capacity, 50 * MBps, 60 * MB, 4 * MB, "s", seed=0, **fields
    )


class TestSweep:
    def test_basic_sweep(self):
        result = sweep("wan", [5 * MBps, 20 * MBps], wan_scenario, strategy="bds")
        assert result.knob == "wan"
        assert len(result.points) == 2
        assert all(p.all_complete for p in result.points)
        # More WAN capacity can only help.
        assert result.points[1].completion_time <= result.points[0].completion_time

    def test_values_and_times_aligned(self):
        result = sweep("wan", [10 * MBps], wan_scenario)
        assert result.values() == [10 * MBps]
        assert len(result.points) == 1

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            sweep("wan", [], wan_scenario)

    def test_scenario_must_produce_jobs(self):
        def broken(value):
            return dataclasses.replace(wan_scenario(value), jobs=())

        with pytest.raises(ValueError, match="no jobs"):
            sweep("wan", [10 * MBps], broken)

    def test_incomplete_run_marked_infinite(self):
        result = sweep(
            "wan",
            [1 * MBps],
            lambda wan: wan_scenario(wan, sim=SimConfig(max_cycles=1)),
        )
        assert not result.points[0].all_complete
        assert result.points[0].completion_time == float("inf")


class TestDeadlineSearch:
    def test_cheapest_meeting_deadline(self):
        result = SweepResult(
            knob="wan",
            strategy="bds",
            points=[
                SweepPoint(value=1, completion_time=100, cycles=1, all_complete=True),
                SweepPoint(value=2, completion_time=40, cycles=1, all_complete=True),
                SweepPoint(value=4, completion_time=10, cycles=1, all_complete=True),
            ],
        )
        assert result.cheapest_meeting_deadline(50).value == 2
        assert result.cheapest_meeting_deadline(5) is None

    def test_incomplete_points_skipped(self):
        result = SweepResult(
            knob="wan",
            strategy="bds",
            points=[
                SweepPoint(
                    value=1,
                    completion_time=float("inf"),
                    cycles=1,
                    all_complete=False,
                ),
                SweepPoint(value=2, completion_time=9, cycles=1, all_complete=True),
            ],
        )
        assert result.cheapest_meeting_deadline(10).value == 2


class TestCompareSweeps:
    def test_bds_never_loses_to_direct(self):
        sweeps = compare_sweeps(
            "wan",
            [5 * MBps, 20 * MBps],
            wan_scenario,
            strategies=("direct", "bds"),
        )
        assert set(sweeps) == {"direct", "bds"}
        for d, b in zip(sweeps["direct"].points, sweeps["bds"].points):
            assert b.completion_time <= d.completion_time * 1.01 + 3.0
