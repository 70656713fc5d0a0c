"""Parameter sweeps: completion time as a function of one scenario knob.

The paper's evaluation sweeps block size and cycle length (Fig. 12b/12c,
entries of ``repro.analysis.experiments``); downstream users additionally
want capacity planning: *how much WAN/NIC bandwidth or how many servers
does a replication deadline require?* This module is the small
declarative sweep harness behind ``examples/capacity_planning.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.runner import Scenario, run_many
from repro.net.result import SimResult


@dataclass
class SweepPoint:
    """One sweep sample: the knob value and the resulting metrics."""

    value: float
    completion_time: float
    cycles: int
    all_complete: bool


@dataclass
class SweepResult:
    """All samples of one sweep, in the order they were run."""

    knob: str
    strategy: str
    points: List[SweepPoint] = field(default_factory=list)

    def values(self) -> List[float]:
        return [p.value for p in self.points]

    def cheapest_meeting_deadline(self, deadline_s: float) -> Optional[SweepPoint]:
        """The smallest knob value whose run met the deadline.

        Assumes the sweep was run in ascending knob order and that larger
        values don't hurt (monotone capacity knobs); returns ``None`` when
        no sampled value meets the deadline.
        """
        for point in self.points:
            if point.all_complete and point.completion_time <= deadline_s:
                return point
        return None


ScenarioFactory = Callable[[float], Scenario]


def _point_from_result(value: float, run: SimResult) -> SweepPoint:
    completion = (
        max(run.job_completion.values()) if run.all_complete else float("inf")
    )
    return SweepPoint(
        value=float(value),
        completion_time=completion,
        cycles=run.cycles_run,
        all_complete=run.all_complete,
    )


def sweep(
    knob: str,
    values: Sequence[float],
    scenario: ScenarioFactory,
    strategy: str = "bds",
) -> SweepResult:
    """Run ``scenario(value)`` under ``strategy`` for every knob value and
    collect metrics."""
    if not values:
        raise ValueError("sweep needs at least one value")
    runs = run_many(
        [replace(scenario(float(value)), strategy=strategy) for value in values]
    )
    return SweepResult(
        knob=knob,
        strategy=strategy,
        points=[_point_from_result(value, run) for value, run in zip(values, runs)],
    )


def compare_sweeps(
    knob: str,
    values: Sequence[float],
    scenario: ScenarioFactory,
    strategies: Sequence[str],
) -> Dict[str, SweepResult]:
    """The same sweep under several strategies (for crossover hunting)."""
    return {
        strategy: sweep(knob, values, scenario, strategy=strategy)
        for strategy in strategies
    }
