#!/usr/bin/env python3
"""Scenario: capacity planning for a replication deadline.

Operations question the paper's system immediately raises: "we must
replicate tonight's 1 GB build to all regions within a minute — how
much WAN bandwidth do we need to buy, and does the overlay change the
answer?" This example sweeps WAN link capacity under both BDS and direct
replication and reports the cheapest capacity meeting the deadline for
each, quantifying how much provisioning the overlay saves.

Run:  python examples/capacity_planning.py
"""

from repro.analysis.runner import Scenario
from repro.analysis.sweeps import compare_sweeps
from repro.utils.units import GB, MB, MBps, format_duration, format_rate

DEADLINE_S = 60.0
WAN_CAPACITIES = [10 * MBps, 20 * MBps, 40 * MBps, 80 * MBps, 160 * MBps]


def scenario(wan_capacity: float) -> Scenario:
    """1 GB from dc0 to the five other DCs of a 6-DC mesh."""
    return Scenario.mesh(
        6, 4, wan_capacity, 30 * MBps, 1 * GB, 4 * MB, "nightly-build", seed=11
    )


def main() -> None:
    print(f"deadline: replicate 1 GB to 5 regions within {DEADLINE_S:.0f}s\n")
    sweeps = compare_sweeps(
        "wan_capacity",
        WAN_CAPACITIES,
        scenario,
        strategies=("direct", "bds"),
    )

    header = f"{'WAN capacity':>14} | {'direct':>10} | {'bds':>10}"
    print(header)
    print("-" * len(header))
    for i, capacity in enumerate(WAN_CAPACITIES):
        direct_t = sweeps["direct"].points[i].completion_time
        bds_t = sweeps["bds"].points[i].completion_time
        print(
            f"{format_rate(capacity):>14} | "
            f"{format_duration(direct_t):>10} | {format_duration(bds_t):>10}"
        )

    print()
    for strategy in ("direct", "bds"):
        cheapest = sweeps[strategy].cheapest_meeting_deadline(DEADLINE_S)
        if cheapest is None:
            print(f"{strategy:>7}: no sampled capacity meets the deadline")
        else:
            print(
                f"{strategy:>7}: needs {format_rate(cheapest.value)} per link "
                f"(finishes in {format_duration(cheapest.completion_time)})"
            )


if __name__ == "__main__":
    main()
