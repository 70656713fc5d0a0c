#!/usr/bin/env python3
"""Quickstart: replicate one bulk file from one DC to three others with BDS.

Builds a small fully-meshed inter-DC topology, submits a single multicast
job, runs the BDS controller to completion, and prints what happened —
including how much of the data travelled over overlay paths rather than
straight from the origin DC.

Run:  python examples/quickstart.py
"""

from repro import (
    BDSController,
    MulticastJob,
    SimConfig,
    Simulation,
    Topology,
    ideal_completion_time,
)
from repro.analysis.metrics import summarize
from repro.utils.units import GB, MB, MBps, format_bytes, format_duration


def main() -> None:
    # 4 datacenters, 4 servers each; 1 GB/s WAN links, 50 MB/s server NICs.
    topology = Topology.full_mesh(
        num_dcs=4,
        servers_per_dc=4,
        wan_capacity=1 * GB,
        uplink=50 * MBps,
    )

    # Replicate 800 MB from dc0 to every other DC, in 2 MB blocks
    # (the paper's default block size).
    job = MulticastJob(
        job_id="user-logs",
        src_dc="dc0",
        dst_dcs=("dc1", "dc2", "dc3"),
        total_bytes=800 * MB,
    )
    job.bind(topology)

    controller = BDSController(seed=42)
    simulation = Simulation(
        topology=topology,
        jobs=[job],
        strategy=controller,
        config=SimConfig(cycle_seconds=3.0),
    )
    result = simulation.run()

    completion = result.completion_time("user-logs")
    bound = ideal_completion_time(topology, job)
    print(f"replicated {format_bytes(job.total_bytes)} to {len(job.dst_dcs)} DCs")
    print(f"completion time : {format_duration(completion)}")
    print(f"analytic bound  : {format_duration(bound)}")
    print(f"cycles run      : {result.cycles_run}")

    server_times = result.server_completion_times("user-logs")
    stats = summarize(server_times)
    print(
        f"per-server times: median {stats.median:.1f}s, "
        f"p90 {stats.p90:.1f}s, max {stats.maximum:.1f}s"
    )

    # How much did the overlay help? Blocks fetched from non-origin DCs
    # travelled over overlay paths (the paper's Fig. 13c measurement).
    fractions = result.store.origin_fraction_by_server()
    overlay_share = 1 - sum(fractions.values()) / len(fractions)
    print(f"bytes via overlay paths: {overlay_share:.0%} of deliveries")

    decision = controller.decisions[0]
    print(
        f"first cycle: scheduled {decision.scheduled_blocks} block deliveries "
        f"in {decision.schedule_runtime * 1000:.1f} ms, routed them as "
        f"{decision.num_commodities} merged subtasks in "
        f"{decision.routing_runtime * 1000:.1f} ms"
    )


if __name__ == "__main__":
    main()
