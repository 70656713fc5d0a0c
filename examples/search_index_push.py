#!/usr/bin/env python3
"""Scenario: pushing a fresh web-search index to every serving region.

This is the paper's motivating workload (§1): search indexing alone is
89.2 % multicast traffic at Baidu. A new index build must reach all
serving DCs quickly, *without* trampling the latency-sensitive query
traffic sharing the same WAN links.

The example runs the same push twice — once with the uncoordinated
receiver-driven overlay (Gingko) and once with BDS — under identical
diurnal online traffic, and compares both completion time and interference
(cycles in which total link utilization crossed the 80 % safety threshold).

Run:  python examples/search_index_push.py
"""

from repro import (
    BackgroundTraffic,
    BDSController,
    GingkoStrategy,
    MulticastJob,
    SimConfig,
    Simulation,
    Topology,
)
from repro.net.background import delay_inflation
from repro.utils.units import GB, MB, MBps, format_duration


def build_scenario(seed: int):
    """8 serving regions; modest WAN links carrying real online traffic."""
    topology = Topology.full_mesh(
        num_dcs=8,
        servers_per_dc=4,
        wan_capacity=120 * MBps,
        uplink=25 * MBps,
    )
    index = MulticastJob(
        job_id="web-index",
        src_dc="dc0",  # the build cluster
        dst_dcs=tuple(f"dc{i}" for i in range(1, 8)),
        total_bytes=1.2 * GB,
        block_size=4 * MB,
    )
    index.bind(topology)
    background = BackgroundTraffic(
        base_fraction=0.35, diurnal_fraction=0.25, noise_fraction=0.04, seed=seed
    )
    return topology, index, background


def run(strategy_name: str, seed: int = 7):
    topology, index, background = build_scenario(seed)
    strategy = (
        BDSController(seed=seed)
        if strategy_name == "bds"
        else GingkoStrategy(seed=seed)
    )
    simulation = Simulation(
        topology=topology,
        jobs=[index],
        strategy=strategy,
        config=SimConfig(cycle_seconds=3.0, record_link_stats=True),
        background=background,
    )
    result = simulation.run()

    capacities = topology.resource_capacities()
    violations = 0
    worst_inflation = 1.0
    for stats in result.cycle_stats:
        for link, bulk in stats.link_bulk_usage.items():
            total = (bulk + stats.link_online_usage.get(link, 0.0)) / capacities[link]
            if total > 0.8:
                violations += 1
            worst_inflation = max(worst_inflation, delay_inflation(total))
    return result, violations, worst_inflation


def main() -> None:
    print("pushing a 1.2 GB search index to 7 serving regions\n")
    for name in ("gingko", "bds"):
        result, violations, inflation = run(name)
        completion = result.completion_time("web-index")
        print(f"[{name}]")
        print(f"  completion            : {format_duration(completion)}")
        print(f"  threshold violations  : {violations} link-cycles")
        print(f"  worst delay inflation : {inflation:.1f}x on online traffic\n")


if __name__ == "__main__":
    main()
