#!/usr/bin/env python3
"""Scenario: a fault-tolerance drill during a large replication.

Reproduces the paper's §5.3/§6.3.2 story end to end: mid-transfer, one
agent crashes; later the whole controller replica group is partitioned
away and the fleet falls back to the decentralized overlay protocol;
finally the controller recovers. The drill prints per-cycle delivery
throughput so the dip / degradation / recovery phases are visible, and
demonstrates the replica-set failover logic alongside.

Run:  python examples/failover_drill.py
"""

from repro import (
    BDSController,
    ControllerReplicaSet,
    FailureEvent,
    FailureSchedule,
    MulticastJob,
    SimConfig,
    Simulation,
    Topology,
)
from repro.utils.units import MB, MBps, format_duration


def replica_set_demo() -> None:
    """Leader election at a glance: 3 replicas, 2 failures, recovery."""
    print("controller replica group:")
    replicas = ControllerReplicaSet()
    print(f"  leader: {replicas.leader}")
    replicas.fail("controller-0")
    replicas.tick()
    print(f"  after leader crash  -> new leader: {replicas.leader}")
    for name in replicas.replicas:
        replicas.fail(name)
    replicas.tick()
    print(f"  after full partition -> leader: {replicas.leader} (fallback mode)")
    for name in replicas.replicas:
        replicas.recover(name)
    replicas.tick()
    print(f"  after recovery      -> leader: {replicas.leader}\n")


def main() -> None:
    replica_set_demo()

    topology = Topology.full_mesh(
        num_dcs=3,
        servers_per_dc=6,
        wan_capacity=200 * MBps,
        uplink=1.5 * MBps,
    )
    job = MulticastJob(
        job_id="drill",
        src_dc="dc0",
        dst_dcs=("dc1", "dc2"),
        total_bytes=600 * MB,
        block_size=2 * MB,
    )
    job.bind(topology)

    schedule = FailureSchedule(
        [
            FailureEvent(cycle=10, kind="agent_fail", target="dc1-s0"),
            FailureEvent(cycle=11, kind="agent_recover", target="dc1-s0"),
            FailureEvent(cycle=20, kind="controller_fail"),
            FailureEvent(cycle=30, kind="controller_recover"),
        ]
    )
    controller = BDSController(seed=1)
    result = Simulation(
        topology=topology,
        jobs=[job],
        strategy=controller,
        config=SimConfig(cycle_seconds=3.0, max_cycles=200),
        failures=schedule,
    ).run()

    print("cycle | blocks delivered | phase")
    for stats in result.cycle_stats:
        if stats.cycle == 10:
            phase = "<- agent dc1-s0 fails"
        elif stats.cycle == 20:
            phase = "<- controller down: decentralized fallback"
        elif stats.cycle == 30:
            phase = "<- controller recovered"
        elif not stats.controller_available:
            phase = "   (fallback)"
        else:
            phase = ""
        print(f"{stats.cycle:5d} | {stats.blocks_delivered:16d} | {phase}")

    if result.all_complete:
        print(f"\ntransfer completed in {format_duration(result.completion_time('drill'))}"
              f" despite both failures")
    else:
        print("\ntransfer did not complete within the drill window")


if __name__ == "__main__":
    main()
