#!/usr/bin/env python3
"""Scenario: routing around a congested WAN path with a relay datacenter.

The paper's Fig. 1 in miniature: the network-layer route from the source
region to a remote destination is thin (an expensive transcontinental
link), but two fat legs exist through an intermediate datacenter that is
*not* a destination of the replication. BDS's relay placements
store-and-forward blocks through the intermediate DC, multiplying
throughput over what the direct IP route allows.

Run:  python examples/relay_detour.py
"""

from repro import BDSConfig, BDSController, MulticastJob, SimConfig, Simulation, Topology
from repro.utils.units import MB, MBps, format_duration


def build_topology() -> Topology:
    topo = Topology()
    for name in ("us-west", "eu-central", "ap-south"):
        topo.add_dc(name)
        for j in range(3):
            topo.add_server(
                f"{name}-s{j}", name, uplink=60 * MBps, downlink=60 * MBps
            )
    # Fat legs through Europe; thin direct Pacific route.
    topo.add_bidirectional_link("us-west", "eu-central", 150 * MBps)
    topo.add_bidirectional_link("eu-central", "ap-south", 150 * MBps)
    topo.add_bidirectional_link("us-west", "ap-south", 8 * MBps)
    return topo


def run(with_relay: bool) -> float:
    topo = build_topology()
    job = MulticastJob(
        job_id="dataset",
        src_dc="us-west",
        dst_dcs=("ap-south",),
        total_bytes=480 * MB,
        block_size=4 * MB,
        relay_dcs=("eu-central",) if with_relay else (),
    )
    job.bind(topo)
    controller = BDSController(config=BDSConfig(use_relays=with_relay), seed=3)
    result = Simulation(topo, [job], controller, SimConfig(max_cycles=5000)).run()
    return result.completion_time("dataset")


def main() -> None:
    print("replicating 480 MB us-west -> ap-south")
    print("(direct route: 8 MB/s; legs via eu-central: 150 MB/s)\n")
    direct = run(with_relay=False)
    relayed = run(with_relay=True)
    print(f"direct WAN route only : {format_duration(direct)}")
    print(f"with eu-central relay : {format_duration(relayed)}")
    print(f"speedup               : {direct / relayed:.1f}x")


if __name__ == "__main__":
    main()
