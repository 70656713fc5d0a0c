"""Analytic lower bounds on multicast completion time.

The "ideal solution" curve of Fig. 5 and the optimality yardstick of §6.
Completion time cannot beat any of these bounds:

* **Source egress**: the source DC must push at least one full copy of the
  data out, limited by its aggregate WAN egress and its servers' uplinks.
* **Destination ingress**: every destination DC must absorb a full copy,
  limited by its WAN ingress and its servers' downlinks.
* **Per-server shard time**: each destination server must receive its own
  shard through its downlink.

The appendix formula ``t = V / min(c(l), kR/(m-k))`` for balanced replica
distributions is implemented in :mod:`repro.analysis.appendix`.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.net.topology import Topology
from repro.overlay.job import MulticastJob


def _dc_wan_egress(topology: Topology, dc: str) -> float:
    return math.fsum(
        lnk.capacity for lnk in topology.links.values() if lnk.src_dc == dc
    )


def _dc_wan_ingress(topology: Topology, dc: str) -> float:
    return math.fsum(
        lnk.capacity for lnk in topology.links.values() if lnk.dst_dc == dc
    )


def ideal_completion_time(topology: Topology, job: MulticastJob) -> float:
    """Lower bound on the job's completion time in seconds.

    With overlay store-and-forward, the source only needs to emit one copy
    (destinations re-share among themselves), so the bound is the maximum of
    the source-egress time for one copy and each destination's ingress time
    for one copy.
    """
    volume = job.total_bytes
    src_servers = topology.servers_in(job.src_dc)
    src_uplink_total = math.fsum(s.uplink for s in src_servers)
    src_rate = min(_dc_wan_egress(topology, job.src_dc), src_uplink_total)
    bound = volume / src_rate if src_rate > 0 else float("inf")
    for dc in job.dst_dcs:
        dst_servers = topology.servers_in(dc)
        down_total = math.fsum(s.downlink for s in dst_servers)
        ingress = min(_dc_wan_ingress(topology, dc), down_total)
        if ingress <= 0:
            return float("inf")
        bound = max(bound, volume / ingress)
    return bound


def ideal_server_time(topology: Topology, job: MulticastJob, server_id: str) -> float:
    """Lower bound for one destination server: its shard over its downlink."""
    server = topology.servers[server_id]
    dc = server.dc
    if dc not in job.dst_dcs:
        raise ValueError(f"server {server_id!r} is not in a destination DC")
    servers, slots = job.stripe(dc)
    if server_id not in servers:
        return 0.0  # more servers than blocks: this one gets none
    shard = job.block_sizes()[slots == servers.index(server_id)]
    return math.fsum(shard.tolist()) / server.downlink


def ideal_server_times(topology: Topology, job: MulticastJob) -> Dict[str, float]:
    """Lower-bound completion time for every destination server.

    Every server is bounded below by both its own shard transfer and the
    DC-level ingress bound (a DC cannot finish before a full copy arrived).
    """
    times: Dict[str, float] = {}
    for dc in job.dst_dcs:
        volume = job.total_bytes
        dst_servers = topology.servers_in(dc)
        down_total = math.fsum(s.downlink for s in dst_servers)
        ingress = min(_dc_wan_ingress(topology, dc), down_total)
        dc_bound = volume / ingress if ingress > 0 else float("inf")
        for server in dst_servers:
            shard = ideal_server_time(topology, job, server.server_id)
            times[server.server_id] = max(shard, 0.0)
        # The slowest server in the DC cannot beat the DC ingress bound.
        slowest = max(dst_servers, key=lambda s: times[s.server_id])
        times[slowest.server_id] = max(times[slowest.server_id], dc_bound)
    return times
