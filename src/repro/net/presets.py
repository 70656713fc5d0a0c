"""Named topology presets modeled on real inter-DC deployments.

The paper's pilot ran on 10 geo-distributed DCs; its trace covered 30+.
:func:`baidu_like` gives examples and experiments that scale without
hand-building a topology: 10 DCs in three metro clusters, fat
intra-metro links, thinner long-haul links, uniform server NICs. All
capacities scale with one ``scale`` factor so the same shape can run as
a quick test (small scale) or a longer evaluation.
"""

from __future__ import annotations

from typing import Tuple

from repro.net.topology import Topology
from repro.utils.units import MBps
from repro.utils.validation import check_positive

# (metro cluster) -> DC names; clusters are fully meshed internally.
_BAIDU_LIKE_CLUSTERS: Tuple[Tuple[str, ...], ...] = (
    ("bj1", "bj2", "bj3", "bj4"),  # north
    ("sh1", "sh2", "sh3"),         # east
    ("gz1", "gz2", "gz3"),         # south
)

def baidu_like(
    servers_per_dc: int = 7,
    scale: float = 1.0,
) -> Topology:
    """Ten DCs in three metros, mirroring the pilot deployment's scale.

    Intra-metro links are 4× the long-haul capacity; NICs are uniform.
    Baseline rates (scale=1): long-haul 200 MB/s, NIC 25 MB/s.
    """
    check_positive("servers_per_dc", servers_per_dc)
    check_positive("scale", scale)
    long_haul = 200 * MBps * scale
    nic = 25 * MBps * scale
    topo = Topology()
    for cluster in _BAIDU_LIKE_CLUSTERS:
        for name in cluster:
            topo.add_dc(name)
            for j in range(servers_per_dc):
                topo.add_server(f"{name}-s{j}", name, uplink=nic, downlink=nic)
    all_names = [name for cluster in _BAIDU_LIKE_CLUSTERS for name in cluster]
    cluster_of = {
        name: i
        for i, cluster in enumerate(_BAIDU_LIKE_CLUSTERS)
        for name in cluster
    }
    for i, a in enumerate(all_names):
        for b in all_names[i + 1 :]:
            capacity = (
                4 * long_haul if cluster_of[a] == cluster_of[b] else long_haul
            )
            topo.add_bidirectional_link(a, b, capacity)
    return topo
