"""Bottleneck-disjoint overlay paths (§2.2): the Fig. 4 measurement.

The paper distinguishes two kinds of overlay paths between a source and a
destination DC:

* **Type I** — paths traversing *different DC sequences* (e.g. ``A->B->C``
  vs ``A->C->B`` in Fig. 1);
* **Type II** — paths traversing the *same DC sequence* through *different
  servers* (Fig. 3's ``A->C`` vs ``A->b->C``).

Two overlay paths are **bottleneck-disjoint** when they do not share the
resource that limits their throughput; such pairs can be used simultaneously
without stealing bandwidth from each other, which is the fundamental
opportunity BDS exploits. :func:`throughput_ratio_samples` measures how
often a direct path and a relayed one are.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.net.topology import ResourceKey, Topology, downlink_key, uplink_key
from repro.utils.rng import SeedLike, make_rng


def throughput_ratio_samples(
    topology: Topology,
    num_samples: int,
    seed: SeedLike = None,
    load_range: Tuple[float, float] = (0.3, 1.0),
) -> List[float]:
    """Sample ``BW(A->C) / BW(A->b->C)`` ratios over random (A, b, C) triples.

    This reproduces the measurement behind the paper's Fig. 4: ratios far
    from 1 indicate the direct path and the relayed path are bottleneck
    disjoint. Matching what the paper measures:

    * ``BW(A->C)`` is the DC-level WAN route's throughput — bulk transfers
      between DCs ride aggregated WAN capacity, not a single server NIC;
    * ``BW(A->b->C)`` goes through server ``b``, so its NIC bounds the path;
    * both observe *available* bandwidth at measurement time: each resource
      carries cross-traffic, modeled as a per-sample load factor drawn from
      ``load_range``.
    """
    rng = make_rng(seed)
    capacities = topology.resource_capacities()
    dc_names = topology.dc_names()
    if len(dc_names) < 3:
        raise ValueError("need at least 3 DCs to sample relay triples")

    def available(resources: Iterable[ResourceKey], factors: Dict[ResourceKey, float]) -> float:
        worst = float("inf")
        for res in resources:
            if res not in factors:
                factors[res] = float(rng.uniform(*load_range))
            worst = min(worst, capacities[res] * factors[res])
        return worst

    ratios: List[float] = []
    attempts = 0
    while len(ratios) < num_samples and attempts < num_samples * 50:
        attempts += 1
        a_dc, b_dc, c_dc = rng.choice(len(dc_names), size=3, replace=False)
        a_dc, b_dc, c_dc = dc_names[int(a_dc)], dc_names[int(b_dc)], dc_names[int(c_dc)]
        b_servers = topology.servers_in(b_dc)
        if not b_servers:
            continue
        b = b_servers[int(rng.integers(len(b_servers)))]
        try:
            direct_route = topology.route(a_dc, c_dc)
            leg_in = topology.route(a_dc, b_dc)
            leg_out = topology.route(b_dc, c_dc)
        except ValueError:
            continue
        if not direct_route:
            continue
        # One load sample per resource, shared between the two paths so the
        # comparison happens "at the same time" as in the paper.
        factors: Dict[ResourceKey, float] = {}
        bw_direct = available(direct_route, factors)
        relayed_resources = (
            list(leg_in)
            + [downlink_key(b.server_id), uplink_key(b.server_id)]
            + list(leg_out)
        )
        bw_relayed = available(relayed_resources, factors)
        if bw_relayed <= 0:
            continue
        ratios.append(bw_direct / bw_relayed)
    return ratios
