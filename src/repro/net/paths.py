"""Overlay path enumeration and bottleneck-disjointness analysis (§2.2).

The paper distinguishes two kinds of overlay paths between a source and a
destination DC:

* **Type I** — paths traversing *different DC sequences* (e.g. ``A->B->C``
  vs ``A->C->B`` in Fig. 1);
* **Type II** — paths traversing the *same DC sequence* through *different
  servers* (Fig. 3's ``A->C`` vs ``A->b->C``).

Two overlay paths are **bottleneck-disjoint** when they do not share the
resource that limits their throughput; such pairs can be used simultaneously
without stealing bandwidth from each other, which is the fundamental
opportunity BDS exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.net.topology import (
    ResourceKey,
    Topology,
    downlink_key,
    uplink_key,
)
from repro.utils.rng import SeedLike, make_rng


@dataclass(frozen=True)
class OverlayPath:
    """A store-and-forward overlay path: an ordered tuple of server ids.

    The first server is the data source; each subsequent server stores the
    data before forwarding it (the paper's store-and-forward capability).
    ``resources`` lists every NIC and WAN-link resource the path touches,
    hop by hop.
    """

    servers: Tuple[str, ...]
    resources: Tuple[ResourceKey, ...]

    def __post_init__(self) -> None:
        if len(self.servers) < 2:
            raise ValueError("an overlay path needs at least two servers")
        if len(set(self.servers)) != len(self.servers):
            raise ValueError("overlay paths must not revisit a server")

    @property
    def source(self) -> str:
        return self.servers[0]


def build_overlay_path(topology: Topology, servers: Sequence[str]) -> OverlayPath:
    """Construct an :class:`OverlayPath` through the given server sequence.

    Resources are accumulated hop by hop: each hop uses the sender uplink,
    the WAN route between the two DCs, and the receiver downlink.
    """
    resources: List[ResourceKey] = []
    for src, dst in zip(servers, servers[1:]):
        resources.extend(topology.flow_resources(src, dst))
    return OverlayPath(servers=tuple(servers), resources=tuple(resources))


def path_throughput(
    path: OverlayPath, capacities: Dict[ResourceKey, float]
) -> float:
    """End-to-end throughput of a path used alone: its bottleneck capacity.

    For a store-and-forward pipeline in steady state, the sustainable rate is
    the minimum capacity along all hops.
    """
    return min(capacities[r] for r in path.resources)


# ``bottleneck_capacity`` is the historical name used throughout the repo.
bottleneck_capacity = path_throughput


def bottleneck_resources(
    path: OverlayPath, capacities: Dict[ResourceKey, float], tol: float = 1e-9
) -> Set[ResourceKey]:
    """All resources whose capacity equals the path's bottleneck capacity."""
    limit = path_throughput(path, capacities)
    return {
        r for r in path.resources if capacities[r] <= limit * (1.0 + tol)
    }


def are_bottleneck_disjoint(
    path_a: OverlayPath,
    path_b: OverlayPath,
    capacities: Dict[ResourceKey, float],
) -> bool:
    """Whether two paths share no bottleneck resource (§2.2).

    Paths that share non-bottleneck resources are still considered disjoint:
    using both at full rate leaves the shared resource under capacity.
    """
    shared = set(path_a.resources) & set(path_b.resources)
    if not shared:
        return True
    bn_a = bottleneck_resources(path_a, capacities)
    bn_b = bottleneck_resources(path_b, capacities)
    return not (shared & bn_a & bn_b)


def enumerate_dc_paths(
    topology: Topology,
    src_dc: str,
    dst_dc: str,
    max_intermediate: int = 1,
) -> List[Tuple[str, ...]]:
    """All simple DC sequences from ``src_dc`` to ``dst_dc``.

    Includes the direct sequence plus every sequence with up to
    ``max_intermediate`` intermediate DCs (Type I diversity). Sequences only
    use DC adjacencies that have a WAN route.
    """
    if src_dc == dst_dc:
        raise ValueError("source and destination DC must differ")
    names = [d for d in topology.dc_names() if d not in (src_dc, dst_dc)]
    paths: List[Tuple[str, ...]] = [(src_dc, dst_dc)]
    frontier: List[Tuple[str, ...]] = [(src_dc,)]
    for _ in range(max_intermediate):
        next_frontier: List[Tuple[str, ...]] = []
        for prefix in frontier:
            for mid in names:
                if mid in prefix:
                    continue
                candidate = prefix + (mid,)
                next_frontier.append(candidate)
                paths.append(candidate + (dst_dc,))
        frontier = next_frontier
    return paths


def enumerate_overlay_paths(
    topology: Topology,
    src_server: str,
    dst_server: str,
    max_intermediate: int = 1,
    servers_per_relay_dc: int = 1,
    seed: SeedLike = None,
) -> List[OverlayPath]:
    """Server-level overlay paths between two servers.

    For each DC sequence from :func:`enumerate_dc_paths`, picks up to
    ``servers_per_relay_dc`` relay servers per intermediate DC (sampled
    without replacement for Type II diversity), producing concrete
    store-and-forward server chains.
    """
    rng = make_rng(seed)
    src = topology.servers[src_server]
    dst = topology.servers[dst_server]
    results: List[OverlayPath] = []
    if src.dc == dst.dc:
        results.append(build_overlay_path(topology, (src_server, dst_server)))
        return results
    for dc_seq in enumerate_dc_paths(topology, src.dc, dst.dc, max_intermediate):
        intermediates = dc_seq[1:-1]
        if not intermediates:
            results.append(build_overlay_path(topology, (src_server, dst_server)))
            continue
        relay_choices: List[List[str]] = []
        for dc in intermediates:
            candidates = [s.server_id for s in topology.servers_in(dc)]
            if not candidates:
                relay_choices = []
                break
            count = min(servers_per_relay_dc, len(candidates))
            picked = rng.choice(len(candidates), size=count, replace=False)
            relay_choices.append([candidates[int(i)] for i in picked])
        if not relay_choices:
            continue
        for combo in _product(relay_choices):
            chain = (src_server,) + tuple(combo) + (dst_server,)
            if len(set(chain)) != len(chain):
                continue
            results.append(build_overlay_path(topology, chain))
    return results


def _product(choices: Sequence[Sequence[str]]) -> Iterator[Tuple[str, ...]]:
    """Cartesian product of relay choices (tiny, so recursion is fine)."""
    if not choices:
        yield ()
        return
    for head in choices[0]:
        for rest in _product(choices[1:]):
            yield (head,) + rest


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
