"""Traced memory of one ``BDSRouter.route`` on a ``bulk_cold``-shaped cold batch.

``bulk_cold``'s mesh (4 DCs x 8 servers, 1 GB/s WAN links, 32 MB/s NICs)
and its file of 17 000 1 MB blocks from dc0 to the other three DCs, cold
(nothing buffered), with the first 3 000 blocks also held by dc1-s0 and
dc2-s0: 50 250 rows in 62 groups, 19 of them dealt across two or three
flowing sources. A first call builds the route table; the second is
traced.

The whole call peaks in the source picks, whose per-row columns
dominate (3.69 MB, numpy 2.4.6, Python 3.11), so the bound is on the
window that starts once the rows are grouped: commodities, solve and
directives, with the grouping held: 2.49 MB. A deal reads only its own
segment of the send-order column; listing the whole column as Python
ints once a group is dealt (36 bytes a row) peaks there at 3.7-4.5 MB.
"""

from __future__ import annotations

import tracemalloc

from repro.analysis.runner import make_strategy
from repro.core.routing import BDSRouter, greedy_waterfill
from repro.core.scheduling import RarestFirstScheduler
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import GBps, MB, MBps


def _cold_batch():
    topo = Topology.full_mesh(
        num_dcs=4, servers_per_dc=8, wan_capacity=1 * GBps, uplink=32 * MBps
    )
    job = MulticastJob(
        job_id="bulk", src_dc="dc0", dst_dcs=("dc1", "dc2", "dc3"),
        total_bytes=17_000 * MB, block_size=MB,
    )
    job.bind(topo)
    held = job.blocks[:3000]
    sim = Simulation(
        topo, [job], make_strategy("bds", seed=0),
        SimConfig(max_cycles=1, stop_when_complete=False),
        pre_seeded={"dc1-s0": held, "dc2-s0": held}, seed=0,
    )
    view = sim.snapshot_view(0)
    return view, RarestFirstScheduler().select(view)


def test_a_cold_bulk_route_stays_under_its_traced_peak():
    view, batch = _cold_batch()
    router = BDSRouter()
    grouping = router._group_columns(view, batch)
    assert len(batch) >= 50_000 and grouping.buffered is None
    _members, demands, paths = router._build_commodities(view, grouping)
    rates = greedy_waterfill(
        demands, paths, view.route_table().capacity_vector(view.bulk_capacities)
    )
    flowing = [sum(rate > 1e-9 for rate in row) for row in rates]
    assert flowing.count(2) >= 3 and flowing.count(3) >= 3

    router.route(view, batch)
    build = router._build_commodities

    def grouped(view, grouping):  # the traced window starts here
        tracemalloc.reset_peak()
        return build(view, grouping)

    router._build_commodities = grouped
    tracemalloc.start()
    try:
        router.route(view, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000
