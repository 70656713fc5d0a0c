"""Ablation — rarest-first vs in-order block scheduling.

The paper's §4.3 scheduling step generalizes BitTorrent's rarest-first to
balance block availability. The ablation compares the default scheduler
against an in-order (FIFO by block index) variant on a scenario where
availability balancing matters: several destination DCs that can re-share
blocks among themselves.
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.core import BDSController
from repro.core.decisions import SelectionBatch
from repro.core.scheduling import RarestFirstScheduler
from repro.net.simulator import ClusterView, SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import MB, MBps


class InOrderScheduler(RarestFirstScheduler):
    """FIFO by block index: ignores rarity entirely."""

    def select(self, view: ClusterView) -> SelectionBatch:
        batch = super().select(view)
        # By (block index, destination server): server ids are interned
        # in name order.
        order = np.lexsort((batch.dst_sids, batch.indices))
        if self.max_blocks_per_cycle:
            order = order[: self.max_blocks_per_cycle]
        return SelectionBatch(
            batch.jobs, batch.gids[order], batch.indices[order],
            batch.dst_sids[order], batch.job_slots[order],
            batch.duplicates[order], batch.slots[order], batch.slot_places,
            batch.server_names,
        )


def _run(scheduler_cls, seed=0):
    topo = Topology.full_mesh(
        num_dcs=5, servers_per_dc=2, wan_capacity=100 * MBps, uplink=4 * MBps
    )
    job = MulticastJob(
        job_id="j",
        src_dc="dc0",
        dst_dcs=("dc1", "dc2", "dc3", "dc4"),
        total_bytes=96 * MB,
        block_size=4 * MB,
    )
    job.bind(topo)
    controller = BDSController(seed=seed)
    controller.scheduler = scheduler_cls()
    result = Simulation(
        topo, [job], controller, SimConfig(max_cycles=3000), seed=seed
    ).run()
    return result.completion_time("j")


def test_ablation_scheduler_policy(benchmark, report):
    rarest, fifo = benchmark.pedantic(
        lambda: (_run(RarestFirstScheduler), _run(InOrderScheduler)),
        rounds=1,
        iterations=1,
    )
    report(
        "\n[Ablation] Scheduling policy\n"
        + format_table(
            ["policy", "completion"],
            [["rarest-first (paper)", f"{rarest:.0f}s"], ["in-order", f"{fifo:.0f}s"]],
        )
    )
    # Rarest-first must not lose; typically it wins by balancing
    # availability across the destination DCs.
    assert rarest <= fifo * 1.1
