"""Shared fixtures: small topologies, jobs, and cluster views."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import EXPERIMENTS
from repro.core import BDSController
from repro.net.directive import TransferDirective
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.blocks import Block
from repro.overlay.job import MulticastJob
from repro.utils.units import MB, MBps

from tests import oracles


@pytest.fixture(scope="session")
def results():
    """Every paper experiment, run once at its pinned parameters (≈ 10 s)."""
    return {name: entry.run() for name, entry in EXPERIMENTS.items()}


@pytest.fixture(scope="session")
def golden_builds():
    """Every golden scenario run once (``test_determinism_golden.golden_runs``),
    with what each built counted through ``oracles.count_calls``: a dict
    ``label -> (complete, Blocks, TransferDirectives, fingerprint)``, plus
    the ``"decided"`` flags of the fallback's decides."""
    from tests import test_determinism_golden as golden

    decided: list = []
    built = {"decided": decided}
    with pytest.MonkeyPatch.context() as patch:
        blocks = oracles.count_calls(patch, Block, "__post_init__")
        directives = oracles.count_calls(patch, TransferDirective, "_init")
        for label, run in golden.golden_runs(decided):
            result = run()
            built[label] = (
                result.all_complete, len(blocks), len(directives),
                result.fingerprint(),
            )
            blocks.clear()
            directives.clear()
    return built


@pytest.fixture
def small_topology() -> Topology:
    """3 fully meshed DCs x 3 servers; WAN far fatter than NICs."""
    return Topology.full_mesh(
        num_dcs=3, servers_per_dc=3, wan_capacity=200 * MBps, uplink=20 * MBps
    )


@pytest.fixture
def small_job(small_topology: Topology) -> MulticastJob:
    """A 40 MB multicast from dc0 to dc1+dc2 in 4 MB blocks, bound."""
    job = MulticastJob(
        job_id="job",
        src_dc="dc0",
        dst_dcs=("dc1", "dc2"),
        total_bytes=40 * MB,
        block_size=4 * MB,
    )
    job.bind(small_topology)
    return job


@pytest.fixture
def bds_simulation(small_topology: Topology, small_job: MulticastJob) -> Simulation:
    """A ready-to-run BDS simulation over the small scenario."""
    return Simulation(
        topology=small_topology,
        jobs=[small_job],
        strategy=BDSController(seed=0),
        config=SimConfig(cycle_seconds=3.0, max_cycles=500),
        seed=0,
    )


def make_view(simulation: Simulation, cycle: int = 0):
    """Convenience for tests needing a ClusterView."""
    return simulation.snapshot_view(cycle)
