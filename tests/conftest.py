"""Shared fixtures: small topologies, jobs, and cluster views."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import EXPERIMENTS
from repro.core import BDSController
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import MB, MBps


@pytest.fixture(scope="session")
def results():
    """Every paper experiment, run once at its pinned parameters (≈ 10 s)."""
    return {name: entry.run() for name, entry in EXPERIMENTS.items()}


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
