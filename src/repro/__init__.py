"""repro — a from-scratch reproduction of BDS (EuroSys 2018).

BDS is a fully centralized application-level multicast overlay network for
inter-datacenter bulk-data replication. This package implements the
complete system described in the paper — the centralized controller with
decoupled scheduling (rarest-first) and routing (max-throughput MCF with an
FPTAS), dynamic bandwidth separation, fault tolerance — together with the
network/overlay substrates it runs on and the baselines it is evaluated
against (Gingko, Bullet, Akamai, chain, direct).

Quickstart::

    from repro import (
        Topology, MulticastJob, Simulation, SimConfig, BDSController,
    )

    topo = Topology.full_mesh(
        num_dcs=4, servers_per_dc=4, wan_capacity=1e9, uplink=5e7)
    job = MulticastJob(
        job_id="demo", src_dc="dc0", dst_dcs=("dc1", "dc2", "dc3"),
        total_bytes=2e8)
    job.bind(topo)
    result = Simulation(topo, [job], BDSController(), SimConfig()).run()
    print(result.completion_time("demo"))
"""

from repro.core import (
    BDSConfig,
    BDSController,
    ControllerReplicaSet,
    RarestFirstScheduler,
    BDSRouter,
    StandardLPRouter,
)
from repro.net import (
    BackgroundTraffic,
    ClusterView,
    FailureEvent,
    FailureSchedule,
    LatencyModel,
    SimConfig,
    SimResult,
    Simulation,
    Topology,
    TransferDirective,
)
from repro.overlay import Block, MulticastJob, PossessionIndex
from repro.baselines import (
    AkamaiStrategy,
    BulletStrategy,
    ChainStrategy,
    DirectStrategy,
    GingkoStrategy,
    OverlayStrategy,
    ideal_completion_time,
)
from repro.workload import WorkloadGenerator, TransferRequest

__version__ = "1.0.0"

__all__ = [
    "BDSConfig",
    "BDSController",
    "ControllerReplicaSet",
    "RarestFirstScheduler",
    "BDSRouter",
    "StandardLPRouter",
    "BackgroundTraffic",
    "ClusterView",
    "FailureEvent",
    "FailureSchedule",
    "LatencyModel",
    "SimConfig",
    "SimResult",
    "Simulation",
    "Topology",
    "TransferDirective",
    "Block",
    "MulticastJob",
    "PossessionIndex",
    "AkamaiStrategy",
    "BulletStrategy",
    "ChainStrategy",
    "DirectStrategy",
    "GingkoStrategy",
    "OverlayStrategy",
    "ideal_completion_time",
    "WorkloadGenerator",
    "TransferRequest",
    "__version__",
]
