"""Strategy factory and simulation runner shared by experiments and benches."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.baselines import (
    AkamaiStrategy,
    BulletStrategy,
    ChainStrategy,
    DirectStrategy,
    GingkoStrategy,
    OverlayStrategy,
)
from repro.core import BDSConfig, BDSController
from repro.core.formulation import StandardLPRouter
from repro.net.background import BackgroundTraffic
from repro.net.failures import FailureSchedule
from repro.net.simulator import SimConfig, SimResult, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.rng import SeedLike

STRATEGY_NAMES = (
    "bds",
    "bds-fptas",
    "bds-lp",
    "bds-standard-lp",
    "gingko",
    "bullet",
    "akamai",
    "chain",
    "direct",
)

_NAMED_BACKENDS = {"bds-fptas": "fptas", "bds-lp": "lp"}


def make_strategy(
    name: str, seed: SeedLike = None, config: Optional[BDSConfig] = None
) -> OverlayStrategy:
    """Build a fresh strategy by name.

    ``bds`` uses the fast greedy routing backend; ``bds-fptas`` / ``bds-lp``
    select the Garg–Könemann and exact-LP backends — the name wins over a
    ``config`` that says otherwise; ``bds-standard-lp`` swaps in the
    non-decoupled joint LP router (the Fig. 13 baseline).
    """
    if name in _NAMED_BACKENDS:
        config = dataclasses.replace(
            config or BDSConfig(), routing_backend=_NAMED_BACKENDS[name]
        )
    if name == "bds" or name in _NAMED_BACKENDS:
        return BDSController(config=config or BDSConfig(), seed=seed)
    if name == "bds-standard-lp":
        controller = BDSController(config=config or BDSConfig(), seed=seed)
        controller.router = StandardLPRouter()
        return controller
    if name == "gingko":
        return GingkoStrategy(seed=seed)
    if name == "bullet":
        return BulletStrategy(seed=seed)
    if name == "akamai":
        return AkamaiStrategy()
    if name == "chain":
        return ChainStrategy()
    if name == "direct":
        return DirectStrategy()
    raise ValueError(f"unknown strategy {name!r}; choose from {STRATEGY_NAMES}")


Scenario = Tuple[Topology, List[MulticastJob]]
ScenarioFn = Callable[[], Scenario]


def mesh_scenario(
    num_dcs: int,
    servers_per_dc: int,
    wan: float,
    nic: float,
    size: float,
    block_size: float,
    job_id: str = "job",
    jobs: int = 1,
) -> Scenario:
    """A full mesh and ``jobs`` bound multicasts, each to every other DC.

    One job keeps ``job_id`` and starts at ``dc0``; several are numbered
    ``<job_id>0``, ``<job_id>1``, … with sources rotating across the DCs.
    """
    topology = Topology.full_mesh(
        num_dcs=num_dcs, servers_per_dc=servers_per_dc, wan_capacity=wan, uplink=nic
    )
    bound = []
    for j in range(jobs):
        src = f"dc{j % num_dcs}"
        job = MulticastJob(
            job_id=job_id if jobs == 1 else f"{job_id}{j}",
            src_dc=src,
            dst_dcs=tuple(f"dc{i}" for i in range(num_dcs) if f"dc{i}" != src),
            total_bytes=size,
            block_size=block_size,
        )
        job.bind(topology)
        bound.append(job)
    return topology, bound


def run_simulation(
    topology: Topology,
    jobs: Sequence[MulticastJob],
    strategy_name: str,
    *,
    seed: SeedLike = None,
    sim: Optional[SimConfig] = None,
    config: Optional[BDSConfig] = None,
    background: Optional[BackgroundTraffic] = None,
    failures: Optional[FailureSchedule] = None,
) -> SimResult:
    """Run one strategy over the given jobs and return the result.

    A run is said by its two config objects: ``sim`` is the simulator's
    (ΔT, the cycle cap, the Fig. 12c overhead model, what to record) and
    ``config`` the BDS controller's (routing backend, shards, …; ignored
    by the decentralized baselines).
    """
    return Simulation(
        topology=topology,
        jobs=list(jobs),
        strategy=make_strategy(strategy_name, seed=seed, config=config),
        config=sim,
        background=background,
        failures=failures,
        seed=seed,
    ).run()


@dataclass
class RunSpec:
    """One independent simulation, as data.

    ``scenario`` is a zero-argument factory returning a fresh
    ``(topology, jobs)``; it is invoked once per execution, so no
    simulation state (job binding, strategy caches) leaks between runs.
    ``config`` and ``sim`` are :func:`run_simulation`'s.
    """

    strategy: str
    scenario: ScenarioFn
    seed: SeedLike = None
    label: str = ""
    config: Optional[BDSConfig] = None
    sim: Optional[SimConfig] = None

    def __post_init__(self) -> None:
        if not self.label:
            self.label = self.strategy


def run_many(specs: Sequence[RunSpec]) -> List[SimResult]:
    """Run every spec, one after another, and return results in spec order.

    Scenario-factory exceptions propagate unchanged; a run that fails is
    re-raised as a :class:`RuntimeError` naming the spec's label.
    """
    results: List[SimResult] = []
    for spec in specs:
        topology, jobs = spec.scenario()
        try:
            results.append(
                run_simulation(
                    topology,
                    jobs,
                    spec.strategy,
                    seed=spec.seed,
                    sim=spec.sim,
                    config=spec.config,
                )
            )
        except Exception as exc:
            raise RuntimeError(
                f"run {spec.label!r} failed: {type(exc).__name__}: {exc}"
            ) from exc
    return results
