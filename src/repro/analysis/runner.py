"""Strategy factory and simulation runner shared by experiments and benches."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

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


def make_strategy(
    name: str, seed: SeedLike = None, config: Optional[BDSConfig] = None
) -> OverlayStrategy:
    """Build a fresh strategy by name.

    ``bds`` uses the fast greedy routing backend; ``bds-fptas`` / ``bds-lp``
    select the Garg–Könemann and exact-LP backends; ``bds-standard-lp``
    swaps in the non-decoupled joint LP router (the Fig. 13 baseline).
    """
    if name == "bds":
        return BDSController(config=config or BDSConfig(), seed=seed)
    if name == "bds-fptas":
        cfg = config or BDSConfig(routing_backend="fptas")
        return BDSController(config=cfg, seed=seed)
    if name == "bds-lp":
        cfg = config or BDSConfig(routing_backend="lp")
        return BDSController(config=cfg, seed=seed)
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


def run_simulation(
    topology: Topology,
    jobs: Sequence[MulticastJob],
    strategy_name: str,
    cycle_seconds: float = 3.0,
    max_cycles: int = 100_000,
    seed: SeedLike = None,
    background: Optional[BackgroundTraffic] = None,
    failures: Optional[FailureSchedule] = None,
    record_link_stats: bool = False,
    config: Optional[BDSConfig] = None,
    safety_threshold: float = 0.8,
    control_overhead_seconds: float = 0.0,
    flow_setup_seconds: float = 0.0,
    stop_when_complete: bool = True,
    links_of_interest: tuple = (),
    record_cycle_stats: bool = True,
    shards: int = 1,
    shard_seed: int = 0,
    shard_stride: Union[int, str] = 1,
    shard_mode: str = "inprocess",
    shard_partition: str = "hash",
) -> SimResult:
    """Run one strategy over the given jobs and return the result.

    Exposes every :class:`SimConfig` knob — including the Fig. 12c
    overhead model — so sweeps and :func:`run_many` need not
    hand-build a :class:`Simulation`. ``record_cycle_stats=False``
    drops the per-cycle records for day-scale horizons where the stats
    list would dominate memory.

    ``shards``/``shard_seed``/``shard_stride``/``shard_mode``/
    ``shard_partition`` configure the sharded control plane (BDS
    strategies only; see :class:`BDSConfig`). ``shard_stride`` also
    accepts the string ``"auto"`` for the adaptive stride. Non-default
    values are overlaid onto ``config`` — explicit shard fields in a
    caller-supplied config win only when the keyword is left at its
    default.
    """
    if (shards, shard_seed, shard_stride, shard_mode, shard_partition) != (
        1,
        0,
        1,
        "inprocess",
        "hash",
    ):
        import dataclasses

        base = config or BDSConfig()
        updates: Dict[str, Any] = {}
        if shards != 1:
            updates["shards"] = shards
        if shard_seed != 0:
            updates["shard_seed"] = shard_seed
        if shard_stride != 1:
            updates["shard_stride"] = shard_stride
        if shard_mode != "inprocess":
            updates["shard_mode"] = shard_mode
        if shard_partition != "hash":
            updates["shard_partition"] = shard_partition
        config = dataclasses.replace(base, **updates)
    strategy = make_strategy(strategy_name, seed=seed, config=config)
    sim = Simulation(
        topology=topology,
        jobs=list(jobs),
        strategy=strategy,
        config=SimConfig(
            cycle_seconds=cycle_seconds,
            max_cycles=max_cycles,
            record_link_stats=record_link_stats,
            safety_threshold=safety_threshold,
            control_overhead_seconds=control_overhead_seconds,
            flow_setup_seconds=flow_setup_seconds,
            stop_when_complete=stop_when_complete,
            links_of_interest=tuple(links_of_interest),
            record_cycle_stats=record_cycle_stats,
        ),
        background=background,
        failures=failures,
        seed=seed,
    )
    try:
        return sim.run()
    finally:
        # Release any process fan-out workers the strategy holds
        # (sharded controller in shard_mode="process"; no-op otherwise).
        shutdown = getattr(strategy, "shutdown", None)
        if shutdown is not None:
            shutdown()


ScenarioFn = Callable[[], Tuple[Topology, List[MulticastJob]]]


@dataclass
class RunSpec:
    """One independent simulation, as data.

    ``scenario`` is a zero-argument factory returning a fresh
    ``(topology, jobs)``; it is invoked once per execution, so no
    simulation state (job binding, strategy caches) leaks between runs.
    """

    strategy: str
    scenario: ScenarioFn
    seed: SeedLike = None
    label: str = ""
    config: Any = None  # optional strategy config (e.g. BDSConfig)
    # SimConfig knobs (mirrors run_simulation's signature).
    cycle_seconds: float = 3.0
    max_cycles: int = 100_000
    safety_threshold: float = 0.8
    record_link_stats: bool = False
    control_overhead_seconds: float = 0.0
    flow_setup_seconds: float = 0.0
    stop_when_complete: bool = True

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
                    config=spec.config,
                    cycle_seconds=spec.cycle_seconds,
                    max_cycles=spec.max_cycles,
                    safety_threshold=spec.safety_threshold,
                    record_link_stats=spec.record_link_stats,
                    control_overhead_seconds=spec.control_overhead_seconds,
                    flow_setup_seconds=spec.flow_setup_seconds,
                    stop_when_complete=spec.stop_when_complete,
                )
            )
        except Exception as exc:
            raise RuntimeError(
                f"run {spec.label!r} failed: {type(exc).__name__}: {exc}"
            ) from exc
    return results


def compare_strategies(
    topology_factory: Callable[[], Topology],
    jobs_factory: Callable[[Topology], List[MulticastJob]],
    strategy_names: Sequence[str],
    cycle_seconds: float = 3.0,
    max_cycles: int = 100_000,
    seed: SeedLike = 7,
) -> Dict[str, SimResult]:
    """Run several strategies over *fresh* identical topologies and jobs.

    Factories are invoked per strategy so that no simulation state (job
    binding, strategy caches) leaks between runs.
    """

    def scenario() -> tuple:
        topology = topology_factory()
        return topology, jobs_factory(topology)

    specs = [
        RunSpec(
            strategy=name,
            seed=seed,
            scenario=scenario,
            cycle_seconds=cycle_seconds,
            max_cycles=max_cycles,
        )
        for name in strategy_names
    ]
    return dict(zip(strategy_names, run_many(specs)))
