"""The strategy factory, :class:`Scenario` — one run as plain data, which
``repro simulate --scenario`` reads from a file — and the runner."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import MISSING, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

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
from repro.net.failures import FailureEvent, FailureSchedule
from repro.net.presets import PRESETS
from repro.net.result import SimResult
from repro.net.simulator import SimConfig, Simulation
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


def non_default_fields(obj: Any) -> Dict[str, Any]:
    """The fields of dataclass ``obj`` that differ from their defaults, in
    value or in type: what a scenario file writes of a job, an event or a
    config, so that a file names no field it does not set."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        default = f.default if f.default_factory is MISSING else f.default_factory()
        if value != default or type(value) is not type(default):
            out[f.name] = value
    return out


def _tuples(value: Any) -> Any:
    """``value`` with every list a tuple, as a scenario's fields hold them."""
    if isinstance(value, (list, tuple)):
        return tuple(_tuples(v) for v in value)
    if isinstance(value, dict):
        return {k: _tuples(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class Scenario:
    """One run, as plain data.

    ``topology`` names a preset of :data:`repro.net.presets.PRESETS` and
    ``topology_args`` are its keyword arguments; each entry of ``jobs``
    holds :class:`MulticastJob`'s and ``background``
    :class:`BackgroundTraffic`'s; ``strategy`` is a :func:`make_strategy`
    name. A scenario that exists builds: its constructor raises
    :class:`ValueError` on a bad name, key or value.
    """

    topology: str
    jobs: Tuple[Mapping[str, Any], ...]
    topology_args: Mapping[str, Any] = field(default_factory=dict)
    failures: Tuple[FailureEvent, ...] = ()
    background: Optional[Mapping[str, Any]] = None
    strategy: str = "bds"
    config: BDSConfig = field(default_factory=BDSConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        for name in ("jobs", "topology_args", "failures", "background"):
            object.__setattr__(self, name, _tuples(getattr(self, name)))
        if not self.jobs:
            raise ValueError("a scenario with no jobs runs nothing")
        if self.topology not in PRESETS:
            raise ValueError(
                f"unknown topology preset {self.topology!r}; choose from "
                f"{tuple(PRESETS)}"
            )
        try:
            self.build()
        except TypeError as exc:
            raise ValueError(f"bad scenario: {exc}") from exc

    @classmethod
    def mesh(
        cls,
        num_dcs: int,
        servers_per_dc: int,
        wan: float,
        nic: float,
        size: float,
        block_size: float,
        job_id: str = "job",
        jobs: int = 1,
        **fields: Any,
    ) -> "Scenario":
        """A full mesh and ``jobs`` multicasts, each to every other DC;
        ``fields`` are the scenario's other fields.

        One job keeps ``job_id`` and starts at ``dc0``; several are numbered
        ``<job_id>0``, ``<job_id>1``, … with sources rotating across the DCs.
        """
        dcs = [f"dc{i}" for i in range(num_dcs)]
        return cls(
            "full_mesh",
            tuple(
                dict(
                    job_id=job_id if jobs == 1 else f"{job_id}{j}",
                    src_dc=dcs[j % num_dcs],
                    dst_dcs=tuple(dc for dc in dcs if dc != dcs[j % num_dcs]),
                    total_bytes=size,
                    block_size=block_size,
                )
                for j in range(jobs)
            ),
            dict(
                num_dcs=num_dcs,
                servers_per_dc=servers_per_dc,
                wan_capacity=wan,
                uplink=nic,
            ),
            **fields,
        )

    def build(self) -> Dict[str, Any]:
        """Fresh, bound objects, as :class:`Simulation`'s keyword arguments:
        ``Simulation(**scenario.build())`` is the run, and a run that needs
        a pre-seeded store, a monitor or another controller adds or swaps
        one of them."""
        topology = PRESETS[self.topology](**self.topology_args)
        jobs = [MulticastJob(**fields) for fields in self.jobs]
        for job in jobs:
            missing = {job.src_dc, *job.dst_dcs, *job.relay_dcs} - topology.dcs.keys()
            if missing:
                raise ValueError(
                    f"job {job.job_id!r} names DC(s) {sorted(missing)}, "
                    "which its topology lacks"
                )
            job.bind(topology)
        return dict(
            topology=topology,
            jobs=jobs,
            strategy=make_strategy(
                self.strategy, seed=self.seed, config=dataclasses.replace(self.config)
            ),
            config=dataclasses.replace(self.sim),
            background=None
            if self.background is None
            else BackgroundTraffic(**self.background),
            failures=FailureSchedule(self.failures) if self.failures else None,
            seed=self.seed,
        )

    def run(self) -> SimResult:
        return Simulation(**self.build()).run()

    def to_json(self) -> str:
        """The scenario as a JSON object of its non-default fields."""
        return json.dumps(
            non_default_fields(self), default=non_default_fields, indent=1
        )

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """The scenario ``text`` holds; :class:`ValueError` names a bad key
        or value."""
        raw = _tuples(json.loads(text))
        if not isinstance(raw, dict):
            raise ValueError("a scenario file holds one JSON object")
        try:
            return cls(
                **{
                    **raw,
                    "failures": tuple(
                        FailureEvent(**event) for event in raw.get("failures", ())
                    ),
                    "config": BDSConfig(**raw.get("config", {})),
                    "sim": SimConfig(**raw.get("sim", {})),
                }
            )
        except TypeError as exc:
            raise ValueError(f"bad scenario: {exc}") from exc


def run_many(scenarios: Sequence[Scenario]) -> List[SimResult]:
    """Run every scenario, one after another, and return results in order.

    A run that fails is re-raised as a :class:`RuntimeError` naming its
    position and strategy.
    """
    results: List[SimResult] = []
    for i, scenario in enumerate(scenarios):
        try:
            results.append(scenario.run())
        except Exception as exc:
            raise RuntimeError(
                f"run {i} ({scenario.strategy}) failed: {type(exc).__name__}: {exc}"
            ) from exc
    return results
