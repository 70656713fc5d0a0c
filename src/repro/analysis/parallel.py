"""Parallel experiment engine: process-pool fan-out over independent runs.

The evaluation surface (``compare_strategies``, the sweeps, the
``benchmarks/bench_fig*`` scripts) is a matrix of *independent*
(strategy × knob value × seed) simulations — embarrassingly parallel, yet
historically executed one after another on one core. This module is the
missing subsystem:

* :class:`RunSpec` — one simulation as pure data: a scenario factory (or
  pre-built topology + jobs), a strategy name, the ``SimConfig`` knobs,
  and a seed. Specs are materialized in the parent process and shipped to
  workers by value, so scenario factories may freely be lambdas/closures
  (they are never pickled).
* :func:`run_many` — executes a list of specs on a
  ``concurrent.futures.ProcessPoolExecutor``, streams ``k/n done, ETA``
  progress, survives worker failures by marking the affected spec failed
  instead of killing the batch, and merges results deterministically in
  spec order. ``workers=1`` (the default) keeps the serial in-process
  path; because every run owns a fresh topology/jobs/seed, parallel
  results are bit-identical to serial (compare
  :meth:`~repro.net.simulator.SimResult.fingerprint`).

Layered on top is the content-addressed run cache
(:mod:`repro.analysis.runcache`): pass ``cache=RunCache()`` and any spec
whose fingerprint is already on disk is restored instead of re-run, with
identical in-flight specs deduplicated to a single execution.
"""

from __future__ import annotations

import pickle
import sys
import time as _time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.runcache import RunCache, spec_fingerprint
from repro.net.simulator import SimResult
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.rng import SeedLike

ScenarioFn = Callable[[], Tuple[Topology, List[MulticastJob]]]


@dataclass
class RunSpec:
    """One independent simulation, as data.

    Exactly one of ``scenario`` (a zero-argument factory returning
    ``(topology, jobs)``) or the ``topology``+``jobs`` pair must be
    provided. The factory form is preferred: it is invoked freshly per
    execution, making state leakage between runs impossible (the same
    contract ``compare_strategies`` and ``sweep`` always had). Pre-built
    objects are pickled-copied per execution for the same reason.
    """

    strategy: str
    seed: SeedLike = None
    scenario: Optional[ScenarioFn] = None
    topology: Optional[Topology] = None
    jobs: Optional[Sequence[MulticastJob]] = None
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
        has_factory = self.scenario is not None
        has_objects = self.topology is not None and self.jobs is not None
        if has_factory == has_objects:
            raise ValueError(
                "a RunSpec needs either a scenario factory or both "
                "topology and jobs (and not both forms)"
            )
        if not self.label:
            self.label = self.strategy

    def sim_knobs(self) -> Dict[str, Any]:
        """The ``run_simulation`` keyword arguments this spec pins down."""
        return {
            "cycle_seconds": self.cycle_seconds,
            "max_cycles": self.max_cycles,
            "safety_threshold": self.safety_threshold,
            "record_link_stats": self.record_link_stats,
            "control_overhead_seconds": self.control_overhead_seconds,
            "flow_setup_seconds": self.flow_setup_seconds,
            "stop_when_complete": self.stop_when_complete,
        }

    def materialize(self) -> Tuple[Topology, List[MulticastJob]]:
        """Fresh ``(topology, jobs)`` for one execution of this spec."""
        if self.scenario is not None:
            topology, jobs = self.scenario()
            return topology, list(jobs)
        # Pre-built objects: hand out a deep copy so repeated executions
        # (and the caller's own references) never share mutable state.
        return pickle.loads(pickle.dumps((self.topology, list(self.jobs))))


@dataclass
class RunOutcome:
    """What happened to one spec: a result, a cache hit, or a failure."""

    spec: RunSpec
    index: int
    result: Optional[SimResult] = None
    error: Optional[str] = None
    cached: bool = False  # restored from the on-disk run cache
    deduped: bool = False  # reused an identical in-flight spec's result
    wall_s: float = 0.0
    fingerprint: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass
class BatchStats:
    """Aggregates of one :func:`run_many` batch (shown in progress lines)."""

    total: int = 0
    done: int = 0
    cache_hits: int = 0
    deduped: int = 0
    failed: int = 0
    executed: int = 0
    wall_s: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "total": self.total,
            "done": self.done,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
            "failed": self.failed,
            "executed": self.executed,
            "wall_s": self.wall_s,
        }


def _execute_payload(payload: Dict[str, Any]) -> SimResult:
    """Run one materialized spec (the worker-side entry point)."""
    from repro.analysis.runner import run_simulation

    return run_simulation(
        payload["topology"],
        payload["jobs"],
        payload["strategy"],
        seed=payload["seed"],
        config=payload["config"],
        **payload["knobs"],
    )


class _Progress:
    """``k/n done, ETA`` streaming to stderr plus an optional callback."""

    def __init__(
        self,
        stats: BatchStats,
        enabled: bool,
        on_progress: Optional[Callable[[BatchStats], None]],
    ) -> None:
        self.stats = stats
        self.enabled = enabled
        self.on_progress = on_progress
        self.started = _time.perf_counter()
        self._tty = enabled and getattr(sys.stderr, "isatty", lambda: False)()

    def tick(self) -> None:
        stats = self.stats
        if self.on_progress is not None:
            self.on_progress(stats)
        if not self.enabled:
            return
        elapsed = _time.perf_counter() - self.started
        remaining = stats.total - stats.done
        eta = (elapsed / stats.done) * remaining if stats.done else float("inf")
        line = (
            f"[run_many] {stats.done}/{stats.total} done "
            f"({stats.cache_hits} cache hits, {stats.deduped} deduped, "
            f"{stats.failed} failed) elapsed {elapsed:.1f}s ETA {eta:.1f}s"
        )
        if self._tty:
            sys.stderr.write("\r" + line + (" " * 8))
            if remaining == 0:
                sys.stderr.write("\n")
        else:
            sys.stderr.write(line + "\n")
        sys.stderr.flush()


def run_many(
    specs: Sequence[RunSpec],
    workers: int = 1,
    cache: Optional[RunCache] = None,
    progress: bool = False,
    on_progress: Optional[Callable[[BatchStats], None]] = None,
) -> List[RunOutcome]:
    """Execute every spec and return outcomes in spec order.

    ``workers=1`` runs in-process, in order — the exact serial semantics
    the evaluation code always had. ``workers>1`` fans the specs out over
    a process pool; completion order is whatever the machine does, but
    the returned list is always indexed by spec order, so downstream
    consumers are deterministic either way.

    Failure containment: an exception inside one run (bad strategy name,
    simulation error) marks *that* outcome failed and the batch carries
    on. A hard worker death (segfault, OOM kill) poisons the whole pool;
    the affected specs are resubmitted to a fresh pool and only specs
    that break a pool twice are marked failed.

    With ``cache`` set, each spec's fingerprint is looked up first
    (restored results count as that spec's outcome, ``cached=True``), and
    identical cache-able specs in the same batch execute once
    (``deduped=True`` on the followers). Successful executions are stored
    back. Scenario factories run in the parent during this phase; factory
    exceptions therefore propagate to the caller, exactly like the old
    serial loops.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    specs = list(specs)
    stats = BatchStats(total=len(specs))
    reporter = _Progress(stats, progress, on_progress)
    outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
    started = _time.perf_counter()

    # Materialize + cache lookup + in-flight dedup, in spec order.
    pending: List[Tuple[int, Dict[str, Any]]] = []
    primary_by_key: Dict[str, int] = {}
    followers: Dict[int, List[int]] = {}
    for i, spec in enumerate(specs):
        topology, jobs = spec.materialize()
        key = None
        if cache is not None:
            key = spec_fingerprint(
                topology,
                jobs,
                spec.strategy,
                spec.sim_knobs(),
                spec.seed,
                spec.config,
            )
            restored = cache.get(key)
            if restored is not None:
                outcomes[i] = RunOutcome(
                    spec=spec,
                    index=i,
                    result=restored,
                    cached=True,
                    fingerprint=key,
                )
                stats.done += 1
                stats.cache_hits += 1
                reporter.tick()
                continue
            if key is not None and key in primary_by_key:
                followers.setdefault(primary_by_key[key], []).append(i)
                outcomes[i] = RunOutcome(
                    spec=spec, index=i, deduped=True, fingerprint=key
                )
                continue
            if key is not None:
                primary_by_key[key] = i
        payload = {
            "topology": topology,
            "jobs": jobs,
            "strategy": spec.strategy,
            "seed": spec.seed,
            "config": spec.config,
            "knobs": spec.sim_knobs(),
        }
        outcomes[i] = RunOutcome(spec=spec, index=i, fingerprint=key)
        pending.append((i, payload))

    def finish(i: int, result: Optional[SimResult], error: Optional[str], wall: float) -> None:
        outcome = outcomes[i]
        assert outcome is not None
        outcome.result = result
        outcome.error = error
        outcome.wall_s = wall
        stats.done += 1
        if result is None:
            stats.failed += 1
        else:
            stats.executed += 1
            if cache is not None:
                cache.put(outcome.fingerprint, result)
        # Settle in-flight duplicates of this spec.
        for j in followers.get(i, ()):  # noqa: B023 - resolved eagerly
            follower = outcomes[j]
            assert follower is not None
            follower.result = result
            follower.error = error
            stats.done += 1
            if result is None:
                stats.failed += 1
            else:
                stats.deduped += 1
            reporter.tick()
        reporter.tick()

    if workers == 1 or len(pending) <= 1:
        for i, payload in pending:
            run_started = _time.perf_counter()
            try:
                result: Optional[SimResult] = _execute_payload(payload)
                error = None
            except Exception as exc:  # contained: one failed spec
                result, error = None, f"{type(exc).__name__}: {exc}"
            finish(i, result, error, _time.perf_counter() - run_started)
    else:
        _run_pooled(pending, workers, finish)

    stats.wall_s = _time.perf_counter() - started
    return [outcome for outcome in outcomes if outcome is not None]


def _run_pooled(
    pending: List[Tuple[int, Dict[str, Any]]],
    workers: int,
    finish: Callable[[int, Optional[SimResult], Optional[str], float], None],
) -> None:
    """Fan ``pending`` out over a process pool, surviving worker deaths.

    A hard worker death (segfault, OOM kill) breaks the whole pool, which
    poisons every in-flight future — including innocent specs. All
    poisoned specs get a second attempt, each in its *own* single-worker
    pool, so only the spec that actually kills its worker ends up failed.
    """
    from concurrent.futures import as_completed
    from concurrent.futures.process import BrokenProcessPool

    retry: List[Tuple[int, Dict[str, Any]]] = []
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        submitted: Dict[Any, Tuple[int, Dict[str, Any], float]] = {}
        queue = list(pending)
        try:
            for i, payload in queue:
                future = pool.submit(_execute_payload, payload)
                submitted[future] = (i, payload, _time.perf_counter())
        except BrokenProcessPool:
            done_count = len(submitted)
            retry.extend(queue[done_count:])
        for future in as_completed(submitted):
            i, payload, t0 = submitted[future]
            wall = _time.perf_counter() - t0
            try:
                finish(i, future.result(), None, wall)
            except BrokenProcessPool:
                retry.append((i, payload))
            except Exception as exc:
                finish(i, None, f"{type(exc).__name__}: {exc}", wall)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)

    for i, payload in retry:
        t0 = _time.perf_counter()
        try:
            with ProcessPoolExecutor(max_workers=1) as solo:
                result = solo.submit(_execute_payload, payload).result()
            finish(i, result, None, _time.perf_counter() - t0)
        except BrokenProcessPool:
            finish(
                i,
                None,
                "worker process died while running this spec",
                _time.perf_counter() - t0,
            )
        except Exception as exc:
            finish(
                i,
                None,
                f"{type(exc).__name__}: {exc}",
                _time.perf_counter() - t0,
            )
