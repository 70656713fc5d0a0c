"""One repetition of one workload, in a process of its own.

``run.py`` starts this file once per repetition so that every measurement
begins from the same interpreter state: fresh heap, fresh caches, fixed
hash seed, single-threaded BLAS. The order inside is the run protocol:

1. import, then build and run a 1 %-scale copy of the workload untimed
   (pays numpy/scipy lazy initialisation and first-call costs);
2. ``gc.collect()``, then time set-up ``SETUP_REPEATS`` times over and keep
   the median (the last build is the one that runs);
3. ``gc.collect(); gc.freeze()``, then time ``Simulation.run()`` per arm;
4. check the outputs and print one JSON record on the last stdout line.

With ``--trace 1`` every layer entry point is wrapped first
(:mod:`trace`); without it only ``strategy.decide`` is, which is how the
decide latencies of the untraced repetitions are taken.

A :class:`speedref.SpeedReference` samples the machine's speed from before
the warm-up to the end of the last run. Every time in the record is in
seconds at reference speed — ``(raw interval − reference-kernel pauses) /
slowdown`` of the phase it belongs to — with the raw seconds and the
slowdowns beside it under ``raw``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
from time import perf_counter, process_time
from typing import Any, Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy
import scipy

from repro.baselines.ideal import ideal_completion_time

import trace as ledger_trace
from speedref import SpeedReference
from workloads import CYCLE_SECONDS, WORKLOADS, Arm, StageClock

WARMUP_SCALE = 0.01
#: Set-ups timed per repetition; the median is reported.
SETUP_REPEATS = 3
SETUP_STAGES = (
    "topology.build", "workload.generate", "job.bind", "simulator.construct",
)


Interval = Tuple[float, float]


def _timed_setup(name: str, seed: int, scale: float):
    """Build the workload SETUP_REPEATS times.

    Returns each build's raw (start, end), each build's stage clock, and
    the arms of the last build — the one that runs.
    """
    builds: List[Interval] = []
    clocks: List[StageClock] = []
    arms: List[Arm] = []
    for _ in range(SETUP_REPEATS):
        arms = []  # drop the previous build before timing the next
        gc.collect()
        clock = StageClock()
        started = perf_counter()
        arms = WORKLOADS[name](seed, scale, clock)
        builds.append((started, perf_counter()))
        clocks.append(clock)
    return builds, clocks, arms


def _judge_arm(arm: Arm, result: Any) -> Tuple[Dict[str, float], List[str]]:
    """One arm's simulated-time metrics, and the output checks it failed.

    Every job must be complete at the horizon, and none may beat its
    ``ideal_completion_time`` lower bound.
    """
    problems = []
    if not result.all_complete:
        unfinished = len(arm.jobs) - len(result.job_completion)
        problems.append(f"{arm.label}: {unfinished} job(s) unfinished at horizon")
    durations = []
    gaps = []
    for job in arm.jobs:
        done = result.job_completion.get(job.job_id)
        if done is None:
            continue
        duration = done - job.arrival_time
        ideal = ideal_completion_time(arm.topology, job)
        if duration < ideal * (1.0 - 1e-9):
            problems.append(
                f"{arm.label}: {job.job_id} finished in {duration:.3f} s, "
                f"under its ideal bound {ideal:.3f} s"
            )
        durations.append(duration)
        gaps.append(duration / ideal)
    if not durations:
        return {"mean": 0.0, "p95": 0.0, "max": 0.0, "ideal_gap": 0.0}, problems
    durations.sort()
    times = {
        "mean": statistics.fmean(durations),
        # Nearest rank: the slowest job itself when there are under 20.
        "p95": durations[math.ceil(0.95 * len(durations)) - 1],
        "max": durations[-1],
        "ideal_gap": statistics.median(gaps),
    }
    return times, problems


def _cache_stats(sim: Any) -> Dict[str, int]:
    """CycleCache counters of the simulation plus any shard mirrors."""
    caches = [sim._cycle_cache]
    runner = getattr(sim.strategy, "_shard_runner", None)
    if runner is not None:
        caches += [m.cache for m in runner._mirrors if m is not None]
    out = {"hits": 0, "misses": 0, "flushes": 0}
    for cache in caches:
        for key, value in cache.stats().items():
            out[key] += value
    return out


def _exact_counts(arms: List[Arm], results: List[Any]) -> Dict[str, float]:
    """Counts that must repeat bit-for-bit across repetitions."""
    c: Dict[str, float] = {
        "simulator.cycles_run": 0,
        "simulator.cycles_executed": 0,
        "simulator.cycles_fast_forwarded": 0,
        "simulator.cycles_decision_reused": 0,
        "controller.reconcile_clips": 0,
        "scheduling.blocks_selected": 0,
        "routing.commodities": 0,
        "routing.directives": 0,
        "lp.fptas_iterations": 0,
        "lp.fptas_phases": 0,
        "shardexec.payload_bytes": 0,
        "shardexec.state_bytes_max": 0,
        "flow.stalemates": 0,
        "store.deliveries": 0,
        "store.bytes_transferred": 0.0,
        "store.state_bytes": 0,
        "cycle_cache.hits": 0,
        "cycle_cache.misses": 0,
        "cycle_cache.flushes": 0,
    }
    solves = 0
    warm = 0
    for arm, result in zip(arms, results):
        c["simulator.cycles_run"] += result.cycles_run
        c["simulator.cycles_fast_forwarded"] += result.cycles_fast_forwarded
        c["simulator.cycles_decision_reused"] += result.cycles_decision_reused
        c["simulator.cycles_executed"] += sum(
            1 for s in result.cycle_stats if not s.fast_forwarded
        )
        c["flow.stalemates"] += result.total_rate_stalemates()
        c["store.deliveries"] += len(result.store.deliveries)
        c["store.bytes_transferred"] += result.total_bytes_transferred()
        c["store.state_bytes"] += result.store.state_bytes()
        for key, value in _cache_stats(arm.sim).items():
            c[f"cycle_cache.{key}"] += value
        for d in getattr(arm.sim.strategy, "decisions", ()):
            c["controller.reconcile_clips"] += d.reconciled_directives
            c["scheduling.blocks_selected"] += d.scheduled_blocks
            c["routing.commodities"] += d.num_commodities
            c["routing.directives"] += len(d.directives)
            c["lp.fptas_iterations"] += d.routing_iterations
            c["lp.fptas_phases"] += d.routing_phases
            c["shardexec.payload_bytes"] += d.shard_payload_bytes
            c["shardexec.state_bytes_max"] = max(
                c["shardexec.state_bytes_max"], d.shard_state_bytes
            )
            if d.routing_warm_start:
                solves += 1
                warm += d.routing_warm_start in ("warm", "reuse")
    lookups = c["cycle_cache.hits"] + c["cycle_cache.misses"]
    c["cycle_cache.hit_ratio"] = c["cycle_cache.hits"] / lookups if lookups else 0.0
    cycles = c["simulator.cycles_run"]
    c["simulator.ff_ratio"] = (
        c["simulator.cycles_fast_forwarded"] / cycles if cycles else 0.0
    )
    c["lp.fptas_warm_frac"] = warm / solves if solves else 0.0
    return c


def _completion_ratios(sims: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Exact simulated-completion ratios between a workload's arms."""
    out = {
        "routing.greedy_vs_lp_completion": 0.0,
        "routing.fptas_vs_lp_completion": 0.0,
        "baselines.bds_speedup_vs_gingko": 0.0,
    }
    mean = {label: s["mean"] for label, s in sims.items()}
    if mean.get("bds-lp"):
        out["routing.greedy_vs_lp_completion"] = mean["bds"] / mean["bds-lp"]
        out["routing.fptas_vs_lp_completion"] = mean["bds-fptas"] / mean["bds-lp"]
    if mean.get("gingko") and mean.get("bds"):
        out["baselines.bds_speedup_vs_gingko"] = mean["gingko"] / mean["bds"]
    return out


def _layer_metrics(tracer: ledger_trace.Tracer, slowdown: float) -> Dict[str, float]:
    """Per-layer times and call counts from the traced repetition's spans."""
    totals = tracer.totals()

    def incl(name: str) -> float:
        return totals.get(name, (0.0, 0.0, 0))[0] / slowdown

    def self_(name: str) -> float:
        return totals.get(name, (0.0, 0.0, 0))[1] / slowdown

    def calls(name: str) -> int:
        return totals.get(name, (0.0, 0.0, 0))[2]

    run_s = incl("simulator.run")
    return {
        "simulator.run_s": run_s,
        "simulator.self_s": self_("simulator.run"),
        "simulator.self_frac": self_("simulator.run") / run_s if run_s else 0.0,
        "controller.decide_s": incl("controller.decide"),
        "controller.decide_calls": calls("controller.decide"),
        "controller.self_s": self_("controller.decide"),
        "controller.reconcile_s": incl("controller.reconcile"),
        "scheduling.select_s": incl("scheduling.select"),
        "scheduling.calls": calls("scheduling.select"),
        "routing.route_s": incl("routing.route"),
        "routing.self_s": self_("routing.route"),
        "routing.calls": calls("routing.route"),
        "lp.fptas_s": incl("lp.fptas"),
        "lp.fptas_calls": calls("lp.fptas"),
        "lp.exact_s": incl("lp.exact"),
        "lp.exact_calls": calls("lp.exact"),
        "shardexec.feed_s": incl("shardexec.feed"),
        "shardexec.decide_s": incl("shardexec.decide"),
        "flow.clip_s": incl("flow.clip"),
        "flow.clip_calls": calls("flow.clip"),
        "flow.waterfill_s": incl("flow.waterfill"),
        "flow.waterfill_calls": calls("flow.waterfill"),
        "flow.flows_resolved": tracer.counts.get("flow.flows_resolved", 0),
        "store.record_s": incl("store.record"),
        "baselines.decide_s": incl("baselines.decide"),
        "baselines.fallback_decide_s": incl("baselines.fallback_decide"),
        "bandwidth.budgets_s": incl("bandwidth.budgets"),
        "background.sample_s": incl("background.sample"),
        "failures.advance_s": incl("failures.advance"),
        "failures.events_applied": tracer.counts.get("failures.events_applied", 0),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()

    speed = SpeedReference()
    speed.start()

    for arm in WORKLOADS[args.workload](args.seed, WARMUP_SCALE, StageClock()):
        arm.sim.run()
    del arm

    builds, clocks, arms = _timed_setup(args.workload, args.seed, args.scale)

    tracer = ledger_trace.Tracer(paused=speed.paused)
    if args.trace:
        ledger_trace.wrap_layers(tracer, CYCLE_SECONDS)
    for arm in arms:
        ledger_trace.wrap_decide(tracer, arm.sim.strategy)
        if args.trace:
            ledger_trace.wrap_fallback(tracer, arm.sim.strategy)

    gc.collect()
    gc.freeze()

    results = []
    runs: List[Interval] = []
    cpu_s = 0.0
    for arm in arms:
        cpu_started = process_time()
        started = perf_counter()
        results.append(arm.sim.run())
        runs.append((started, perf_counter()))
        cpu_s += process_time() - cpu_started
    speed.stop()

    # Seconds at reference speed: pauses out, then the phase's slowdown.
    run_slowdown = speed.slowdown(runs[0][0], runs[-1][1])
    setup_slowdown = speed.slowdown(builds[0][0], builds[-1][1])

    def seconds(interval: Interval, slowdown: float) -> float:
        start, end = interval
        return (end - start - speed.paused(start, end)) / slowdown

    arm_walls = {
        arm.label: seconds(run, run_slowdown) for arm, run in zip(arms, runs)
    }
    stages = {
        stage: statistics.median(
            sum(
                (
                    seconds((start, end), setup_slowdown)
                    for name, start, end in clock.intervals
                    if name == stage
                ),
                0.0,
            )
            for clock in clocks
        )
        for stage in SETUP_STAGES
    }

    problems: List[str] = []
    sims: Dict[str, Dict[str, float]] = {}
    stage_totals: Dict[str, float] = {}
    for arm, result in zip(arms, results):
        sims[arm.label], arm_problems = _judge_arm(arm, result)
        problems += arm_problems
        for stage, raw in result.stage_time_totals().items():
            stage_totals[stage] = stage_totals.get(stage, 0.0) + raw

    counts = _exact_counts(arms, results)
    counts.update(_completion_ratios(sims))

    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "setup_s": statistics.median(seconds(b, setup_slowdown) for b in builds),
        "wall_s": sum(arm_walls.values()),
        "arm_wall_s": arm_walls,
        "decide_s": [
            d / run_slowdown
            for d in tracer.durations("controller.decide")
            + tracer.durations("baselines.decide")
        ],
        "raw": {
            "setup_s": statistics.median(end - start for start, end in builds),
            "wall_s": sum(end - start for start, end in runs),
            "cpu_s": cpu_s,
            "slowdown": run_slowdown,
            "setup_slowdown": setup_slowdown,
            "speed_samples": speed.samples(runs[0][0], runs[-1][1]),
            # The program's own stage clocks, printed beside the outside spans.
            "stage_time_totals": stage_totals,
        },
        "pairs": sum(
            job.num_blocks * len(job.dst_dcs) for arm in arms for job in arm.jobs
        ),
        "sim_cycles": counts["simulator.cycles_run"],
        "sim": sims[arms[0].label],
        "fingerprints": {a.label: r.fingerprint() for a, r in zip(arms, results)},
        "counts": counts,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.trace:
        layers = _layer_metrics(tracer, run_slowdown)
        layers.update({f"{stage}_s": value for stage, value in stages.items()})
        for label in ("bds", "gingko", "bullet", "akamai", "chain", "direct"):
            layers[f"baselines.{label}_s"] = arm_walls.get(label, 0.0)
        # The slowest shard's schedule+route wall, as the controller
        # itself clocked it.
        layers["shardexec.shard_wall_max_s"] = max(
            (
                d.shard_wall_max
                for arm in arms
                for d in getattr(arm.sim.strategy, "decisions", ())
            ),
            default=0.0,
        ) / run_slowdown
        record["layers"] = layers
        record["simulator_children_s"] = {
            name: value / run_slowdown
            for name, value in tracer.children_of("simulator.run").items()
        }
        record["spans"] = len(tracer.spans)
        if args.trace_out:
            tracer.write_chrome_trace(args.trace_out, args.workload)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
