"""Command-line interface for the BDS reproduction.

Four subcommands cover the workflows a user of the library needs without
writing Python:

* ``simulate``  — run one multicast over a synthetic mesh with any strategy;
* ``workload``  — generate a synthetic Baidu-like trace to a JSONL file;
* ``replay``    — replay a saved trace through the simulator;
* ``experiment``— run one of the paper's experiments by id, or ``all``
  (``all --write`` regenerates the tables of ``EXPERIMENTS.md``).

Examples::

    python -m repro simulate --strategy bds --num-dcs 5 --size 200MB
    python -m repro workload --count 100 --out trace.jsonl
    python -m repro replay trace.jsonl --strategy bds --scale 1e-5
    python -m repro experiment fig3
    python -m repro experiment all --write
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.experiments import EXPERIMENTS, write_generated
from repro.analysis.metrics import summarize
from repro.analysis.runner import STRATEGY_NAMES, mesh_scenario, run_simulation
from repro.core import BDSConfig
from repro.net.simulator import SimConfig
from repro.net.topology import Topology
from repro.utils.units import format_duration, parse_rate, parse_size
from repro.workload.generator import WorkloadGenerator
from repro.workload.traces import replay_as_jobs, save_trace


def _positive_int(text: str, expected: str = "an integer") -> int:
    """Parse a count that must be at least 1 (``--jobs``, ``--shards``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected {expected}, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _stride_arg(text: str) -> "int | str":
    """Parse ``--shard-stride``: a positive int or the literal ``auto``."""
    if text == "auto":
        return text
    return _positive_int(text, "an integer or 'auto'")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BDS (EuroSys'18) reproduction: inter-DC multicast overlay",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one multicast over a mesh")
    sim.add_argument("--strategy", choices=STRATEGY_NAMES, default="bds")
    sim.add_argument("--num-dcs", type=int, default=4)
    sim.add_argument("--servers-per-dc", type=int, default=4)
    sim.add_argument("--wan", default="1GB/s", help="WAN link capacity")
    sim.add_argument("--nic", default="50MB/s", help="server NIC rate")
    sim.add_argument("--size", default="200MB", help="data size")
    sim.add_argument("--block-size", default="2MB")
    sim.add_argument("--cycle", type=float, default=3.0, help="cycle seconds")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--max-cycles", type=int, default=100_000)
    sim.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="number of concurrent multicast jobs (sources rotate across "
        "DCs); sharding partitions by job, so >1 makes --shards meaningful",
    )
    sim.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help="controller shards: partition jobs across this many "
        "schedule+route pipelines with WAN-capacity reconciliation "
        "(1 = single controller, bit-identical to before the knob)",
    )
    sim.add_argument(
        "--shard-stride",
        type=_stride_arg,
        default=1,
        help="shard decide cadence: shard s re-decides only on cycles "
        "with cycle %% stride == s %% stride, replaying its cached "
        "directives in between (1 = every shard every cycle; 'auto' "
        "widens/narrows adaptively from measured per-shard walls)",
    )
    sim.add_argument(
        "--shard-partition",
        choices=("hash", "affinity"),
        default="hash",
        help="job-to-shard partition policy: stable hash, or "
        "greedy source-DC affinity (co-locates jobs sharing a source, "
        "balanced by pair-count weight)",
    )
    sim.add_argument(
        "--json", default=None, help="write a JSON result export to this path"
    )

    wl = sub.add_parser("workload", help="generate a synthetic trace")
    wl.add_argument("--num-dcs", type=int, default=30)
    wl.add_argument("--count", type=int, default=100)
    wl.add_argument("--seed", type=int, default=0)
    wl.add_argument("--out", required=True, help="output JSONL path")

    rp = sub.add_parser("replay", help="replay a saved trace")
    rp.add_argument("trace", help="JSONL trace path")
    rp.add_argument("--strategy", choices=STRATEGY_NAMES, default="bds")
    rp.add_argument("--num-dcs", type=int, default=10)
    rp.add_argument("--servers-per-dc", type=int, default=4)
    rp.add_argument("--wan", default="500MB/s")
    rp.add_argument("--nic", default="25MB/s")
    rp.add_argument("--block-size", default="4MB")
    rp.add_argument("--scale", type=float, default=1e-5, help="size scale factor")
    rp.add_argument("--seed", type=int, default=0)

    ex = sub.add_parser("experiment", help="run a paper experiment")
    ex.add_argument(
        "name",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id (paper figure/table/ablation), or all of them",
    )
    ex.add_argument(
        "--seed", type=int, default=None, help="override the entry's pinned seed"
    )
    ex.add_argument(
        "--write",
        action="store_true",
        help="with 'all' at the pinned seeds: check every entry, then rewrite "
        "the generated block of ./EXPERIMENTS.md",
    )
    return parser


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> int:
    topo, jobs = mesh_scenario(
        args.num_dcs,
        args.servers_per_dc,
        parse_rate(args.wan),
        parse_rate(args.nic),
        parse_size(args.size),
        parse_size(args.block_size),
        job_id="cli",
        jobs=args.jobs,
    )
    result = run_simulation(
        topo,
        jobs,
        args.strategy,
        seed=args.seed,
        sim=SimConfig(cycle_seconds=args.cycle, max_cycles=args.max_cycles),
        config=BDSConfig(
            shards=args.shards,
            shard_stride=args.shard_stride,
            shard_partition=args.shard_partition,
        ),
    )
    if args.json:
        from repro.analysis.export import save_result

        save_result(result, args.json)
        print(f"result export written to {args.json}")
    if not result.all_complete:
        print(f"jobs did not complete within {args.max_cycles} cycles")
        return 1
    times = [
        t
        for job in jobs
        for t in result.server_completion_times(job.job_id)
    ]
    stats = summarize(times)
    completion = max(result.completion_time(job.job_id) for job in jobs)
    print(f"strategy          : {args.strategy}")
    print(f"completion        : {format_duration(completion)}")
    print(f"cycles            : {result.cycles_run}")
    if args.shards > 1:
        print(f"controller shards : {args.shards} (stride {args.shard_stride})")
    print(
        "per-server times  : "
        f"median {stats.median:.1f}s  p90 {stats.p90:.1f}s  max {stats.maximum:.1f}s"
    )
    fractions = result.store.origin_fraction_by_server()
    if fractions:
        overlay = 1 - sum(fractions.values()) / len(fractions)
        print(f"via overlay paths : {overlay:.0%} of deliveries")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    generator = WorkloadGenerator(
        [f"dc{i}" for i in range(args.num_dcs)], seed=args.seed
    )
    requests = generator.generate(count=args.count)
    save_trace(requests, args.out)
    multicasts = sum(r.is_multicast for r in requests)
    print(
        f"wrote {len(requests)} requests ({multicasts} multicasts) to {args.out}"
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    topo = Topology.full_mesh(
        num_dcs=args.num_dcs,
        servers_per_dc=args.servers_per_dc,
        wan_capacity=parse_rate(args.wan),
        uplink=parse_rate(args.nic),
    )
    jobs = replay_as_jobs(
        args.trace,
        topo,
        block_size=parse_size(args.block_size),
        size_scale=args.scale,
    )
    if not jobs:
        print("trace contains no multicasts that fit the topology")
        return 1
    result = run_simulation(topo, jobs, args.strategy, seed=args.seed)
    print(f"jobs completed : {len(result.job_completion)}/{len(jobs)}")
    if result.cycles_fast_forwarded:
        print(
            "event engine   : "
            f"{result.cycles_fast_forwarded} of {result.cycles_run} cycles "
            "skipped (no job active)"
        )
    if result.job_completion:
        durations = [
            result.job_completion[j.job_id] - j.arrival_time
            for j in jobs
            if j.job_id in result.job_completion
        ]
        stats = summarize(durations)
        print(
            "durations      : "
            f"median {format_duration(stats.median)}, "
            f"p90 {format_duration(stats.p90)}"
        )
    return 0 if result.all_complete else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    results = {}
    for name in EXPERIMENTS if args.name == "all" else [args.name]:
        results[name] = EXPERIMENTS[name].run(seed=args.seed)
        print(EXPERIMENTS[name].report(results[name]) + "\n")
    if args.write:
        for name, result in results.items():
            EXPERIMENTS[name].check(result)
        changed = write_generated(Path("EXPERIMENTS.md"), results)
        state = "rewritten" if changed else "is current"
        print(f"EXPERIMENTS.md: generated block {state}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "experiment" and args.write:
        if args.name != "all" or args.seed is not None:
            parser.error("--write goes with 'all' and the pinned seeds")
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "workload":
        return _cmd_workload(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
