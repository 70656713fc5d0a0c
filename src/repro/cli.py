"""Command-line interface for the BDS reproduction.

Four subcommands cover the workflows a user of the library needs without
writing Python:

* ``simulate``  — run one multicast over a synthetic mesh with any strategy;
* ``workload``  — generate a synthetic Baidu-like trace to a JSONL file;
* ``replay``    — replay a saved trace through the simulator;
* ``experiment``— run one of the paper's experiments by figure/table id.

Examples::

    python -m repro simulate --strategy bds --num-dcs 5 --size 200MB
    python -m repro workload --count 100 --out trace.jsonl
    python -m repro replay trace.jsonl --strategy bds --scale 1e-5
    python -m repro experiment fig3
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis import experiments as exps
from repro.analysis.metrics import summarize
from repro.analysis.reporting import format_cdf_rows, format_series, format_table
from repro.analysis.runner import STRATEGY_NAMES, run_simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import format_duration, parse_rate, parse_size
from repro.workload.generator import WorkloadGenerator
from repro.workload.traces import replay_as_jobs, save_trace


def _stride_arg(text: str) -> "int | str":
    """Parse ``--shard-stride``: a positive int or the literal ``auto``."""
    if text == "auto":
        return text
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError("stride must be >= 1")
    return value


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
        type=int,
        default=1,
        help="number of concurrent multicast jobs (sources rotate across "
        "DCs); sharding partitions by job, so >1 makes --shards meaningful",
    )
    sim.add_argument(
        "--shards",
        type=int,
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
        help="job-to-shard partition policy: seeded stable hash, or "
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
        choices=sorted(EXPERIMENTS),
        help="experiment id (paper figure/table)",
    )
    ex.add_argument("--seed", type=int, default=None)
    return parser


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> int:
    topo = Topology.full_mesh(
        num_dcs=args.num_dcs,
        servers_per_dc=args.servers_per_dc,
        wan_capacity=parse_rate(args.wan),
        uplink=parse_rate(args.nic),
    )
    jobs = []
    for j in range(max(1, args.jobs)):
        src = f"dc{j % args.num_dcs}"
        job = MulticastJob(
            job_id="cli" if args.jobs <= 1 else f"cli{j}",
            src_dc=src,
            dst_dcs=tuple(
                f"dc{i}" for i in range(args.num_dcs) if f"dc{i}" != src
            ),
            total_bytes=parse_size(args.size),
            block_size=parse_size(args.block_size),
        )
        job.bind(topo)
        jobs.append(job)
    result = run_simulation(
        topo,
        jobs,
        args.strategy,
        cycle_seconds=args.cycle,
        max_cycles=args.max_cycles,
        seed=args.seed,
        shards=args.shards,
        shard_stride=args.shard_stride,
        shard_partition=args.shard_partition,
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


def _run_fig3(seed: Optional[int]) -> None:
    result = exps.exp_fig3_illustrative(seed=seed if seed is not None else 3)
    print(
        format_table(
            ["strategy", "time"],
            [
                ["direct", f"{result.direct_s:.0f}s"],
                ["chain", f"{result.chain_s:.0f}s"],
                ["bds", f"{result.bds_s:.0f}s"],
            ],
        )
    )


def _run_fig4(seed: Optional[int]) -> None:
    result = exps.exp_fig4_disjointness(seed=seed if seed is not None else 4)
    print(format_cdf_rows(result.ratios))
    print(f"bottleneck-disjoint pairs: {result.fraction_disjoint:.1%}")


def _run_fig5(seed: Optional[int]) -> None:
    result = exps.exp_fig5_gingko_vs_ideal(seed=seed if seed is not None else 5)
    print(format_cdf_rows(result.gingko_times, unit="s"))
    print(f"median gingko/ideal ratio: {result.median_ratio:.2f}x")


def _run_fig12c(seed: Optional[int]) -> None:
    result = exps.exp_fig12c_cycle_length(seed=seed if seed is not None else 12)
    print(
        format_series(
            result.cycle_lengths_s,
            [round(t, 1) for t in result.completion_times_s],
            "cycle (s)",
            "completion (s)",
        )
    )


def _run_table3(seed: Optional[int]) -> None:
    result = exps.exp_table3_overlay_comparison(
        seed=seed if seed is not None else 11
    )
    rows = [
        [setup] + [f"{times[s]:.0f}s" for s in ("bullet", "akamai", "bds")]
        for setup, times in result.times.items()
    ]
    print(format_table(["setup", "bullet", "akamai", "bds"], rows))


EXPERIMENTS = {
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig12c": _run_fig12c,
    "table3": _run_table3,
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    EXPERIMENTS[args.name](args.seed)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
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
