"""Command-line interface for the BDS reproduction.

Three subcommands cover the workflows a user of the library needs without
writing Python:

* ``simulate``  — run multicasts over a synthetic mesh with any strategy,
  or the scenario file given with ``--scenario``;
* ``workload``  — write a synthetic Baidu-like trace as a scenario file;
* ``experiment``— run one of the paper's experiments by id, or ``all``
  (``all --write`` regenerates the tables of ``EXPERIMENTS.md``).

Examples::

    python -m repro simulate --strategy bds --num-dcs 5 --size 200MB
    python -m repro workload --count 100 --scale 1e-5 --out trace.json
    python -m repro simulate --scenario trace.json --strategy gingko
    python -m repro experiment fig3
    python -m repro experiment all --write
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.analysis.experiments import EXPERIMENTS, write_generated
from repro.analysis.metrics import summarize
from repro.analysis.runner import (
    STRATEGY_NAMES,
    Scenario,
    non_default_fields,
)
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.utils.units import format_duration, parse_rate, parse_size
from repro.workload.generator import WorkloadGenerator, to_jobs


def _positive_int(
    text: str, expected: str = "an integer", minimum: int = 1
) -> int:
    """Parse a count that must be at least ``minimum`` (``--jobs``, ``--count``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected {expected}, got {text!r}"
        ) from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


def _dc_count(text: str) -> int:
    """Parse a mesh's DC count: a multicast needs a source and a destination."""
    return _positive_int(text, minimum=2)


def _positive(parse: Callable[[str], float]) -> Callable[[str], float]:
    """``parse`` as an argparse type that also requires a finite value > 0."""

    def checked(text: str) -> float:
        try:
            value = parse(text)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
        return value

    return checked


_positive_float = _positive(float)
_size = _positive(parse_size)
_rate = _positive(parse_rate)

#: ``simulate``'s flags and their values when not given. ``--strategy``
#: and ``--seed`` override a ``--scenario`` file's; the others say what
#: the file says, and are an error beside it.
_SIMULATE = dict(
    strategy="bds",
    seed=0,
    num_dcs=4,
    servers_per_dc=4,
    wan=parse_rate("1GB/s"),
    nic=parse_rate("50MB/s"),
    size=parse_size("200MB"),
    block_size=parse_size("2MB"),
    cycle=3.0,
    max_cycles=100_000,
    jobs=1,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BDS (EuroSys'18) reproduction: inter-DC multicast overlay",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate",
        help="run multicasts over a mesh, or a scenario file",
        argument_default=argparse.SUPPRESS,
    )
    sim.add_argument("--scenario", default=None, help="scenario JSON file to run")
    sim.add_argument("--strategy", choices=STRATEGY_NAMES)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--num-dcs", type=_dc_count)
    sim.add_argument("--servers-per-dc", type=_positive_int)
    sim.add_argument("--wan", type=_rate, help="WAN link capacity")
    sim.add_argument("--nic", type=_rate, help="server NIC rate")
    sim.add_argument("--size", type=_size, help="data size")
    sim.add_argument("--block-size", type=_size)
    sim.add_argument("--cycle", type=_positive_float, help="cycle seconds")
    sim.add_argument("--max-cycles", type=_positive_int)
    sim.add_argument(
        "--jobs",
        type=_positive_int,
        help="number of concurrent multicast jobs (sources rotate across DCs)",
    )
    sim.add_argument(
        "--json", default=None, help="write a JSON result export to this path"
    )

    wl = sub.add_parser("workload", help="write a synthetic trace as a scenario")
    wl.add_argument("--num-dcs", type=_dc_count, default=30)
    wl.add_argument("--servers-per-dc", type=_positive_int, default=4)
    wl.add_argument("--wan", type=_rate, default="500MB/s")
    wl.add_argument("--nic", type=_rate, default="25MB/s")
    wl.add_argument("--block-size", type=_size, default="4MB")
    wl.add_argument(
        "--scale", type=_positive_float, default=1e-5, help="size scale factor"
    )
    wl.add_argument("--count", type=_positive_int, default=100)
    wl.add_argument("--seed", type=int, default=0)
    wl.add_argument("--out", required=True, help="output scenario JSON path")

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


def _scenario(args: argparse.Namespace) -> Scenario:
    """The run ``simulate``'s flags, or its ``--scenario`` file, say."""
    flags = argparse.Namespace(**{**_SIMULATE, **vars(args)})
    if args.scenario is None:
        return Scenario.mesh(
            flags.num_dcs,
            flags.servers_per_dc,
            flags.wan,
            flags.nic,
            flags.size,
            flags.block_size,
            job_id="cli",
            jobs=flags.jobs,
            strategy=flags.strategy,
            seed=flags.seed,
            sim=SimConfig(cycle_seconds=flags.cycle, max_cycles=flags.max_cycles),
        )
    scenario = Scenario.from_json(Path(args.scenario).read_text(encoding="utf-8"))
    given = {name: getattr(args, name) for name in ("strategy", "seed") if name in args}
    return dataclasses.replace(scenario, **given)


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    parts = scenario.build()
    jobs = parts["jobs"]
    result = Simulation(**parts).run()
    if args.json:
        from repro.analysis.export import save_result

        save_result(result, args.json)
        print(f"result export written to {args.json}")
    print(f"strategy          : {scenario.strategy}")
    print(result.summary())
    if result.cycles_fast_forwarded:
        print(
            f"event engine      : {result.cycles_fast_forwarded} of "
            f"{result.cycles_run} cycles skipped (no job active)"
        )
    if not result.all_complete:
        print(f"jobs did not complete within {scenario.sim.max_cycles} cycles")
        return 1
    times = [
        t - job.arrival_time
        for job in jobs
        for t in result.server_completion_times(job.job_id)
    ]
    stats = summarize(times)
    completion = max(result.completion_time(job.job_id) for job in jobs)
    print(f"completion        : {format_duration(completion)}")
    if len(jobs) > 1:
        durations = summarize(
            [result.completion_time(job.job_id) - job.arrival_time for job in jobs]
        )
        print(
            "job durations     : "
            f"median {format_duration(durations.median)}, "
            f"p90 {format_duration(durations.p90)}"
        )
    print(
        "per-server times  : "
        f"median {stats.median:.1f}s  p90 {stats.p90:.1f}s  max {stats.maximum:.1f}s"
    )
    fractions = result.store.origin_fraction_by_server()
    if fractions:
        overlay = 1 - math.fsum(fractions.values()) / len(fractions)
        print(f"via overlay paths : {overlay:.0%} of deliveries")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    mesh = dict(
        num_dcs=args.num_dcs,
        servers_per_dc=args.servers_per_dc,
        wan_capacity=args.wan,
        uplink=args.nic,
    )
    generator = WorkloadGenerator(
        [f"dc{i}" for i in range(args.num_dcs)], seed=args.seed
    )
    requests = generator.generate(count=args.count)
    jobs = to_jobs(
        requests,
        Topology.full_mesh(**mesh),
        block_size=args.block_size,
        size_scale=args.scale,
    )
    if not jobs:
        print("the trace holds no multicast")
        return 1
    scenario = Scenario(
        "full_mesh",
        tuple(non_default_fields(job) for job in jobs),
        mesh,
        seed=args.seed,
    )
    Path(args.out).write_text(scenario.to_json(), encoding="utf-8")
    print(f"wrote {len(requests)} requests ({len(jobs)} multicasts) to {args.out}")
    return 0


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
        mesh = sorted(set(vars(args)) & set(_SIMULATE) - {"strategy", "seed"})
        if args.scenario is not None and mesh:
            flags = ", ".join("--" + name.replace("_", "-") for name in mesh)
            parser.error(f"--scenario says the run; drop {flags}")
        return _cmd_simulate(args)
    if args.command == "workload":
        return _cmd_workload(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
