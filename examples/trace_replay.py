#!/usr/bin/env python3
"""Scenario: replaying a week of synthetic Baidu-like multicast traffic.

Generates a trace matching the paper's published workload distributions
(Table 1 application mix, Fig. 2a destination fan-out, Fig. 2b sizes),
saves its multicasts as a scenario file (what ``python -m repro workload``
writes and ``python -m repro simulate --scenario`` runs), replays that file
through the simulator with BDS in chronological order, and reports
fleet-level statistics — the closest offline analogue of the paper's
trace-driven evaluation methodology (§6.1.1).

Sizes are scaled down by 10^-4 so the replay finishes in seconds; relative
job sizes and the arrival process are preserved.

Run:  python examples/trace_replay.py
"""

import tempfile
from pathlib import Path

from repro import Simulation, Topology, WorkloadGenerator
from repro.analysis.metrics import summarize
from repro.analysis.runner import Scenario, non_default_fields
from repro.net.simulator import SimConfig
from repro.utils.units import MB, MBps, format_bytes, format_duration
from repro.workload.generator import to_jobs

SIZE_SCALE = 1e-4
NUM_REQUESTS = 30
MESH = dict(num_dcs=10, servers_per_dc=4, wan_capacity=500 * MBps, uplink=25 * MBps)


def main() -> None:
    topology = Topology.full_mesh(**MESH)

    generator = WorkloadGenerator(
        topology.dc_names(), seed=2024, mean_interarrival_s=60.0
    )
    requests = generator.generate(count=NUM_REQUESTS)
    multicasts = [r for r in requests if r.is_multicast]
    total = sum(r.size_bytes for r in multicasts)
    print(
        f"generated {len(requests)} requests "
        f"({len(multicasts)} multicasts, {format_bytes(total)} of bulk data)"
    )

    jobs = to_jobs(requests, topology, block_size=4 * MB, size_scale=SIZE_SCALE)
    scenario = Scenario(
        "full_mesh",
        tuple(non_default_fields(job) for job in jobs),
        MESH,
        sim=SimConfig(max_cycles=20000),
        seed=2024,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "week.json"
        path.write_text(scenario.to_json())
        scenario = Scenario.from_json(path.read_text())

    print(f"replaying {len(jobs)} multicast jobs (sizes scaled {SIZE_SCALE:g}x)\n")
    parts = scenario.build()
    jobs = parts["jobs"]
    result = Simulation(**parts).run()

    completed = len(result.job_completion)
    print(f"jobs completed : {completed}/{len(jobs)}")
    durations = [
        result.job_completion[j.job_id] - j.arrival_time
        for j in jobs
        if j.job_id in result.job_completion
    ]
    stats = summarize(durations)
    print(f"job durations  : median {format_duration(stats.median)}, "
          f"p90 {format_duration(stats.p90)}, max {format_duration(stats.maximum)}")
    print(f"simulated time : {format_duration(result.sim_time)}")
    print(f"wall time      : {result.wall_time:.1f}s")

    by_fanout = {}
    for job in jobs:
        if job.job_id in result.job_completion:
            by_fanout.setdefault(len(job.dst_dcs), []).append(
                result.job_completion[job.job_id] - job.arrival_time
            )
    print("\nduration by destination fan-out:")
    for fanout in sorted(by_fanout):
        stats = summarize(by_fanout[fanout])
        print(
            f"  {fanout:2d} DCs: {len(by_fanout[fanout]):2d} jobs, "
            f"median {format_duration(stats.median)}"
        )


if __name__ == "__main__":
    main()
