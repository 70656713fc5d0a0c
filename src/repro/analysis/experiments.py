"""One entry point per table/figure of the paper's evaluation.

Every function builds its scenario (scaled down from the paper's testbed —
see EXPERIMENTS.md for the scaling table), runs the relevant strategies,
and returns a plain result object. The benchmarks in ``benchmarks/`` wrap
these with ``pytest-benchmark`` and print the paper-shaped rows/series;
the examples reuse the smaller ones directly.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import summarize
from repro.analysis.runner import RunSpec, make_strategy, run_many, run_simulation
from repro.baselines.ideal import ideal_server_times
from repro.core import BDSController
from repro.core.formulation import StandardLPRouter
from repro.net.background import BackgroundTraffic, delay_inflation
from repro.net.failures import FailureSchedule
from repro.net.latency import LatencyModel
from repro.net.paths import throughput_ratio_samples
from repro.net.simulator import SimConfig, SimResult, Simulation
from repro.net.topology import Topology, wan_key
from repro.overlay.job import MulticastJob
from repro.overlay.monitor import AgentMonitor
from repro.utils.rng import SeedLike, make_rng
from repro.utils.units import GB, MB, MBps
from repro.workload.generator import WorkloadGenerator


def _median(xs: Sequence[float]) -> float:
    return sorted(xs)[len(xs) // 2]


# ---------------------------------------------------------------------------
# Table 1 / Fig. 2 — workload characterization
# ---------------------------------------------------------------------------


@dataclass
class WorkloadCharacterization:
    """Outputs of the §2.1 measurement reproduction."""

    share_by_app: Dict[str, float]
    overall_share: float
    destination_fractions: List[float]
    sizes_bytes: List[float]
    num_requests: int


def exp_workload_characterization(
    num_requests: int = 1265, num_dcs: int = 30, seed: SeedLike = 1
) -> WorkloadCharacterization:
    """Reproduce Table 1 and both Fig. 2 CDFs from a sampled trace.

    Defaults match the paper's trace: 1265 transfers across 30 DCs over
    seven days.
    """
    generator = WorkloadGenerator(
        [f"dc{i}" for i in range(num_dcs)], seed=seed
    )
    requests = generator.generate(count=num_requests)
    app_bytes: Dict[str, float] = {}
    multicast_bytes: Dict[str, float] = {}
    fractions: List[float] = []
    sizes: List[float] = []
    for request in requests:
        app_bytes[request.app] = app_bytes.get(request.app, 0.0) + request.size_bytes
        if request.is_multicast:
            multicast_bytes[request.app] = (
                multicast_bytes.get(request.app, 0.0) + request.size_bytes
            )
            fractions.append(len(request.dst_dcs) / num_dcs)
            sizes.append(request.size_bytes)
    share_by_app = {
        app: multicast_bytes.get(app, 0.0) / total
        for app, total in app_bytes.items()
        if total > 0
    }
    overall = sum(multicast_bytes.values()) / sum(app_bytes.values())
    return WorkloadCharacterization(
        share_by_app=share_by_app,
        overall_share=overall,
        destination_fractions=fractions,
        sizes_bytes=sizes,
        num_requests=len(requests),
    )


# ---------------------------------------------------------------------------
# Fig. 3 — the illustrative two-path example
# ---------------------------------------------------------------------------


@dataclass
class Fig3Result:
    """Completion times (seconds) of the three Fig. 3 strategies."""

    direct_s: float
    chain_s: float
    bds_s: float


def fig3_topology() -> Topology:
    """The Fig. 3 scenario: three DCs with asymmetric WAN capacities.

    The shape of the example needs (a) a thin path from A to C, (b) a
    fatter relayed route through B, so the intelligent overlay can ship
    most blocks A→B→C while the thin direct path carries the rest.
    Capacities: A—B 3 GB/s, A—C 1.5 GB/s, B—C 3 GB/s; server NICs are
    fat (6 GB/s) so the WAN links are the bottlenecks, as in the figure.
    """
    topo = Topology()
    for name in ("A", "B", "C"):
        topo.add_dc(name)
    for dc in ("A", "B", "C"):
        for j in range(2):
            topo.add_server(f"{dc}-s{j}", dc, uplink=6 * GB, downlink=6 * GB)
    topo.add_bidirectional_link("A", "B", 3 * GB)
    topo.add_bidirectional_link("A", "C", 1.5 * GB)
    topo.add_bidirectional_link("B", "C", 3 * GB)
    return topo


def fig3_job(block_size: float = 2 * GB) -> MulticastJob:
    """36 GB from A to B and C, split into six 6 GB blocks in the paper;
    we default to 2 GB blocks for a little more scheduling freedom."""
    return MulticastJob(
        job_id="fig3",
        src_dc="A",
        dst_dcs=("B", "C"),
        total_bytes=36 * GB,
        block_size=block_size,
    )


def exp_fig3_illustrative(
    cycle_seconds: float = 1.0,
    seed: SeedLike = 3,
) -> Fig3Result:
    """Run direct vs chain vs BDS on the Fig. 3 scenario.

    The paper's example has no bandwidth reservation, so the safety
    threshold is lifted to 100 % here.
    """

    def scenario() -> Tuple[Topology, List[MulticastJob]]:
        topo = fig3_topology()
        job = fig3_job()
        job.bind(topo)
        return topo, [job]

    specs = [
        RunSpec(
            strategy=name,
            seed=seed,
            scenario=scenario,
            label=f"fig3:{name}",
            cycle_seconds=cycle_seconds,
            safety_threshold=1.0,
        )
        for name in ("direct", "chain", "bds")
    ]
    times = {
        spec.strategy: result.completion_time("fig3")
        for spec, result in zip(specs, run_many(specs))
    }
    return Fig3Result(
        direct_s=times["direct"], chain_s=times["chain"], bds_s=times["bds"]
    )


# ---------------------------------------------------------------------------
# Fig. 4 — bottleneck-disjointness in the wild
# ---------------------------------------------------------------------------


@dataclass
class Fig4Result:
    ratios: List[float]
    fraction_disjoint: float  # fraction with ratio != 1 (tolerance 1%)


def exp_fig4_disjointness(
    num_dcs: int = 12,
    servers_per_dc: int = 4,
    num_samples: int = 2000,
    seed: SeedLike = 4,
) -> Fig4Result:
    """Sample BW(A→C)/BW(A→b→C) over random triples (Fig. 4)."""
    topo = Topology.random_mesh(
        num_dcs=num_dcs,
        servers_per_dc=servers_per_dc,
        wan_capacity_range=(1 * GB, 10 * GB),
        uplink_range=(100 * MBps, 2 * GB),
        seed=seed,
    )
    ratios = throughput_ratio_samples(topo, num_samples, seed=seed)
    disjoint = sum(1 for r in ratios if abs(r - 1.0) > 0.01) / len(ratios)
    return Fig4Result(ratios=ratios, fraction_disjoint=disjoint)


# ---------------------------------------------------------------------------
# Fig. 5 — Gingko vs ideal per-server completion times
# ---------------------------------------------------------------------------


@dataclass
class Fig5Result:
    gingko_times: List[float]  # per destination server, seconds
    ideal_times: List[float]
    median_ratio: float  # median(gingko) / median(ideal)


def exp_fig5_gingko_vs_ideal(
    servers_per_dc: int = 32,
    file_bytes: float = 1 * GB,
    nic_rate: float = 2.5 * MBps,  # 20 Mbps, the paper's per-server budget
    block_size: float = 4 * MB,
    seed: SeedLike = 5,
) -> Fig5Result:
    """One source DC, two destination DCs, striped file (scaled Fig. 5)."""
    topo = Topology.full_mesh(
        num_dcs=3,
        servers_per_dc=servers_per_dc,
        wan_capacity=10 * GB,
        uplink=nic_rate,
    )
    job = MulticastJob(
        job_id="fig5",
        src_dc="dc0",
        dst_dcs=("dc1", "dc2"),
        total_bytes=file_bytes,
        block_size=block_size,
    )
    job.bind(topo)
    result = run_simulation(topo, [job], "gingko", seed=seed)
    gingko_times = result.server_completion_times("fig5")
    ideal = ideal_server_times(topo, job)
    ideal_times = list(ideal.values())
    return Fig5Result(
        gingko_times=gingko_times,
        ideal_times=ideal_times,
        median_ratio=_median(gingko_times) / max(_median(ideal_times), 1e-9),
    )


# ---------------------------------------------------------------------------
# Fig. 6 / Fig. 10 — interference and bandwidth separation
# ---------------------------------------------------------------------------


@dataclass
class InterferenceResult:
    times: List[float]
    total_utilization: List[float]  # online + bulk, as capacity fraction
    online_utilization: List[float]
    bulk_utilization: List[float]
    inflation: List[float]
    threshold: float
    violations: int  # cycles with total utilization above the threshold


def _interference_run(
    strategy_name: str,
    seed: SeedLike,
    file_bytes: float,
    cycle_seconds: float,
) -> Tuple[SimResult, Topology]:
    topo = Topology.full_mesh(
        num_dcs=2,
        servers_per_dc=6,
        wan_capacity=100 * MBps,
        uplink=40 * MBps,
    )
    job = MulticastJob(
        job_id="bulk",
        src_dc="dc0",
        dst_dcs=("dc1",),
        total_bytes=file_bytes,
        block_size=4 * MB,
    )
    job.bind(topo)
    background = BackgroundTraffic(
        base_fraction=0.35, diurnal_fraction=0.25, noise_fraction=0.05, seed=seed
    )
    strategy = make_strategy(strategy_name, seed=seed)
    sim = Simulation(
        topology=topo,
        jobs=[job],
        strategy=strategy,
        config=SimConfig(
            cycle_seconds=cycle_seconds,
            record_link_stats=True,
            links_of_interest=(wan_key("dc0", "dc1"),),
        ),
        background=background,
        seed=seed,
    )
    return sim.run(), topo


def exp_interference(
    strategy_name: str = "gingko",
    file_bytes: float = 2 * GB,
    cycle_seconds: float = 3.0,
    seed: SeedLike = 6,
) -> InterferenceResult:
    """Fig. 6 (uncoordinated bulk) / Fig. 10 (BDS) on one WAN link."""
    result, topo = _interference_run(strategy_name, seed, file_bytes, cycle_seconds)
    link = wan_key("dc0", "dc1")
    capacity = topo.links[link].capacity
    times, total, online, bulk, inflation = [], [], [], [], []
    threshold = 0.8
    violations = 0
    for stats in result.cycle_stats:
        o = stats.link_online_usage.get(link, 0.0) / capacity
        b = stats.link_bulk_usage.get(link, 0.0) / capacity
        u = o + b
        times.append(stats.time)
        online.append(o)
        bulk.append(b)
        total.append(u)
        inflation.append(delay_inflation(u, threshold))
        if u > threshold + 1e-9:
            violations += 1
    return InterferenceResult(
        times=times,
        total_utilization=total,
        online_utilization=online,
        bulk_utilization=bulk,
        inflation=inflation,
        threshold=threshold,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# Fig. 9 — BDS vs Gingko (pilot-deployment shape)
# ---------------------------------------------------------------------------


@dataclass
class Fig9Result:
    bds_server_times: List[float]
    gingko_server_times: List[float]
    median_speedup: float
    by_app: Dict[str, Dict[str, Tuple[float, float]]]  # app -> name -> (mean, std)
    timeseries: Dict[str, List[float]]  # name -> per-day mean completion


def _fig9_topology(servers_per_dc: int) -> Topology:
    return Topology.full_mesh(
        num_dcs=11,
        servers_per_dc=servers_per_dc,
        wan_capacity=500 * MBps,
        uplink=25 * MBps,
    )


def exp_fig9_bds_vs_gingko(
    file_bytes: float = 2 * GB,
    servers_per_dc: int = 10,
    block_size: float = 4 * MB,
    seed: SeedLike = 9,
    days: int = 5,
) -> Fig9Result:
    """BDS vs Gingko: one large multicast (9a), three size classes (9b),
    and a per-day timeseries (9c), all on a 1-source/10-destination mesh.

    The full panel is 2 headline runs + 12 size-class runs + ``2*days``
    timeseries runs.
    """

    def make_scenario(size: float):
        def _scenario() -> Tuple[Topology, List[MulticastJob]]:
            topo = _fig9_topology(servers_per_dc)
            job = MulticastJob(
                job_id="fig9",
                src_dc="dc0",
                dst_dcs=tuple(f"dc{i}" for i in range(1, 11)),
                total_bytes=size,
                block_size=block_size,
            )
            job.bind(topo)
            return topo, [job]

        return _scenario

    sizes = {
        "large": file_bytes,
        "medium": file_bytes / 4,
        "small": file_bytes / 16,
    }

    specs: List[RunSpec] = []
    keys: List[Tuple[str, ...]] = []

    def add(key: Tuple[str, ...], name: str, size: float, run_seed: int) -> None:
        specs.append(
            RunSpec(
                strategy=name,
                seed=run_seed,
                scenario=make_scenario(size),
                label="fig9:" + ":".join(key),
            )
        )
        keys.append(key)

    # (a) the headline CDF.
    for name in ("bds", "gingko"):
        add(("a", name), name, file_bytes, 90)
    # (b) three applications: large / medium / small data volumes.
    for app, size in sizes.items():
        for name in ("gingko", "bds"):
            for rep in range(2):
                add(("b", app, name, str(rep)), name, size, 100 + rep)
    # (c) one job per day for ``days`` days.
    for day in range(days):
        for name in ("gingko", "bds"):
            add(("c", str(day), name), name, file_bytes / 2, 200 + day)

    by_key = dict(zip(keys, run_many(specs)))

    bds_times = by_key[("a", "bds")].server_completion_times("fig9")
    gingko_times = by_key[("a", "gingko")].server_completion_times("fig9")
    speedup = _median(gingko_times) / max(_median(bds_times), 1e-9)

    by_app: Dict[str, Dict[str, Tuple[float, float]]] = {}
    for app in sizes:
        by_app[app] = {}
        for name in ("gingko", "bds"):
            samples = [
                by_key[("b", app, name, str(rep))].completion_time("fig9")
                for rep in range(2)
            ]
            stats = summarize(samples)
            by_app[app][name] = (stats.mean, stats.std)

    timeseries: Dict[str, List[float]] = {"gingko": [], "bds": []}
    for day in range(days):
        for name in ("gingko", "bds"):
            timeseries[name].append(
                by_key[("c", str(day), name)].completion_time("fig9")
            )

    return Fig9Result(
        bds_server_times=bds_times,
        gingko_server_times=gingko_times,
        median_speedup=speedup,
        by_app=by_app,
        timeseries=timeseries,
    )


# ---------------------------------------------------------------------------
# Table 3 — BDS vs Bullet vs Akamai in three setups
# ---------------------------------------------------------------------------


@dataclass
class Table3Result:
    # setup -> strategy -> completion time (seconds).
    times: Dict[str, Dict[str, float]]


TABLE3_SETUPS: Dict[str, Dict[str, float]] = {
    # Scaled-down analogues of the paper's three setups (see EXPERIMENTS.md):
    # baseline: 10 TB to 11 DCs x 100 servers at 20 MB/s
    "baseline": {
        "file_bytes": 1.2 * GB,
        "servers_per_dc": 5,
        "rate": 20 * MBps,
    },
    # large-scale: 100 TB, 1000 servers per DC
    "large-scale": {
        "file_bytes": 4.8 * GB,
        "servers_per_dc": 10,
        "rate": 20 * MBps,
    },
    # rate-limited: baseline with 5 MB/s server NICs
    "rate-limited": {
        "file_bytes": 1.2 * GB,
        "servers_per_dc": 5,
        "rate": 5 * MBps,
    },
}


def exp_table3_overlay_comparison(
    setups: Optional[Sequence[str]] = None,
    strategies: Sequence[str] = ("bullet", "akamai", "bds"),
    block_size: float = 8 * MB,
    seed: SeedLike = 11,
) -> Table3Result:
    """Completion times of BDS/Bullet/Akamai in the Table 3 setups."""

    def make_scenario(params: Dict[str, float]):
        def _scenario() -> Tuple[Topology, List[MulticastJob]]:
            topo = Topology.full_mesh(
                num_dcs=12,
                servers_per_dc=int(params["servers_per_dc"]),
                wan_capacity=1 * GB,
                uplink=params["rate"],
            )
            job = MulticastJob(
                job_id="table3",
                src_dc="dc0",
                dst_dcs=tuple(f"dc{i}" for i in range(1, 12)),
                total_bytes=params["file_bytes"],
                block_size=block_size,
            )
            job.bind(topo)
            return topo, [job]

        return _scenario

    chosen = setups or tuple(TABLE3_SETUPS)
    specs = []
    cells = []
    for setup_name in chosen:
        scenario = make_scenario(TABLE3_SETUPS[setup_name])
        for strategy in strategies:
            specs.append(
                RunSpec(
                    strategy=strategy,
                    seed=seed,
                    scenario=scenario,
                    label=f"table3:{setup_name}:{strategy}",
                )
            )
            cells.append((setup_name, strategy))
    times: Dict[str, Dict[str, float]] = {name: {} for name in chosen}
    for (setup_name, strategy), result in zip(cells, run_many(specs)):
        times[setup_name][strategy] = result.completion_time("table3")
    return Table3Result(times=times)


# ---------------------------------------------------------------------------
# Fig. 11 — scalability micro-benchmarks
# ---------------------------------------------------------------------------


@dataclass
class Fig11aResult:
    block_counts: List[int]
    runtimes_s: List[float]


def _controller_state(num_blocks: int, seed: SeedLike = 0) -> Tuple[
    Simulation, BDSController
]:
    """A mid-flight multicast state with ``num_blocks`` outstanding blocks."""
    topo = Topology.full_mesh(
        num_dcs=4, servers_per_dc=8, wan_capacity=1 * GB, uplink=50 * MBps
    )
    controller = BDSController(seed=seed)
    job = MulticastJob(
        job_id="scale",
        src_dc="dc0",
        dst_dcs=("dc1", "dc2", "dc3"),
        total_bytes=num_blocks * MB,
        block_size=1 * MB,
    )
    job.bind(topo)
    sim = Simulation(topology=topo, jobs=[job], strategy=controller, seed=seed)
    return sim, controller


def exp_fig11a_controller_runtime(
    block_counts: Sequence[int] = (1000, 5000, 10_000, 50_000, 100_000),
    seed: SeedLike = 0,
) -> Fig11aResult:
    """Controller decision time as a function of outstanding blocks.

    One scheduling + routing pass over a snapshot view, per block count.
    Blocks are counted per pending (block, destination DC) delivery to
    match the paper's "simultaneous outstanding data blocks".
    """
    runtimes: List[float] = []
    counts: List[int] = []
    for num_blocks in block_counts:
        # Each block appears on 3 destination DCs; divide to get the file.
        sim, controller = _controller_state(max(1, num_blocks // 3), seed=seed)
        view = sim.snapshot_view()
        started = _time.perf_counter()
        controller.decide(view)
        runtimes.append(_time.perf_counter() - started)
        counts.append(num_blocks)
    return Fig11aResult(block_counts=counts, runtimes_s=runtimes)


@dataclass
class Fig11bcResult:
    network_delays_s: List[float]
    feedback_delays_s: List[float]


def exp_fig11bc_delays(
    num_requests: int = 5000,
    num_dcs: int = 10,
    servers_per_dc: int = 7,
    seed: SeedLike = 0,
) -> Fig11bcResult:
    """Network-delay CDF (11b) and feedback-loop-delay CDF (11c).

    The feedback-loop samples come from a *live* instrumented run: the
    simulator attaches an :class:`AgentMonitor` and measures, per cycle,
    status collection + the controller's actual decision runtime + the
    decision push.
    """
    latency = LatencyModel(seed=seed)
    rng = make_rng(seed)
    dcs = [f"dc{i}" for i in range(num_dcs)]
    network: List[float] = []
    for _ in range(num_requests):
        a, b = rng.choice(num_dcs, size=2, replace=False)
        network.append(latency.sample_delay(dcs[int(a)], dcs[int(b)]))

    topo = Topology.full_mesh(
        num_dcs=num_dcs,
        servers_per_dc=servers_per_dc,
        wan_capacity=GB,
        uplink=4 * MBps,
    )
    job = MulticastJob(
        job_id="loop",
        src_dc="dc0",
        dst_dcs=tuple(f"dc{i}" for i in range(1, num_dcs)),
        total_bytes=1.5 * GB,
        block_size=2 * MB,
    )
    job.bind(topo)
    monitor = AgentMonitor(controller_dc="dc0", latency=latency)
    from repro.core import BDSController

    result = Simulation(
        topology=topo,
        jobs=[job],
        strategy=BDSController(seed=seed),
        config=SimConfig(max_cycles=200),
        agent_monitor=monitor,
        seed=seed,
    ).run()
    feedback = [sample.total for sample in result.feedback_samples]
    return Fig11bcResult(network_delays_s=network, feedback_delays_s=feedback)


# ---------------------------------------------------------------------------
# Fig. 12 — fault tolerance and parameter sensitivity
# ---------------------------------------------------------------------------


@dataclass
class Fig12aResult:
    blocks_per_cycle: List[int]
    agent_fail_cycle: int
    controller_fail_cycle: int
    controller_recover_cycle: int


def exp_fig12a_fault_tolerance(
    file_bytes: float = 600 * MB,
    block_size: float = 2 * MB,
    seed: SeedLike = 12,
) -> Fig12aResult:
    """The Fig. 12a failure schedule: agent at 10, controller 20–30.

    NIC rates are sized so the transfer spans the full 45-cycle window the
    figure shows (the failures land mid-transfer, as in the paper).
    """
    topo = Topology.full_mesh(
        num_dcs=3, servers_per_dc=6, wan_capacity=200 * MBps, uplink=1.2 * MBps
    )
    job = MulticastJob(
        job_id="fault",
        src_dc="dc0",
        dst_dcs=("dc1", "dc2"),
        total_bytes=file_bytes,
        block_size=block_size,
    )
    job.bind(topo)
    schedule = FailureSchedule.paper_fig12a(agent="dc1-s0")
    result = run_simulation(
        topo,
        [job],
        "bds",
        seed=seed,
        failures=schedule,
        max_cycles=45,
    )
    return Fig12aResult(
        blocks_per_cycle=result.blocks_per_cycle(),
        agent_fail_cycle=10,
        controller_fail_cycle=20,
        controller_recover_cycle=30,
    )


@dataclass
class Fig12bResult:
    # block size label -> per destination DC completion time (minutes order).
    per_dc_times: Dict[str, List[float]]


def exp_fig12b_block_size(
    file_bytes: float = 1 * GB,
    small_block: float = 2 * MB,
    large_block: float = 64 * MB,
    seed: SeedLike = 12,
) -> Fig12bResult:
    """Completion per destination DC for small vs large blocks (Fig. 12b)."""

    def make_scenario(block_size: float):
        def _scenario() -> Tuple[Topology, List[MulticastJob]]:
            topo = Topology.full_mesh(
                num_dcs=11,
                servers_per_dc=4,
                wan_capacity=500 * MBps,
                uplink=25 * MBps,
            )
            job = MulticastJob(
                job_id="blk",
                src_dc="dc0",
                dst_dcs=tuple(f"dc{i}" for i in range(1, 11)),
                total_bytes=file_bytes,
                block_size=block_size,
            )
            job.bind(topo)
            return topo, [job]

        return _scenario

    labelled = (("2M/blk", small_block), ("64M/blk", large_block))
    specs = [
        RunSpec(
            strategy="bds",
            seed=seed,
            scenario=make_scenario(block_size),
            label=f"fig12b:{label}",
        )
        for label, block_size in labelled
    ]
    per_dc: Dict[str, List[float]] = {}
    for (label, _), result in zip(labelled, run_many(specs)):
        per_dc[label] = [
            result.dc_completion[("blk", f"dc{i}")] for i in range(1, 11)
        ]
    return Fig12bResult(per_dc_times=per_dc)


@dataclass
class Fig12cResult:
    cycle_lengths_s: List[float]
    completion_times_s: List[float]


def exp_fig12c_cycle_length(
    cycle_lengths: Sequence[float] = (0.5, 1, 2, 3, 5, 10, 20, 40, 60, 95),
    file_bytes: float = 1 * GB,
    seed: SeedLike = 12,
) -> Fig12cResult:
    """Completion time vs update-cycle length (Fig. 12c).

    Longer cycles adapt more slowly and pay more per-cycle quantization;
    very short cycles pay the per-cycle overheads the paper lists —
    status collection + decision push (``control_overhead_seconds``) and
    TCP re-establishment for flows that change endpoints
    (``flow_setup_seconds``) — both modeled inside the simulator.
    """

    def scenario() -> Tuple[Topology, List[MulticastJob]]:
        topo = Topology.full_mesh(
            num_dcs=6, servers_per_dc=4, wan_capacity=500 * MBps, uplink=25 * MBps
        )
        job = MulticastJob(
            job_id="cyc",
            src_dc="dc0",
            dst_dcs=tuple(f"dc{i}" for i in range(1, 6)),
            total_bytes=file_bytes,
            block_size=8 * MB,
        )
        job.bind(topo)
        return topo, [job]

    specs = [
        RunSpec(
            strategy="bds",
            seed=seed,
            scenario=scenario,
            label=f"fig12c:dt={dt}",
            cycle_seconds=dt,
            control_overhead_seconds=min(0.3, dt * 0.55),
            flow_setup_seconds=0.2,
        )
        for dt in cycle_lengths
    ]
    times = [result.completion_time("cyc") for result in run_many(specs)]
    return Fig12cResult(
        cycle_lengths_s=list(cycle_lengths), completion_times_s=times
    )


# ---------------------------------------------------------------------------
# Fig. 13 — in-depth analysis
# ---------------------------------------------------------------------------


@dataclass
class Fig13aResult:
    block_counts: List[int]
    bds_runtimes_s: List[float]
    standard_lp_runtimes_s: List[float]


def exp_fig13a_runtime_comparison(
    block_counts: Sequence[int] = (200, 400, 800, 1600, 3200),
    seed: SeedLike = 13,
) -> Fig13aResult:
    """Decision runtime: decoupled BDS vs the joint standard LP (Fig. 13a)."""
    bds_times: List[float] = []
    lp_times: List[float] = []
    for count in block_counts:
        sim, controller = _controller_state(max(1, count // 3), seed=seed)
        view = sim.snapshot_view()
        selections = controller.scheduler.select(view)

        started = _time.perf_counter()
        controller.router.route(view, selections)
        bds_times.append(_time.perf_counter() - started)

        lp_router = StandardLPRouter()
        started = _time.perf_counter()
        lp_router.route(view, selections)
        lp_times.append(_time.perf_counter() - started)
    return Fig13aResult(
        block_counts=list(block_counts),
        bds_runtimes_s=bds_times,
        standard_lp_runtimes_s=lp_times,
    )


@dataclass
class Fig13bResult:
    block_counts: List[int]
    bds_times_s: List[float]
    standard_lp_times_s: List[float]


def exp_fig13b_near_optimality(
    block_counts: Sequence[int] = (50, 100, 200, 400),
    rate: float = 20 * MBps,
    seed: SeedLike = 13,
) -> Fig13bResult:
    """Completion time of BDS vs the standard LP at small scale (Fig. 13b).

    Paper setup: 2 DCs, 4 servers, 20 MB/s server rates, varying blocks.
    """

    def make_scenario(count: int):
        def _scenario() -> Tuple[Topology, List[MulticastJob]]:
            topo = Topology.full_mesh(
                num_dcs=2, servers_per_dc=2, wan_capacity=1 * GB, uplink=rate
            )
            job = MulticastJob(
                job_id="opt",
                src_dc="dc0",
                dst_dcs=("dc1",),
                total_bytes=count * 2 * MB,
                block_size=2 * MB,
            )
            job.bind(topo)
            return topo, [job]

        return _scenario

    pairs = [
        (count, strategy_name)
        for count in block_counts
        for strategy_name in ("bds", "bds-standard-lp")
    ]
    specs = [
        RunSpec(
            strategy=strategy_name,
            seed=seed,
            scenario=make_scenario(count),
            label=f"fig13b:{strategy_name}:blocks={count}",
            cycle_seconds=3.0,
        )
        for count, strategy_name in pairs
    ]
    bds_times: List[float] = []
    lp_times: List[float] = []
    for (_, strategy_name), result in zip(pairs, run_many(specs)):
        bucket = bds_times if strategy_name == "bds" else lp_times
        bucket.append(result.completion_time("opt"))
    return Fig13bResult(
        block_counts=list(block_counts),
        bds_times_s=bds_times,
        standard_lp_times_s=lp_times,
    )


@dataclass
class Fig13cResult:
    origin_fractions: List[float]  # per destination server
    fraction_servers_below_20pct: float


def exp_fig13c_origin_fraction(
    file_bytes: float = 2 * GB,
    servers_per_dc: int = 8,
    seed: SeedLike = 13,
) -> Fig13cResult:
    """Fraction of blocks each server fetched from the origin DC (Fig. 13c)."""
    topo = Topology.full_mesh(
        num_dcs=10,
        servers_per_dc=servers_per_dc,
        wan_capacity=500 * MBps,
        uplink=10 * MBps,
    )
    job = MulticastJob(
        job_id="origin",
        src_dc="dc0",
        dst_dcs=tuple(f"dc{i}" for i in range(1, 10)),
        total_bytes=file_bytes,
        block_size=2 * MB,
    )
    job.bind(topo)
    result = run_simulation(topo, [job], "bds", seed=seed)
    fractions = list(result.store.origin_fraction_by_server().values())
    below = sum(1 for f in fractions if f <= 0.2) / max(len(fractions), 1)
    return Fig13cResult(
        origin_fractions=fractions, fraction_servers_below_20pct=below
    )
