"""§6 of the paper: headline results, bandwidth separation, micro-benchmarks."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.experiments.base import (
    Experiment,
    cold_view,
    ms,
    timed,
    upper_median,
    wall,
)
from repro.analysis.experiments.motivation import interference
from repro.analysis.metrics import cdf_at, percentile, summarize
from repro.analysis.plots import ascii_bars, ascii_cdf, ascii_xy
from repro.analysis.reporting import (
    format_cdf_rows,
    format_series,
    format_table,
    sparkline,
)
from repro.analysis.runner import Scenario, run_many
from repro.core import BDSController
from repro.core.formulation import StandardLPRouter
from repro.net.failures import FailureSchedule
from repro.net.latency import LatencyModel
from repro.net.simulator import SimConfig, Simulation
from repro.net.view import ClusterView
from repro.overlay.monitor import AgentMonitor
from repro.utils.rng import make_rng
from repro.utils.units import GB, MB, MBps

# ---------------------------------------------------------------------------
# §6.1 — headline results
# ---------------------------------------------------------------------------


@dataclass
class Fig9Result:
    bds_server_times: List[float]
    gingko_server_times: List[float]
    median_speedup: float
    by_app: Dict[str, Dict[str, Tuple[float, float]]]  # app -> name -> (mean, std)
    timeseries: Dict[str, List[float]]  # name -> per-day completion


def exp_fig9_bds_vs_gingko(
    file_bytes: float = 2 * GB, servers_per_dc: int = 10, days: int = 5, seed: int = 9
) -> Fig9Result:
    """BDS vs Gingko: one large multicast (9a), three size classes (9b),
    and a per-day timeseries (9c), all on a 1-source/10-destination mesh
    (``tests/test_baseline_pins.py`` pins a smaller instance).

    The panel is 2 headline runs + 12 size-class runs + ``2*days``
    timeseries runs, seeded ``10*seed`` + 0 / 10 + repetition / 110 + day.
    """
    sizes = {"large": file_bytes, "medium": file_bytes / 4, "small": file_bytes / 16}
    specs: Dict[Tuple[str, ...], Scenario] = {}

    def add(key: Tuple[str, ...], name: str, size: float, offset: int) -> None:
        specs[key] = Scenario.mesh(
            11, servers_per_dc, 500 * MBps, 25 * MBps, size, 4 * MB, "fig9",
            strategy=name, seed=10 * seed + offset,
        )

    for name in ("bds", "gingko"):
        add(("a", name), name, file_bytes, 0)
    for app, size in sizes.items():
        for name in ("gingko", "bds"):
            for rep in range(2):
                add(("b", app, name, str(rep)), name, size, 10 + rep)
    for day in range(days):
        for name in ("gingko", "bds"):
            add(("c", str(day), name), name, file_bytes / 2, 110 + day)
    run = dict(zip(specs, run_many(list(specs.values()))))

    bds_times = run["a", "bds"].server_completion_times("fig9")
    gingko_times = run["a", "gingko"].server_completion_times("fig9")
    by_app: Dict[str, Dict[str, Tuple[float, float]]] = {}
    for app in sizes:
        by_app[app] = {}
        for name in ("gingko", "bds"):
            stats = summarize(
                [
                    run["b", app, name, str(rep)].completion_time("fig9")
                    for rep in range(2)
                ]
            )
            by_app[app][name] = (stats.mean, stats.std)
    return Fig9Result(
        bds_server_times=bds_times,
        gingko_server_times=gingko_times,
        median_speedup=upper_median(gingko_times) / max(upper_median(bds_times), 1e-9),
        by_app=by_app,
        timeseries={
            name: [run["c", str(d), name].completion_time("fig9") for d in range(days)]
            for name in ("gingko", "bds")
        },
    )


class Fig9(Experiment):
    id = "fig9"
    title = "Fig. 9: BDS vs Gingko (pilot deployment)"
    paper = (
        "(a) median per-server completion 35 min vs ~190 min (≈5×); (b) BDS "
        "wins in every size class, more on larger data, with lower variance; "
        "(c) a consistent ≈4× across days"
    )
    scaling = (
        "70 TB → 2 GB, the 10 destination DCs kept, 10 servers/DC at 25 MB/s; "
        "(b) is 2 GB / 512 MB / 128 MB, (c) five daily 1 GB jobs."
    )
    seed = 9

    def measure(self, seed):
        return exp_fig9_bds_vs_gingko(seed=seed)

    @staticmethod
    def _by_app(r):
        for app in ("large", "medium", "small"):
            yield (app, *r.by_app[app]["gingko"], *r.by_app[app]["bds"])

    def report(self, r):
        app_rows = [
            [app, f"{gm:.0f} ± {gs:.0f}", f"{bm:.0f} ± {bs:.0f}", f"{gm / bm:.1f}x"]
            for app, gm, gs, bm, bs in self._by_app(r)
        ]
        day_rows = [
            [day, f"{g:.0f}", f"{b:.0f}", f"{g / b:.1f}x"]
            for day, (g, b) in enumerate(
                zip(r.timeseries["gingko"], r.timeseries["bds"])
            )
        ]
        return "\n".join(
            [
                "[Fig. 9a] Per-server completion time CDF (seconds)",
                "-- Gingko --",
                format_cdf_rows(r.gingko_server_times, unit="s"),
                "-- BDS --",
                format_cdf_rows(r.bds_server_times, unit="s"),
                f"  median speedup: {r.median_speedup:.1f}x (paper ~5x)",
                ascii_cdf(
                    {"gingko": r.gingko_server_times, "bds": r.bds_server_times},
                    x_label="completion (s)",
                ),
                "\n[Fig. 9b] Mean completion by application size (seconds)",
                format_table(["app", "gingko", "bds", "speedup"], app_rows),
                "\n[Fig. 9c] Completion time per day (seconds)",
                format_table(["day", "gingko", "bds", "speedup"], day_rows),
            ]
        )

    def row(self, r):
        days = [g / b for g, b in zip(r.timeseries["gingko"], r.timeseries["bds"])]
        by_app = " / ".join(f"{gm / bm:.1f}×" for _, gm, _, bm, _ in self._by_app(r))
        return (
            f"(a) median {upper_median(r.bds_server_times):.0f} s vs "
            f"{upper_median(r.gingko_server_times):.0f} s ({r.median_speedup:.1f}×); "
            f"(b) {by_app} for large / medium / small, σ(BDS) ≤ "
            f"{max(bs for *_, bs in self._by_app(r)):.0f} s; "
            f"(c) {min(days):.1f}–{max(days):.1f}×"
        )

    def check(self, r):
        assert r.median_speedup > 1.5
        for app in ("large", "medium"):
            assert r.by_app[app]["bds"][0] < r.by_app[app]["gingko"][0]
        for g, b in zip(r.timeseries["gingko"], r.timeseries["bds"]):
            assert b < g


@dataclass
class Table3Result:
    times: Dict[str, Dict[str, float]]  # setup -> strategy -> completion (s)


#: setup -> (file bytes, servers per DC, NIC rate).
TABLE3_SETUPS = {
    "baseline": (1.2 * GB, 5, 20 * MBps),
    "large-scale": (4.8 * GB, 10, 20 * MBps),
    "rate-limited": (1.2 * GB, 5, 5 * MBps),
}
#: The paper's completion times, minutes.
_TABLE3_PAPER = {
    "baseline": {"bullet": 28.0, "akamai": 25.0, "bds": 9.41},
    "large-scale": {"bullet": 82.0, "akamai": 87.0, "bds": 20.33},
    "rate-limited": {"bullet": 171.0, "akamai": 138.0, "bds": 38.25},
}
_TABLE3_ARMS = ("bullet", "akamai", "bds")


def exp_table3_overlay_comparison(
    setups: Optional[Sequence[str]] = None, seed: int = 11
) -> Table3Result:
    """Completion times of Bullet / Akamai / BDS in the Table 3 setups
    (all three unless ``setups`` names some)."""
    cells = [(s, arm) for s in setups or TABLE3_SETUPS for arm in _TABLE3_ARMS]
    scenarios = []
    for setup, arm in cells:
        size, servers, nic = TABLE3_SETUPS[setup]
        scenarios.append(
            Scenario.mesh(
                12, servers, 1 * GB, nic, size, 8 * MB, "table3",
                strategy=arm, seed=seed,
            )
        )
    runs = run_many(scenarios)
    times: Dict[str, Dict[str, float]] = {}
    for (setup, arm), run in zip(cells, runs):
        times.setdefault(setup, {})[arm] = run.completion_time("table3")
    return Table3Result(times=times)


def _speedup(times: Dict[str, float]) -> float:
    return min(times["bullet"], times["akamai"]) / times["bds"]


class Table3(Experiment):
    id = "table3"
    title = "Table 3: BDS vs Bullet vs Akamai (baseline / large-scale / rate-limited)"
    paper = (
        "Bullet / Akamai / BDS: 28 / 25 / 9.41 min (2.7×); 82 / 87 / 20.33 min "
        "(4.0×); 171 / 138 / 38.25 min (3.6×)"
    )
    scaling = (
        "10 TB → 11 DCs × 100 servers at 20 MB/s, 100 TB × 1000 servers and the "
        "5 MB/s variant become a 12-DC mesh with 1.2 / 4.8 / 1.2 GB files and "
        "5 / 10 / 5 servers per DC, keeping the relative scale between setups."
    )
    seed = 11

    def measure(self, seed):
        return exp_table3_overlay_comparison(seed=seed)

    def report(self, r):
        rows = [
            [setup]
            + [f"{measured[arm]:.0f}s" for arm in _TABLE3_ARMS]
            + [f"{_speedup(measured):.1f}x", f"{_speedup(_TABLE3_PAPER[setup]):.1f}x"]
            for setup, measured in r.times.items()
        ]
        bars = "\n".join(
            f"-- {setup} --\n" + ascii_bars(measured, unit="s")
            for setup, measured in r.times.items()
        )
        return (
            "[Table 3] Completion time by overlay scheme\n"
            + format_table(
                ["setup", *_TABLE3_ARMS, "speedup", "paper speedup"], rows
            )
            + "\n"
            + bars
        )

    def row(self, r):
        return "; ".join(
            " / ".join(f"{measured[arm]:.0f}" for arm in _TABLE3_ARMS)
            + f" s ({_speedup(measured):.1f}×)"
            for measured in r.times.values()
        )

    def check(self, r):
        for measured in r.times.values():
            assert measured["bds"] < measured["bullet"]
            assert measured["bds"] < measured["akamai"]
            assert _speedup(measured) > 2.0  # paper: ~3x and above


# ---------------------------------------------------------------------------
# §6.2 — bandwidth separation
# ---------------------------------------------------------------------------


class Fig10(Experiment):
    id = "fig10"
    title = "Fig. 10: BDS under the bandwidth cap"
    paper = "bulk usage always below the configured 10 GB/s limit"
    scaling = (
        "Fig. 6's link and online traffic with BDS in place of Gingko; the "
        "limit is the dynamic residual budget, threshold × capacity − online."
    )
    seed = 6

    def measure(self, seed):
        return interference("bds", seed)

    def report(self, r):
        rows = [
            ["cycles above threshold", str(r.violations), "0"],
            ["peak total utilization", f"{max(r.total):.0%}", "< 80%"],
            ["peak delay inflation", f"{max(r.inflation):.1f}x", "1x"],
        ]
        return (
            "[Fig. 10] BDS bulk usage under the dynamic cap\n"
            + format_table(["metric", "measured", "paper"], rows)
            + "\n  bulk usage over time: "
            + sparkline(r.bulk)
            + "\n  total (bulk+online) : "
            + sparkline(r.total)
        )

    def row(self, r):
        return (
            f"{r.violations} of {len(r.total)} cycles above the dynamic budget; "
            f"peak total utilization {max(r.total):.0%}, no delay inflation "
            f"({max(r.inflation):.1f}×)"
        )

    def check(self, r):
        assert r.violations == 0
        assert max(r.total) <= r.threshold + 1e-9


# ---------------------------------------------------------------------------
# §6.3 — micro-benchmarks
# ---------------------------------------------------------------------------


def _outstanding(num_blocks: int, seed: int) -> Tuple[ClusterView, BDSController]:
    """A cold multicast with ``num_blocks`` pending (block, destination DC)
    deliveries — the paper's "simultaneous outstanding data blocks"."""
    # Each block is pending at 3 destination DCs; divide to get the file.
    size = max(1, num_blocks // 3) * MB
    return cold_view(
        Scenario.mesh(4, 8, 1 * GB, 50 * MBps, size, 1 * MB, "scale", seed=seed)
    )


class Fig11a(Experiment):
    id = "fig11a"
    title = "Fig. 11a: controller running time vs outstanding blocks"
    paper = "≤ 800 ms at 10⁶ blocks, 300 ms at 3·10⁵ (Baidu's peak)"
    scaling = (
        "one cold schedule + route pass per block count, 10³…10⁵ blocks; the "
        "10⁶ and 10⁷ points are `benchmarks/bench_shard_scaling.py`'s."
    )
    counts = (1000, 5000, 10_000, 50_000, 100_000)

    def measure(self, seed):
        runtimes = []
        for count in self.counts:
            view, controller = _outstanding(count, seed)
            runtimes.append(timed(controller.decide, view)[0])
        return runtimes

    def report(self, r):
        return (
            "[Fig. 11a] Controller running time vs outstanding blocks\n"
            + format_series(
                self.counts, [round(t * 1000, 1) for t in r], "# blocks", "runtime (ms)"
            )
            + "\n"
            + ascii_xy(
                [float(c) for c in self.counts],
                [t * 1000 for t in r],
                x_label="# blocks",
                y_label="runtime (ms)",
                log_x=True,
            )
        )

    def row(self, r):
        growth = wall(f"{r[-1] / r[0]:.0f}×")
        return (
            f"{wall(ms(r[0]))} at 10³ → {wall(ms(r[-1]))} at 10⁵ blocks: {growth} "
            "the time for 100× the blocks"
        )

    def check(self, r):
        # Near-linear growth (the paper's curve is ~linear in block count):
        # 100x blocks may cost ~100x time plus a log factor, never ~100^2.
        assert r[0] < r[-1] < r[0] * 3 * self.counts[-1] / self.counts[0]


class Fig11bc(Experiment):
    id = "fig11bc"
    title = "Fig. 11b/11c: control-plane network delay and feedback loop"
    paper = "(b) mean ≈ 25 ms, 90 % < 50 ms; (c) > 80 % of loops under 200 ms"
    scaling = (
        "(b) 5000 sampled inter-DC control RTTs over 10 DCs; (c) a live "
        "instrumented BDS run, 1.5 GB to 9 DCs × 7 servers: status collection "
        "+ the measured decide wall + decision push, per cycle."
    )

    def measure(self, seed):
        latency = LatencyModel(seed=seed)
        rng = make_rng(seed)
        network = []
        for _ in range(5000):
            a, b = rng.choice(10, size=2, replace=False)
            network.append(latency.sample_delay(f"dc{int(a)}", f"dc{int(b)}"))
        result = Simulation(
            **Scenario.mesh(
                10, 7, GB, 4 * MBps, 1.5 * GB, 2 * MB, "loop",
                sim=SimConfig(max_cycles=200), seed=seed,
            ).build(),
            agent_monitor=AgentMonitor(controller_dc="dc0", latency=latency),
        ).run()
        return SimpleNamespace(
            network=network, loop=[s.total for s in result.feedback_samples]
        )

    def report(self, r):
        mean_ms = statistics.mean(r.network) * 1000
        rows = [
            ["network delay mean", f"{mean_ms:.1f}ms", "~25ms"],
            ["network delay < 50ms", f"{cdf_at(r.network, 0.050):.0%}", "90%"],
            ["feedback loop p80", f"{percentile(r.loop, 80) * 1000:.0f}ms", "<200ms"],
        ]
        return "[Fig. 11b/11c] Control-plane delay CDFs\n" + format_table(
            ["metric", "measured", "paper"], rows
        )

    def row(self, r):
        return (
            f"(b) mean {ms(statistics.mean(r.network))}, "
            f"{cdf_at(r.network, 0.050):.0%} < 50 ms; (c) p80 "
            + wall(f"{percentile(r.loop, 80) * 1000:.0f} ms")
        )

    def check(self, r):
        assert 0.010 < statistics.mean(r.network) < 0.060
        assert cdf_at(r.network, 0.050) > 0.75
        assert percentile(r.loop, 80) < 0.3


class Fig12a(Experiment):
    id = "fig12a"
    title = "Fig. 12a: blocks per cycle under failures"
    paper = (
        "an agent failure at cycle 10 dents one cycle; a controller outage "
        "(cycles 20–30) degrades gracefully to the decentralized fallback and "
        "recovers at once"
    )
    scaling = (
        "600 MB in 2 MB blocks to 2 DCs × 6 servers, NICs sized (1.2 MB/s) so the "
        "transfer spans the figure's 45-cycle window and the failures land "
        "mid-transfer."
    )
    seed = 12

    def measure(self, seed):
        series = Scenario.mesh(
            3, 6, 200 * MBps, 1.2 * MBps, 600 * MB, 2 * MB, "fault",
            sim=SimConfig(max_cycles=45),
            failures=tuple(FailureSchedule.paper_fig12a(agent="dc1-s0").events),
            seed=seed,
        ).run().blocks_per_cycle()
        return SimpleNamespace(
            series=series,
            normal=statistics.mean(series[3:10]),
            fallback=statistics.mean(series[21:29]),
            recovered=series[31] if len(series) > 31 else 0,
        )

    def report(self, r):
        rows = [
            ["normal blocks/cycle (3-9)", f"{r.normal:.1f}"],
            ["agent-failure cycle 10", f"{r.series[10]}"],
            ["fallback blocks/cycle (21-29)", f"{r.fallback:.1f}"],
            ["post-recovery cycle 31", f"{r.recovered}"],
        ]
        return (
            "[Fig. 12a] Downloaded blocks per cycle under failures\n"
            + format_table(["phase", "blocks"], rows)
            + "\n  series: "
            + sparkline([float(v) for v in r.series])
            + f"\n  (agent fails @10, controller down @20-30; {len(r.series)} cycles)"
        )

    def row(self, r):
        return (
            f"{r.normal:.1f} blocks/cycle before, {r.series[10]} in the "
            f"agent-failure cycle, {r.fallback:.1f} during the outage, complete "
            f"after {len(r.series)} cycles"
        )

    def check(self, r):
        assert r.fallback > 0  # graceful degradation, not a stall
        assert r.normal > r.fallback  # centralized control beats the fallback


class Fig12b(Experiment):
    id = "fig12b"
    title = "Fig. 12b: completion per destination DC, 2 MB vs 64 MB blocks"
    paper = "2 MB blocks finish 1.5–2× faster"
    scaling = "1 GB to 10 DCs × 4 servers at 25 MB/s."
    seed = 12
    blocks = {"2M/blk": 2 * MB, "64M/blk": 64 * MB}

    def measure(self, seed):
        runs = run_many(
            [
                Scenario.mesh(
                    11, 4, 500 * MBps, 25 * MBps, 1 * GB, size, "blk", seed=seed
                )
                for size in self.blocks.values()
            ]
        )
        return [
            [run.dc_completion["blk", f"dc{i}"] for run in runs] for i in range(1, 11)
        ]

    def report(self, r):
        rows = [
            [f"dc{i + 1}", f"{s:.0f}s", f"{lg:.0f}s", f"{lg / s:.2f}x"]
            for i, (s, lg) in enumerate(r)
        ]
        return (
            "[Fig. 12b] Completion time per destination DC by block size\n"
            + format_table(["DC", *self.blocks, "ratio"], rows)
            + "\n  paper: 2 MB blocks are 1.5-2x faster"
        )

    def row(self, r):
        ratios = [lg / s for s, lg in r]
        return f"{min(ratios):.2f}–{max(ratios):.2f}× faster per DC"

    def check(self, r):
        assert math.fsum(lg for _, lg in r) > math.fsum(s for s, _ in r)


class Fig12c(Experiment):
    id = "fig12c"
    title = "Fig. 12c: completion time vs update-cycle length"
    paper = "shorter cycles are better down to ≈ 3 s; below, overheads dominate"
    scaling = (
        "1 GB to 5 DCs × 4 servers at 25 MB/s. The per-cycle overheads the "
        "paper lists are modeled inside the simulator, not bolted onto the "
        "results: status collection + decision push "
        "(`SimConfig.control_overhead_seconds`, min(0.3 s, 0.55 ΔT)) and TCP "
        "re-establishment for flows that change endpoints "
        "(`flow_setup_seconds`, 0.2 s)."
    )
    seed = 12
    cycles = (0.5, 1, 2, 3, 5, 10, 20, 40, 60, 95)

    def measure(self, seed):
        specs = [
            Scenario.mesh(
                6, 4, 500 * MBps, 25 * MBps, 1 * GB, 8 * MB, "cyc",
                seed=seed,
                sim=SimConfig(
                    cycle_seconds=dt,
                    control_overhead_seconds=min(0.3, dt * 0.55),
                    flow_setup_seconds=0.2,
                ),
            )
            for dt in self.cycles
        ]
        return [run.completion_time("cyc") for run in run_many(specs)]

    def report(self, r):
        return (
            "[Fig. 12c] Completion time vs update-cycle length\n"
            + format_series(
                self.cycles, [round(t, 1) for t in r], "cycle (s)", "completion (s)"
            )
            + "\n"
            + ascii_xy(
                self.cycles, r, x_label="cycle length (s)", y_label="completion (s)"
            )
            + "\n  paper: knee around 3 s; very long cycles hurt"
        )

    def row(self, r):
        by_len = dict(zip(self.cycles, r))
        return (
            f"0.5 s → {by_len[0.5]:.0f} s, 1 s → {by_len[1]:.0f} s, 3 s → "
            f"{by_len[3]:.0f} s, 10 s → {by_len[10]:.0f} s, 95 s → {by_len[95]:.0f} s"
        )

    def check(self, r):
        by_len = dict(zip(self.cycles, r))
        # Long cycles are clearly worse than the 3 s default and than 1 s.
        assert by_len[95] > by_len[3] and by_len[95] > by_len[1]


class Fig13a(Experiment):
    id = "fig13a"
    title = "Fig. 13a: decision runtime, decoupled BDS vs the standard LP"
    paper = "BDS ≤ 25 ms and flat; the joint LP reaches seconds by 4000 blocks"
    scaling = (
        "one routing pass over the same selection, 200…3200 outstanding blocks. "
        "The standard LP is the paper's §4.1 joint (w, f) formulation per cycle "
        "(relaxed w, no merging) solved with scipy/HiGHS — a stronger baseline "
        "than the paper's MATLAB `linprog`."
    )
    seed = 13
    counts = (200, 400, 800, 1600, 3200)

    def measure(self, seed):
        bds, joint = [], []
        for count in self.counts:
            view, controller = _outstanding(count, seed)
            selections = controller.scheduler.select(view)
            bds.append(timed(controller.router.route, view, selections)[0])
            # Best of three: tier-1 asserts this curve's growth on shared machines.
            joint.append(
                min(timed(StandardLPRouter().route, view, selections)[0] for _ in range(3))
            )
        return SimpleNamespace(bds=bds, joint=joint)

    def report(self, r):
        rows = [
            [n, f"{b * 1000:.1f}ms", f"{s * 1000:.1f}ms", f"{s / max(b, 1e-9):.0f}x"]
            for n, b, s in zip(self.counts, r.bds, r.joint)
        ]
        return (
            "[Fig. 13a] Decision runtime: BDS (decoupled) vs standard LP\n"
            + format_table(["# blocks", "bds", "standard LP", "gap"], rows)
        )

    def row(self, r):
        gaps = [s / b for b, s in zip(r.bds, r.joint)]
        return (
            f"BDS {wall(f'{ms(min(r.bds))}–{ms(max(r.bds))}')}; joint LP "
            f"{wall(f'{ms(r.joint[0])} → {ms(r.joint[-1])}')}, "
            f"{wall(f'{min(gaps):.0f}–{max(gaps):.0f}×')} slower"
        )

    def check(self, r):
        # The joint LP is consistently several times slower at every size, and
        # its absolute cost grows steeply with block count (the paper's point).
        for bds_t, lp_t in zip(r.bds, r.joint):
            assert lp_t > bds_t * 2
        assert r.joint[-1] > r.bds[-1] * 5
        assert r.joint[-1] / r.joint[0] > 5


class Fig13b(Experiment):
    id = "fig13b"
    title = "Fig. 13b: completion time, BDS vs the standard LP"
    paper = "the two curves coincide (near-optimality)"
    scaling = "the paper's setup: 2 DCs, 4 servers, 20 MB/s; 50 / 100 / 200 blocks."
    seed = 13
    counts = (50, 100, 200)

    def measure(self, seed):
        runs = run_many(
            [
                Scenario.mesh(
                    2, 2, 1 * GB, 20 * MBps, count * 2 * MB, 2 * MB, "opt",
                    strategy=name, seed=seed,
                )
                for count in self.counts
                for name in ("bds", "bds-standard-lp")
            ]
        )
        times = [run.completion_time("opt") for run in runs]
        return list(zip(times[0::2], times[1::2]))

    def report(self, r):
        rows = [
            [n, f"{b:.0f}s", f"{s:.0f}s", f"{b / s:.2f}"]
            for n, (b, s) in zip(self.counts, r)
        ]
        return (
            "[Fig. 13b] Completion time: BDS vs standard LP (2 DCs, 4 servers)\n"
            + format_table(["# blocks", "bds", "standard LP", "ratio"], rows)
            + "\n  paper: the two curves coincide (near-optimality)"
        )

    def row(self, r):
        ratios = [b / s for b, s in r]
        return (
            " / ".join(f"{b:.0f}" for b, _ in r)
            + " s vs "
            + " / ".join(f"{s:.0f}" for _, s in r)
            + f" s (ratio {min(ratios):.2f}–{max(ratios):.2f})"
        )

    def check(self, r):
        for b, s in r:
            assert abs(b - s) <= 3.0 + 1e-9  # within one cycle of the LP plan


class Fig13c(Experiment):
    id = "fig13c"
    title = "Fig. 13c: fraction of blocks each server fetched from the origin DC"
    paper = "~90 % of servers fetch ≤ 20 % from the origin"
    scaling = "2 GB in 2 MB blocks to 9 DCs × 8 servers at 10 MB/s."
    seed = 13

    def measure(self, seed):
        result = Scenario.mesh(
            10, 8, 500 * MBps, 10 * MBps, 2 * GB, 2 * MB, "origin", seed=seed
        ).run()
        return list(result.store.origin_fraction_by_server().values())

    def report(self, r):
        return (
            "[Fig. 13c] Per-server fraction of blocks fetched from the origin DC\n"
            + format_cdf_rows(r)
            + "\n  servers fetching <=20% from origin: "
            + f"{cdf_at(r, 0.2):.0%} (paper ~90%)"
        )

    def row(self, r):
        return (
            f"{cdf_at(r, 0.2):.0%} of servers ≤ 20 %; median "
            f"{statistics.median(r):.1%}"
        )

    def check(self, r):
        assert cdf_at(r, 0.2) > 0.5
        assert cdf_at(r, 0.5) > 0.8


SECTIONS = {
    "Headline results (§6.1)": (Fig9(), Table3()),
    "Bandwidth separation (§6.2)": (Fig10(),),
    "Micro-benchmarks (§6.3)": (
        Fig11a(),
        Fig11bc(),
        Fig12a(),
        Fig12b(),
        Fig12c(),
        Fig13a(),
        Fig13b(),
        Fig13c(),
    ),
}
