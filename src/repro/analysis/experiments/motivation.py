"""§2 of the paper: the workload study and the case for an overlay."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Dict, List

from repro.analysis.experiments.base import Experiment, upper_median
from repro.analysis.metrics import fraction_above, percentile
from repro.analysis.plots import ascii_cdf
from repro.analysis.reporting import format_cdf_rows, format_table, sparkline
from repro.analysis.runner import Scenario, run_many
from repro.baselines.ideal import ideal_server_times
from repro.net.background import delay_inflation
from repro.net.paths import throughput_ratio_samples
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology, wan_key
from repro.utils.units import GB, MB, MBps, TB
from repro.workload.distributions import APP_PROFILES
from repro.workload.generator import WorkloadGenerator

_TRACE = (
    "1265 sampled requests over 30 DCs (the paper's trace density), drawn from "
    "the published anchor distributions (`repro.workload.distributions`)."
)


def _trace(seed: int) -> list:
    """The paper's trace shape: 1265 transfers across 30 DCs."""
    return WorkloadGenerator([f"dc{i}" for i in range(30)], seed=seed).generate(
        count=1265
    )


class Table1(Experiment):
    id = "table1"
    title = "Table 1: multicast share of inter-DC traffic"
    paper = "91.13 % overall; 89.2–99.1 % per application"
    scaling = _TRACE
    seed = 1

    def measure(self, seed):
        total: Dict[str, float] = {}
        multicast: Dict[str, float] = {}
        for request in _trace(seed):
            total[request.app] = total.get(request.app, 0.0) + request.size_bytes
            if request.is_multicast:
                multicast[request.app] = (
                    multicast.get(request.app, 0.0) + request.size_bytes
                )
        return SimpleNamespace(
            by_app={app: multicast.get(app, 0.0) / total[app] for app in sorted(total)},
            overall=sum(multicast.values()) / sum(total.values()),
        )

    def report(self, r):
        rows = [["All applications", f"{r.overall:.2%}", "91.13%"]] + [
            [app, f"{share:.2%}", f"{APP_PROFILES[app]['multicast_share']:.2%}"]
            for app, share in r.by_app.items()
        ]
        return "[Table 1] Share of inter-DC traffic that is multicast\n" + format_table(
            ["application", "measured", "paper"], rows
        )

    def row(self, r):
        shares = r.by_app.values()
        return (
            f"{r.overall:.1%} overall; {min(shares):.1%}–{max(shares):.1%} "
            "per application"
        )

    def check(self, r):
        assert 0.85 < r.overall <= 1.0
        assert all(0.7 <= share <= 1.0 for share in r.by_app.values())


class Fig2(Experiment):
    id = "fig2"
    title = "Fig. 2: destination fan-out (a) and transfer size (b) CDFs"
    paper = (
        "(a) 90 % of multicasts reach ≥ 60 % of DCs, 70 % reach > 80 %; "
        "(b) 60 % of transfers > 1 TB, 90 % > 50 GB"
    )
    scaling = "the multicasts of `table1`'s trace shape, under another seed."
    seed = 2

    def measure(self, seed):
        multicasts = [r for r in _trace(seed) if r.is_multicast]
        fractions = [len(r.dst_dcs) / 30 for r in multicasts]
        sizes = [r.size_bytes for r in multicasts]
        return SimpleNamespace(
            fractions=fractions,
            sizes=sizes,
            frac_60=fraction_above(fractions, 0.599),
            frac_80=fraction_above(fractions, 0.80),
            over_1tb=fraction_above(sizes, 1 * TB),
            over_50gb=fraction_above(sizes, 50 * GB),
        )

    def report(self, r):
        return (
            "[Fig. 2a] Fraction of DCs targeted per multicast (CDF)\n"
            + format_cdf_rows(r.fractions)
            + f"\n  >=60% of DCs: measured {r.frac_60:.0%} (paper 90%)"
            + f"\n  > 80% of DCs: measured {r.frac_80:.0%} (paper 70%)"
            + "\n\n[Fig. 2b] Transfer sizes (CDF, bytes)\n"
            + format_cdf_rows(r.sizes)
            + f"\n  > 1TB : measured {r.over_1tb:.0%} (paper 60%)"
            + f"\n  > 50GB: measured {r.over_50gb:.0%} (paper 90%)"
        )

    def row(self, r):
        return (
            f"(a) {r.frac_60:.0%} reach ≥ 60 %, {r.frac_80:.0%} reach > 80 %; "
            f"(b) {r.over_1tb:.0%} > 1 TB, {r.over_50gb:.0%} > 50 GB"
        )

    def check(self, r):
        assert r.frac_60 > 0.8
        assert r.over_1tb > 0.5


#: The Fig. 3 scenario: three DCs with asymmetric WAN capacities. The
#: example needs a thin path from A to C and a fatter relayed route
#: through B, so the intelligent overlay can ship most blocks A→B→C while
#: the thin direct path carries the rest. Server NICs are fat (6 GB/s) so
#: the WAN links are the bottlenecks, as in the figure.
FIG3 = Scenario(
    "triangle",
    (dict(job_id="fig3", src_dc="A", dst_dcs=("B", "C"), total_bytes=36 * GB,
          block_size=2 * GB),),
    dict(nic=6 * GB, ab=3 * GB, ac=1.5 * GB, bc=3 * GB),
    sim=SimConfig(cycle_seconds=1.0, safety_threshold=1.0),
)


class Fig3(Experiment):
    id = "fig3"
    title = "Fig. 3: 36 GB from A to {B, C}"
    paper = "direct 18 s, chain 13 s, BDS 9 s (2.0× direct/BDS)"
    scaling = (
        "an asymmetric triangle (A–B 3 GB/s, A–C 1.5 GB/s, B–C 3 GB/s) because "
        "the figure's per-path capacities are not all mutually realizable on "
        "shared links; 2 GB blocks, ΔT = 1 s and, as in the paper's example, no "
        "bandwidth reservation (threshold 100 %). Ordering and ratios are kept."
    )
    seed = 3

    def measure(self, seed):
        names = ("direct", "chain", "bds")
        runs = run_many([replace(FIG3, strategy=n, seed=seed) for n in names])
        return {n: run.completion_time("fig3") for n, run in zip(names, runs)}

    def report(self, r):
        rows = [
            ["direct (no overlay)", f"{r['direct']:.0f}s", "18s"],
            ["simple chain", f"{r['chain']:.0f}s", "13s"],
            ["BDS (intelligent overlay)", f"{r['bds']:.0f}s", "9s"],
        ]
        return (
            "[Fig. 3] 36 GB from A to {B, C}\n"
            + format_table(["strategy", "measured", "paper"], rows)
            + f"\n  direct/BDS speedup: {r['direct'] / r['bds']:.1f}x (paper 2.0x)"
        )

    def row(self, r):
        return (
            f"direct {r['direct']:.0f} s, chain {r['chain']:.0f} s, "
            f"BDS {r['bds']:.0f} s ({r['direct'] / r['bds']:.1f}×)"
        )

    def check(self, r):
        assert r["bds"] < r["chain"] < r["direct"]


class Fig4(Experiment):
    id = "fig4"
    title = "Fig. 4: BW(A→C) / BW(A→b→C) ≠ 1"
    paper = "> 95 % of pairs (bottleneck-disjoint)"
    scaling = (
        "2000 random (A, b, C) triples on a 12-DC random mesh, WAN links "
        "1–10 GB/s, server NICs 100 MB/s–2 GB/s."
    )
    seed = 4

    def measure(self, seed):
        topo = Topology.random_mesh(
            num_dcs=12,
            servers_per_dc=4,
            wan_capacity_range=(1 * GB, 10 * GB),
            uplink_range=(100 * MBps, 2 * GB),
            seed=seed,
        )
        ratios = throughput_ratio_samples(topo, 2000, seed=seed)
        disjoint = sum(1 for x in ratios if abs(x - 1.0) > 0.01) / len(ratios)
        return SimpleNamespace(ratios=ratios, disjoint=disjoint)

    def report(self, r):
        return (
            "[Fig. 4] BW(A->C) / BW(A->b->C) ratio CDF\n"
            + format_cdf_rows(r.ratios)
            + f"\n  pairs with ratio != 1: measured {r.disjoint:.1%} (paper >95%)"
        )

    def row(self, r):
        return f"{r.disjoint:.1%} of pairs"

    def check(self, r):
        assert r.disjoint > 0.95


@dataclass
class Fig5Result:
    gingko_times: List[float]  # per destination server, seconds
    ideal_times: List[float]
    median_ratio: float  # median(gingko) / median(ideal)


def exp_fig5_gingko_vs_ideal(
    servers_per_dc: int = 32, file_bytes: float = 1 * GB, seed: int = 7
) -> Fig5Result:
    """One source DC, two destination DCs, a striped file, at the paper's
    20 Mbps per-server budget (``tests/test_baseline_pins.py`` pins a
    smaller instance)."""
    parts = Scenario.mesh(
        3, servers_per_dc, 10 * GB, 2.5 * MBps, file_bytes, 4 * MB, "fig5",
        strategy="gingko", seed=seed,
    ).build()
    gingko = Simulation(**parts).run()
    gingko_times = gingko.server_completion_times("fig5")
    ideal_times = list(ideal_server_times(parts["topology"], *parts["jobs"]).values())
    return Fig5Result(
        gingko_times=gingko_times,
        ideal_times=ideal_times,
        median_ratio=upper_median(gingko_times)
        / max(upper_median(ideal_times), 1e-9),
    )


class Fig5(Experiment):
    id = "fig5"
    title = "Fig. 5: Gingko vs ideal per-server completion time"
    paper = "mean 4.75× the ideal; 5 % of servers wait over 6×"
    scaling = "640 servers/DC → 32 and 30 GB → 1 GB at the paper's 20 Mbps per server."
    seed = 7

    def measure(self, seed):
        return exp_fig5_gingko_vs_ideal(seed=seed)

    def report(self, r):
        return (
            "[Fig. 5] Per-server completion time (seconds)\n"
            + "-- Gingko (current solution) --\n"
            + format_cdf_rows(r.gingko_times, unit="s")
            + "\n-- Ideal solution --\n"
            + format_cdf_rows(r.ideal_times, unit="s")
            + f"\n  median gingko/ideal ratio: {r.median_ratio:.2f}x (paper 4.75x)\n"
            + ascii_cdf(
                {"current (gingko)": r.gingko_times, "ideal": r.ideal_times},
                x_label="completion (s)",
            )
        )

    def row(self, r):
        tail = percentile(r.gingko_times, 95) / statistics.median(r.ideal_times)
        return f"median {r.median_ratio:.2f}× the ideal; p95 {tail:.1f}×"

    def check(self, r):
        assert r.median_ratio > 2.0
        # Straggler tail: the slowest servers wait far beyond the median.
        tail = sorted(r.gingko_times)[int(0.95 * len(r.gingko_times))]
        assert tail > 1.5 * statistics.median(r.gingko_times)


def interference(strategy: str, seed: int) -> SimpleNamespace:
    """A 2 GB bulk multicast over one WAN link that also carries diurnal
    online traffic (Fig. 6 uncoordinated, Fig. 10 under BDS)."""
    link = wan_key("dc0", "dc1")
    scenario = Scenario.mesh(
        2, 6, 100 * MBps, 40 * MBps, 2 * GB, 4 * MB, "bulk",
        strategy=strategy,
        seed=seed,
        sim=SimConfig(record_link_stats=True, links_of_interest=(link,)),
        background=dict(
            base_fraction=0.35, diurnal_fraction=0.25, noise_fraction=0.05, seed=seed
        ),
    )
    result = scenario.run()
    capacity = scenario.topology_args["wan_capacity"]
    threshold = scenario.sim.safety_threshold
    bulk = [s.link_bulk_usage.get(link, 0.0) / capacity for s in result.cycle_stats]
    total = [
        s.link_online_usage.get(link, 0.0) / capacity + b
        for s, b in zip(result.cycle_stats, bulk)
    ]
    return SimpleNamespace(
        bulk=bulk,
        total=total,
        inflation=[delay_inflation(u, threshold) for u in total],
        threshold=threshold,
        violations=sum(1 for u in total if u > threshold + 1e-9),
    )


class Fig6(Experiment):
    id = "fig6"
    title = "Fig. 6: uncoordinated bulk transfer interferes with online traffic"
    paper = "link pushed past the 80 % threshold for hours; ~30× delay inflation"
    scaling = (
        "a 2 GB Gingko multicast over one 100 MB/s link carrying diurnal online "
        "traffic (35 % base + 25 % swing); the delay model caps inflation at 100×."
    )
    seed = 6

    def measure(self, seed):
        return interference("gingko", seed)

    def report(self, r):
        rows = [
            ["peak total utilization", f"{max(r.total):.0%}", "> 80% threshold"],
            ["cycles above threshold", str(r.violations), "sustained"],
            ["peak delay inflation", f"{max(r.inflation):.1f}x", "~30x"],
        ]
        return (
            "[Fig. 6] Link utilization with uncoordinated bulk transfer\n"
            + format_table(["metric", "measured", "paper"], rows)
            + "\n  utilization over time: "
            + sparkline(r.total)
            + "\n  delay inflation     : "
            + sparkline(r.inflation)
        )

    def row(self, r):
        return (
            f"{r.violations} of {len(r.total)} cycles above the threshold, peak "
            f"utilization {max(r.total):.0%}, delay inflation up to "
            f"{max(r.inflation):.0f}×"
        )

    def check(self, r):
        assert r.violations > 0
        assert max(r.inflation) > 2.0


SECTIONS = {
    "Workload study (§2)": (Table1(), Fig2()),
    "Overlay opportunity (§2.2–2.3)": (Fig3(), Fig4(), Fig5(), Fig6()),
}
