"""Routing-solve benchmark — Fleischer FPTAS cold / warm against the exact LP.

Times the routing backends on the same deterministic router-shaped
instances at three commodity scales (the largest matching the Fig. 13b
regime where the paper runs its FPTAS):

* the Fleischer phase solver (``repro.lp.fptas``): cold, warm-started on
  demands drifted as between consecutive control cycles, and cold on the
  drifted instance (what the warm start saves);
* the exact LP (``solve_lp_incidence`` over a strict ``PathIncidence``, as
  ``routing_backend="lp"`` solves it), the optimum both are priced against;
* the greedy water-filler, dict-walking reference vs the router's
  ``greedy_waterfill`` kernel over resource numbers (which must agree
  bit-for-bit — it feeds the determinism fingerprints). The result keys
  keep their recorded names: ``incidence_build_s`` is numbering the
  paths' resources (what the router's ``CycleCache`` id table pays once
  per topology epoch, not per cycle), ``incidence_s`` the kernel.

Every FPTAS objective is checked against the exact LP: cold and warm must
clear the ``(1−ε)³`` guarantee on every benchmarked instance. There is no
speedup gate: a performance claim is a diff of these times against the
previous recorded run (``BENCH_routing.json``) and, end to end, the perf
ledger's ``routing_backends`` workload.

Run as a script to emit ``BENCH_routing.json``::

    PYTHONPATH=src python benchmarks/bench_routing_solver.py [--quick]

or through pytest like the other benchmarks (quick scale).
"""

import argparse
import json
import random
import sys
import time
from pathlib import Path

from repro.analysis.reporting import format_table
from repro.core.routing import greedy_waterfill
from repro.lp.fptas import max_multicommodity_flow
from repro.lp.incidence import PathIncidence
from repro.lp.mcf import Commodity, solve_lp_incidence

EPSILON = 0.1
FULL_SCALES = (50, 150, 400)
QUICK_SCALES = (15, 40, 90)

RESULT_FORMAT_VERSION = 2


def make_instance(num_commodities, seed):
    """A router-shaped instance: (uplink, wan, downlink) triple paths.

    Mirrors the commodities ``BDSRouter._build_commodities`` lists — each
    commodity is a merged block group with up to 3 candidate source
    servers, demand-capped by the group's remaining bytes per cycle.
    """
    rng = random.Random(seed)
    num_dcs = 8
    servers_per_dc = max(4, num_commodities // 10)
    caps = {}
    for a in range(num_dcs):
        for b in range(num_dcs):
            if a != b:
                caps[("wan", f"dc{a}", f"dc{b}")] = rng.uniform(50.0, 200.0)
        for s in range(servers_per_dc):
            caps[("up", f"dc{a}-s{s}")] = rng.uniform(10.0, 40.0)
            caps[("down", f"dc{a}-s{s}")] = rng.uniform(10.0, 40.0)
    commodities = []
    for ci in range(num_commodities):
        dst_dc = rng.randrange(num_dcs)
        dst = f"dc{dst_dc}-s{rng.randrange(servers_per_dc)}"
        paths = []
        for _ in range(rng.randint(2, 3)):
            src_dc = rng.choice([d for d in range(num_dcs) if d != dst_dc])
            src = f"dc{src_dc}-s{rng.randrange(servers_per_dc)}"
            paths.append(
                (
                    ("up", src),
                    ("wan", f"dc{src_dc}", f"dc{dst_dc}"),
                    ("down", dst),
                )
            )
        demand = rng.uniform(5.0, 80.0) if rng.random() < 0.8 else None
        commodities.append(
            Commodity(name=f"g{ci}", paths=tuple(paths), demand=demand)
        )
    return commodities, caps


def drift_demands(commodities, factor=0.9):
    """The next cycle's instance: same paths/capacities, demands moved."""
    return [
        Commodity(
            name=c.name,
            paths=c.paths,
            demand=None if c.demand is None else c.demand * factor,
        )
        for c in commodities
    ]


def timed(fn):
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def reference_greedy(commodities, capacities, fair_rounds=3):
    """The pre-incidence greedy loop (dict walking), kept as baseline."""
    residual = dict(capacities)
    rates = {}
    remaining = {
        i: (c.demand if c.demand is not None else float("inf"))
        for i, c in enumerate(commodities)
    }

    def push_flow(index, limit_fraction):
        commodity = commodities[index]
        demand = remaining[index]
        while demand > 1e-9:
            best_pi, best_room = -1, 0.0
            for pi, path in enumerate(commodity.paths):
                room = min(residual.get(r, 0.0) for r in path)
                if room > best_room:
                    best_room = room
                    best_pi = pi
            if best_pi < 0 or best_room <= 1e-9:
                break
            push = min(demand, best_room * limit_fraction)
            if push <= 1e-9:
                break
            key = (commodity.name, best_pi)
            rates[key] = rates.get(key, 0.0) + push
            for res in commodity.paths[best_pi]:
                residual[res] = residual.get(res, 0.0) - push
            demand -= push
            if limit_fraction < 1.0:
                break
        remaining[index] = demand

    active = [i for i, d in remaining.items() if d > 1e-9]
    for _round in range(fair_rounds):
        if not active:
            break
        share = 1.0 / max(len(active), 1)
        for i in active:
            push_flow(i, share)
        active = [i for i in active if remaining[i] > 1e-9]
    for i in range(len(commodities)):
        if remaining[i] > 1e-9:
            push_flow(i, 1.0)
    return rates


def exact_lp(commodities, caps):
    """The exact max-MCF optimum: the LP over the instance's incidence."""
    return solve_lp_incidence(PathIncidence.build(commodities, caps, strict=True))


def bench_scale(num_commodities, seed=0):
    """One scale point: every backend on the same instance."""
    commodities, caps = make_instance(num_commodities, seed)
    guarantee = (1 - EPSILON) ** 3

    cold, cold_s = timed(
        lambda: max_multicommodity_flow(commodities, caps, epsilon=EPSILON)
    )
    lp, lp_s = timed(lambda: exact_lp(commodities, caps))

    drifted = drift_demands(commodities)
    warm, warm_s = timed(
        lambda: max_multicommodity_flow(
            drifted, caps, epsilon=EPSILON, warm=cold.warm_state
        )
    )
    cold2, cold2_s = timed(
        lambda: max_multicommodity_flow(drifted, caps, epsilon=EPSILON)
    )
    lp2 = exact_lp(drifted, caps)

    greedy_old, greedy_old_s = timed(lambda: reference_greedy(commodities, caps))
    # Match the router's call pattern: paths arrive as resource numbers
    # (its id table outlives the cycle), the residual vector is filled
    # from the capacity map per solve.
    ids = {}
    paths, inc_build_s = timed(
        lambda: [
            [[ids.setdefault(r, len(ids)) for r in path] for path in c.paths]
            for c in commodities
        ]
    )
    demands = [float("inf") if c.demand is None else c.demand for c in commodities]
    rates, greedy_new_s = timed(
        lambda: greedy_waterfill(
            demands, paths, [float(caps.get(r, 0.0)) for r in ids]
        )
    )
    greedy_new = {
        (commodities[ci].name, pi): rate
        for ci, row in enumerate(rates)
        for pi, rate in enumerate(row)
        if rate
    }

    return {
        "commodities": num_commodities,
        "resources": len(caps),
        "epsilon": EPSILON,
        "fptas": {
            "cold_s": cold_s,
            "warm_s": warm_s,
            "cold_drifted_s": cold2_s,
            "speedup_warm_vs_cold": (
                cold2_s / warm_s if warm_s > 0 else float("inf")
            ),
            "iterations_cold": cold.iterations,
            "iterations_warm": warm.iterations,
            "phases_cold": cold.phases,
            "warm_start": warm.warm_start,
        },
        "objectives": {
            "lp": lp.objective,
            "lp_s": lp_s,
            "cold": cold.objective,
            "warm": warm.objective,
            "lp_drifted": lp2.objective,
            "cold_ratio": cold.objective / lp.objective if lp.objective else 1.0,
            "warm_ratio": (
                warm.objective / lp2.objective if lp2.objective else 1.0
            ),
            "guarantee": guarantee,
            "cold_within_guarantee": cold.objective
            >= guarantee * lp.objective - 1e-9,
            "warm_within_guarantee": warm.objective
            >= guarantee * lp2.objective - 1e-9,
        },
        "greedy": {
            "legacy_s": greedy_old_s,
            "incidence_s": greedy_new_s,
            "incidence_build_s": inc_build_s,
            "speedup": (
                greedy_old_s / greedy_new_s if greedy_new_s > 0 else float("inf")
            ),
            "identical": greedy_old == greedy_new,
        },
    }


def run_benchmark(scales, seed=0):
    return {
        "format_version": RESULT_FORMAT_VERSION,
        "epsilon": EPSILON,
        "scales": [bench_scale(n, seed=seed) for n in scales],
    }


def format_report(payload) -> str:
    rows = []
    for entry in payload["scales"]:
        fp = entry["fptas"]
        obj = entry["objectives"]
        gr = entry["greedy"]
        rows.append(
            [
                str(entry["commodities"]),
                f"{fp['cold_s'] * 1e3:.0f}",
                str(fp["iterations_cold"]),
                f"{fp['warm_s'] * 1e3:.0f}",
                fp["warm_start"],
                f"{obj['lp_s'] * 1e3:.0f}",
                f"{obj['cold_ratio']:.4f}",
                f"{gr['speedup']:.1f}x",
                "yes" if gr["identical"] else "NO",
            ]
        )
    table = format_table(
        [
            "commodities",
            "cold (ms)",
            "pushes",
            "warm (ms)",
            "warm mode",
            "LP (ms)",
            "obj/LP",
            "greedy",
            "greedy ==",
        ],
        rows,
    )
    largest = payload["scales"][-1]
    fp = largest["fptas"]
    return (
        f"[routing solver] Fleischer FPTAS vs exact LP, eps={EPSILON}\n"
        + table
        + (
            f"\nlargest scale ({largest['commodities']} commodities): cold "
            f"{fp['cold_s'] * 1e3:.0f}ms "
            f"({fp['cold_s'] / max(fp['iterations_cold'], 1) * 1e6:.1f}us/push), "
            f"warm resumes in {fp['warm_s'] * 1e3:.0f}ms, exact LP "
            f"{largest['objectives']['lp_s'] * 1e3:.0f}ms"
        )
    )


def check(payload) -> list:
    """Acceptance checks; returns a list of failure strings."""
    failures = []
    for entry in payload["scales"]:
        n = entry["commodities"]
        if not entry["objectives"]["cold_within_guarantee"]:
            failures.append(f"{n} commodities: cold solve below (1-eps)^3 * LP")
        if not entry["objectives"]["warm_within_guarantee"]:
            failures.append(f"{n} commodities: warm solve below (1-eps)^3 * LP")
        if not entry["greedy"]["identical"]:
            failures.append(f"{n} commodities: greedy rewrite diverged")
    return failures


def test_routing_solver(benchmark, report):
    """Pytest entry: quick scales; guarantee + parity must always hold."""
    payload = benchmark.pedantic(
        lambda: run_benchmark(QUICK_SCALES, seed=0), rounds=1, iterations=1
    )
    report("\n" + format_report(payload))
    assert check(payload) == []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small scales for CI smoke runs",
    )
    parser.add_argument(
        "--output",
        default="BENCH_routing.json",
        help="where to write the JSON result (default: ./BENCH_routing.json)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    scales = QUICK_SCALES if args.quick else FULL_SCALES
    payload = run_benchmark(scales, seed=args.seed)
    payload["quick"] = args.quick
    print(format_report(payload))

    Path(args.output).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.output}")

    failures = check(payload)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
