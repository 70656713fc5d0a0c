"""The perf ledger: one command, every workload, every metric by name.

Two ways in, one measuring path:

* the ledger itself — ``python3 benchmarks/ledger/run.py [--seed N]
  [--quick] [--workload NAME] [--selfcheck]`` runs every workload
  (untraced repetitions, then one traced repetition), prints each
  end-to-end and per-layer metric with its unit, writes
  ``benchmarks/ledger/out/ledger.json`` plus one Chrome trace per
  workload, and exits non-zero if any output check failed;
* the driver contract of ``BENCHMARK.json`` — ``--workload NAME --seed N
  --seconds S --trace 0|1`` measures one workload and prints one JSON
  object (``correct``, ``attempted``, ``failed``, ``metrics``) as the
  last line of stdout: the end-to-end metrics with ``--trace 0``, the
  per-layer metrics with ``--trace 1``.

Every repetition is a fresh child process (``child.py``), one at a time.
Untraced repetitions repeat until their measured time (set-up + run) has
filled ``--seconds``; every timing metric is the median over them and the
decide latencies are pooled. See README.md for the protocol and for how a
later change states a claim against these numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

QUICK_SCALE = 0.1
MIN_REPS = 3
MAX_REPS = 8
#: Untraced repetitions a ``--trace 1`` run takes as the overhead baseline.
TRACE_BASELINE_REPS = 2
CHILD_TIMEOUT_S = 150
#: The paper's ΔT: a decide that takes longer cannot keep up with the loop.
DECIDE_BUDGET_S = 3.0
#: Failure events in sharded_churn_k4's schedule (6+6 windows + 1 outage).
CHURN_FAILURE_EVENTS = 26


# -- children ------------------------------------------------------------------


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(
    workload: str, seed: int, scale: float, trace: bool, trace_out: str = ""
) -> Optional[Dict[str, Any]]:
    """One repetition in a fresh process; ``None`` if it crashed."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
        "--trace", "1" if trace else "0",
    ]
    if trace_out:
        command += ["--trace-out", trace_out]
    try:
        done = subprocess.run(
            command, env=_child_env(), cwd=str(ROOT), capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"[ledger] {workload}: repetition timed out", file=sys.stderr)
        return None
    if done.returncode != 0 or not done.stdout.strip():
        print(
            f"[ledger] {workload}: repetition exited {done.returncode}\n"
            f"{done.stderr[-2000:]}",
            file=sys.stderr,
        )
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- statistics ----------------------------------------------------------------


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile, interpolated between neighbouring samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def iqr_over_median(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# -- one workload --------------------------------------------------------------


def measure(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    quick: bool = False,
    untraced_reps: Optional[int] = None,
    trace_out: str = "",
) -> Dict[str, Any]:
    """Run one workload's repetitions and fold them into one record.

    Untraced repetitions repeat until ``seconds`` of measured time
    (set-up + run) are filled — at least MIN_REPS, at most MAX_REPS — or
    exactly ``untraced_reps`` times when that is given. ``traced`` adds
    one traced repetition after them.
    """
    scale = QUICK_SCALE if quick else 1.0
    outcomes: List[Optional[Dict[str, Any]]] = []
    measured = 0.0
    while len(outcomes) < MAX_REPS:
        if untraced_reps is not None:
            if len(outcomes) >= untraced_reps:
                break
        elif len(outcomes) >= MIN_REPS and measured >= seconds:
            break
        rep = run_child(workload, seed, scale, trace=False)
        outcomes.append(rep)
        if rep is not None:
            measured += rep["raw"]["setup_s"] + rep["raw"]["wall_s"]
    reps = [rep for rep in outcomes if rep is not None]
    traced_rep = None
    if traced:
        traced_rep = run_child(workload, seed, scale, True, trace_out)
        outcomes.append(traced_rep)

    # A repetition fails if it crashed, failed an output check, or — same
    # seed, same code — produced other results or exact counts than the
    # first one did. The traced repetition is held to the same results:
    # tracing must not perturb them.
    problems: List[str] = []
    failed = set()
    first = next((rep for rep in outcomes if rep is not None), None)
    for index, rep in enumerate(outcomes, start=1):
        tag = "traced repetition" if traced and index == len(outcomes) else f"repetition {index}"
        if rep is None:
            failed.add(index)
            problems.append(f"{tag} crashed")
            continue
        for problem in rep["problems"]:
            failed.add(index)
            problems.append(f"{tag}: {problem}")
        differing = [
            key for key in ("fingerprints", "sim", "counts", "pairs")
            if rep[key] != first[key]
        ]
        if differing:
            failed.add(index)
            problems.append(f"{tag} differs from the first in {', '.join(differing)}")

    record: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "attempted": len(outcomes),
        "problems": problems,
        "reps": len(reps),
    }
    workload_problems: List[str] = []
    if reps:
        record["end_to_end"] = end_to_end_metrics(reps)
        slowest = record["end_to_end"]["decide_p90_s"]
        if slowest >= DECIDE_BUDGET_S:
            workload_problems.append(
                f"decide_p90_s {slowest:.3f} s does not fit inside ΔT = 3 s"
            )
        record["cpu_wall_ratio"] = [
            r["raw"]["cpu_s"] / r["raw"]["wall_s"] for r in reps
        ]
        record["slowdown"] = [r["raw"]["slowdown"] for r in reps]
        record["versions"] = reps[0]["versions"]
    layers: Dict[str, float] = {}
    if traced_rep is not None:
        layers.update(traced_rep["layers"])
        layers.update(traced_rep["counts"])
        layers["simulator.sim_completion_max_s"] = traced_rep["sim"]["max"]
        workload_problems += bypass_assertions(workload, layers)
    problems += workload_problems
    # Checks on the workload as a whole count as one failed repetition.
    record["failed"] = max(len(failed), 1 if workload_problems else 0)
    record["correct"] = record["failed"] == 0
    if traced_rep is not None:
        layers.update(harness_metrics(reps, traced_rep, record))
        unknown = sorted(set(layers) - set(PER_LAYER))
        if unknown:
            raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
        record["per_layer"] = {name: layers.get(name, 0.0) for name in PER_LAYER}
        record["cross_check"] = {
            "stage_time_totals": traced_rep["raw"]["stage_time_totals"],
            "slowdown": traced_rep["raw"]["slowdown"],
            "simulator_children_s": traced_rep["simulator_children_s"],
            "spans": traced_rep["spans"],
        }
    return record


def end_to_end_metrics(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """The BENCHMARK.json end-to-end metrics from the untraced repetitions."""
    decides = [d for rep in reps for d in rep["decide_s"]]
    sim = reps[0]["sim"]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "pairs_per_s": statistics.median(r["pairs"] / r["wall_s"] for r in reps),
        "sim_cycles_per_s": statistics.median(
            r["sim_cycles"] / r["wall_s"] for r in reps
        ),
        "decide_p50_s": percentile(decides, 50),
        "decide_p90_s": percentile(decides, 90),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
        "sim_completion_mean_s": sim["mean"],
        "sim_completion_p95_s": sim["p95"],
        "ideal_gap": sim["ideal_gap"],
    }
    assert set(values) == set(END_TO_END), sorted(set(values) ^ set(END_TO_END))
    return values


def harness_metrics(
    reps: List[Dict[str, Any]], traced_rep: Dict[str, Any], record: Dict[str, Any]
) -> Dict[str, float]:
    walls = [r["wall_s"] for r in reps]
    base = statistics.median(walls) if walls else 0.0
    return {
        "harness.trace_overhead_frac": (
            traced_rep["wall_s"] / base - 1.0 if base else 0.0
        ),
        "harness.rep_spread_frac": iqr_over_median(walls),
        "harness.cpu_wall_ratio": min(
            (r["raw"]["cpu_s"] / r["raw"]["wall_s"] for r in reps), default=0.0
        ),
        "harness.raw_wall_s": statistics.median(
            [r["raw"]["wall_s"] for r in reps] or [0.0]
        ),
        "harness.slowdown": statistics.median(
            [r["raw"]["slowdown"] for r in reps] or [0.0]
        ),
        "harness.speed_samples": min(
            (r["raw"]["speed_samples"] for r in reps), default=0
        ),
        "harness.decide_samples": sum(len(r["decide_s"]) for r in reps),
        "harness.reps": len(reps),
        "harness.failed_frac": record["failed"] / record["attempted"],
    }


def bypass_assertions(workload: str, layers: Dict[str, float]) -> List[str]:
    """Each "exercises here, bypasses there" pairing, checked not assumed."""
    problems = []

    def expect_zero(name: str) -> None:
        if layers.get(name, 0):
            problems.append(f"{name} = {layers[name]} on {workload}, expected 0")

    def expect_nonzero(name: str) -> None:
        if not layers.get(name, 0):
            problems.append(f"{name} = 0 on {workload}, expected > 0")

    if workload == "bulk_cold":
        expect_zero("simulator.cycles_fast_forwarded")
        expect_zero("simulator.cycles_decision_reused")
    if workload == "diurnal_day":
        expect_nonzero("simulator.cycles_fast_forwarded")
        expect_nonzero("background.sample_s")
    if workload == "routing_backends":
        expect_nonzero("lp.fptas_calls")
        expect_nonzero("lp.exact_calls")
    else:
        expect_zero("lp.fptas_calls")
        expect_zero("lp.exact_calls")
    shard_only = [n for n in PER_LAYER if n.startswith("shardexec.")]
    shard_only.append("controller.reconcile_s")
    for name in shard_only:
        if workload == "sharded_churn_k4":
            expect_nonzero(name)
        else:
            expect_zero(name)
    if workload == "sharded_churn_k4":
        expect_nonzero("baselines.fallback_decide_s")
        expect_nonzero("cycle_cache.flushes")
        if layers.get("failures.events_applied") != CHURN_FAILURE_EVENTS:
            problems.append(
                f"failures.events_applied = {layers.get('failures.events_applied')}"
                f", expected all {CHURN_FAILURE_EVENTS} (run ended before the "
                f"schedule did)"
            )
    if workload == "overlay_compare":
        expect_nonzero("flow.waterfill_calls")
        expect_nonzero("flow.clip_calls")
    return problems


# -- output ----------------------------------------------------------------------


def contract_result(record: Dict[str, Any], trace: int) -> Dict[str, Any]:
    """The driver's result object for one workload."""
    spec, values = (
        (PER_LAYER, record.get("per_layer")) if trace
        else (END_TO_END, record.get("end_to_end"))
    )
    if values is None:
        raise SystemExit(f"no repetition of {record['workload']} produced metrics")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": values[name], "unit": spec[name]["unit"]}
            for name in spec
        },
    }


def envelope() -> Dict[str, Any]:
    """Where and on what these numbers were taken."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
    }


def contended(env: Dict[str, Any], record: Dict[str, Any]) -> bool:
    ratios = record.get("cpu_wall_ratio", [])
    return env["loadavg_start"] > env["nproc"] or any(r < 0.9 for r in ratios)


def format_value(value: float, unit: str) -> str:
    if unit == "count" or unit == "bytes":
        return f"{value:,.0f}"
    if abs(value) >= 100:
        return f"{value:,.1f}"
    return f"{value:.4g}"


def print_record(record: Dict[str, Any], env: Dict[str, Any]) -> None:
    name = record["workload"]
    flag = "  [CONTENDED]" if contended(env, record) else ""
    status = "ok" if record["correct"] else "FAILED"
    print(
        f"\n== {name}  seed={record['seed']} scale={record['scale']} "
        f"reps={record['reps']} attempted={record['attempted']} "
        f"failed={record['failed']}  {status}{flag}"
    )
    for problem in record["problems"]:
        print(f"   !! {problem}")
    if "cpu_wall_ratio" in record:
        ratios = " ".join(f"{r:.2f}" for r in record["cpu_wall_ratio"])
        print(f"   cpu_s/wall_s per repetition: {ratios}")
        slow = " ".join(f"{r:.2f}" for r in record["slowdown"])
        print(f"   machine slowdown per repetition (1 = reference speed): {slow}")
    for title, spec, key in (
        ("end-to-end", END_TO_END, "end_to_end"),
        ("per-layer", PER_LAYER, "per_layer"),
    ):
        values = record.get(key)
        if values is None:
            continue
        print(f"   -- {title}")
        for metric, value in values.items():
            unit = spec[metric]["unit"]
            print(f"   {metric:36s} {format_value(value, unit):>16s} {unit}")
    cross = record.get("cross_check")
    if cross:
        inside = ", ".join(
            f"{k}={v:.3f}" for k, v in cross["stage_time_totals"].items()
        )
        print(
            f"   -- cross-check, SimResult.stage_time_totals() in raw seconds "
            f"(slowdown {cross['slowdown']:.2f}): {inside}"
        )
        print(f"   -- spans recorded: {cross['spans']}")


def run_suite(args: argparse.Namespace, out_dir: Path) -> Dict[str, Any]:
    """Ledger mode: every selected workload, untraced then traced."""
    env = envelope()
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    out_dir.mkdir(parents=True, exist_ok=True)
    suite: Dict[str, Any] = {"envelope": env, "seed": args.seed, "workloads": {}}
    for name in names:
        record = measure(
            name, args.seed, args.seconds, traced=True, quick=args.quick,
            untraced_reps=1 if args.quick else None,
            trace_out=str(out_dir / f"trace_{name}.json"),
        )
        record["contended"] = contended(env, record)
        print_record(record, env)
        suite["workloads"][name] = record
    env["versions"] = next(
        (r["versions"] for r in suite["workloads"].values() if "versions" in r), {}
    )
    return suite


def selfcheck_table(first: Dict[str, Any], second: Dict[str, Any]) -> Tuple[str, bool]:
    """A/A comparison of two suites: markdown table and whether all agree."""
    lines = [
        "| workload | metric | run A | run B | gap | bound | |",
        "|---|---|---:|---:|---:|---:|---|",
    ]
    agree = True
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        for metric, spec in END_TO_END.items():
            va, vb = a["end_to_end"][metric], b["end_to_end"][metric]
            gap = abs(vb - va) / abs(va) if va else float(vb != va)
            ok = gap <= spec["bound"]
            agree &= ok
            lines.append(
                f"| {name} | {metric} | {va:.6g} | {vb:.6g} | {gap:.2%} | "
                f"{spec['bound']:.0%} | {'' if ok else 'OVER'} |"
            )
        if "per_layer" in a and "per_layer" in b:
            counts = [
                m for m, s in PER_LAYER.items()
                if s["unit"] in ("count", "bytes") and not m.startswith("harness.")
            ]
            moved = [m for m in counts if a["per_layer"][m] != b["per_layer"][m]]
            if moved:
                agree = False
                lines.append(
                    f"| {name} | counts differ: {', '.join(moved)} | | | | | OVER |"
                )
    return "\n".join(lines), agree


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", "--only", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(SPEC["run_seconds"]),
        help="measured time the untraced repetitions of a workload fill",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="driver contract: print one result object for --workload",
    )
    parser.add_argument("--quick", action="store_true",
                        help="1/10 scale, one repetition: a smoke run")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the suite twice and compare A against A")
    parser.add_argument("--output", type=Path, default=HERE / "out" / "ledger.json")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print("[ledger] src/repro not found: nothing to measure", file=sys.stderr)
        return 2

    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        env = envelope()
        untraced_reps = None
        if args.quick:
            untraced_reps = 1
        elif args.trace:
            untraced_reps = TRACE_BASELINE_REPS
        record = measure(
            args.workload, args.seed, args.seconds, traced=bool(args.trace),
            quick=args.quick, untraced_reps=untraced_reps,
        )
        for problem in record["problems"]:
            print(f"[ledger] {args.workload}: {problem}", file=sys.stderr)
        if contended(env, record):
            print(f"[ledger] {args.workload}: contended run", file=sys.stderr)
        print(json.dumps(contract_result(record, args.trace)))
        return 0

    out_dir = args.output.parent
    suite = run_suite(args, out_dir)
    ok = all(r["correct"] for r in suite["workloads"].values())
    if args.selfcheck:
        second = run_suite(args, out_dir)
        ok &= all(r["correct"] for r in second["workloads"].values())
        table, agree = selfcheck_table(suite, second)
        print("\n== A/A self-check\n" + table)
        print("self-check:", "agree" if agree else "DISAGREE")
        ok &= agree
        suite = {"first": suite, "second": second, "agree": agree}
    args.output.write_text(json.dumps(suite, indent=1), encoding="utf-8")
    print(f"\nwrote {args.output}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
