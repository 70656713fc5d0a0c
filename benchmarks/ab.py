"""A/B pairs of the perf ledger over two checkouts.

Runs ``benchmarks/ledger/run.py --workload W --seed S --seconds T --trace 0``
in the ``--parent`` and the ``--change`` checkout, ``--pairs`` times,
alternating which side goes first, and prints per end-to-end metric the
medians of both sides, the parent's quartile spread, the median of the
per-pair relative change, and in how many pairs the change read lower::

    python3 benchmarks/ab.py --parent ../parent --change . \\
        --workload bulk_cold --pairs 10 --seconds 12

Both sides run the interpreter running this script, each from its own
directory (the ledger puts that checkout's ``src/`` on its children's
path). ``--quick`` passes the ledger's 1/10-scale smoke run through.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, args: argparse.Namespace) -> dict:
    """One ledger result object of ``checkout``: ``{metric: value}``."""
    command = [
        sys.executable, "benchmarks/ledger/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, check=True
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: the ledger's output checks failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in sides:
            runs[side].append(run_once(getattr(args, side), args))
        print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs: medians, the "
          "parent's quartile spread, the median change, pairs the change read lower")
    print(f"{'metric':22s} {'parent':>11s} {'change':>11s} {'iqr':>10s} {'median':>8s} lower")
    for name in runs["parent"][0]:
        before = [run[name] for run in runs["parent"]]
        after = [run[name] for run in runs["change"]]
        q1, _, q3 = statistics.quantiles(before, n=4) if len(before) > 1 else (0, 0, 0)
        deltas = [a / b - 1 if b else 0.0 for a, b in zip(after, before)]
        lower = sum(a < b for a, b in zip(after, before))
        print(f"{name:22s} {statistics.median(before):11.5g} "
              f"{statistics.median(after):11.5g} {q3 - q1:10.3g} "
              f"{statistics.median(deltas):+8.1%} {lower}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
