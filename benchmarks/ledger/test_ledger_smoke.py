"""Smoke test of the perf ledger (``pytest benchmarks/ledger``; not tier-1).

Runs ``run.py --quick`` — 1/10 scale, one untraced plus one traced
repetition per workload — and checks that what it prints is what
``BENCHMARK.json`` promises: every workload present and correct, every
metric there by name with a finite value, and names/units well-formed.
It asserts no timing: a quick run says nothing about speed.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_names_and_units_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in SPEC["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_quick_run_reports_every_metric(tmp_path):
    output = tmp_path / "ledger.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--output", str(output)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    suite = json.loads(output.read_text(encoding="utf-8"))
    assert set(suite["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for key in ("commit", "cpu", "nproc", "loadavg_start", "versions"):
        assert key in suite["envelope"]
    for name, record in suite["workloads"].items():
        assert record["correct"], (name, record["problems"])
        assert record["failed"] == 0
        for section in ("end_to_end", "per_layer"):
            expected = [m["name"] for m in SPEC[section]]
            assert list(record[section]) == expected, (name, section)
            for metric, value in record[section].items():
                assert math.isfinite(value), (name, metric, value)
        for metric in SPEC["end_to_end"]:
            assert record["end_to_end"][metric["name"]] > 0, (name, metric["name"])
        # The traced repetition's direct children plus the simulator's own
        # time are the whole run.
        children = sum(record["cross_check"]["simulator_children_s"].values())
        layers = record["per_layer"]
        assert math.isclose(
            children + layers["simulator.self_s"], layers["simulator.run_s"],
            rel_tol=1e-6,
        )
        assert (tmp_path / f"trace_{name}.json").exists()
        # The printed table carries each metric with its unit.
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert re.search(
                rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$",
                done.stdout, re.MULTILINE,
            ), metric["name"]


def test_contract_mode_prints_one_result_object():
    workload = SPEC["workloads"][0]["name"]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--quick",
                "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace),
            ],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr[-3000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {
            name: value["unit"] for name, value in result["metrics"].items()
        } == {m["name"]: m["unit"] for m in SPEC[section]}
