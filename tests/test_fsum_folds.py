"""Runs do not depend on how the interpreter's builtin ``sum`` folds floats.

From Python 3.12 the builtin ``sum`` compensates float additions
(Neumaier's variant of Kahan summation); before, it added left to right.
``src/`` folds floats with ``math.fsum`` instead, which is correctly
rounded on every interpreter (``tests/test_layering.py`` keeps builtin
``sum`` to int folds). This file checks that on the interpreter it runs
on: with :func:`sum_312`, an emulation of the 3.12 builtin, shadowing
``sum`` in every ``repro`` module, the golden runs and the ledger-shaped
baseline pins keep their fingerprints.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import operator
import pkgutil
import sys

import repro

from tests import test_baseline_pins as baseline_pins
from tests import test_determinism_golden as golden


def sum_312(iterable, /, start=0):
    """CPython 3.12's builtin ``sum``: ints add exactly; from the first
    float on, floats are added with a Neumaier compensation term and ints
    without, and any other operand falls back to ``+``."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(total) is not int:
                break
    if type(total) is not float:
        for item in items:
            total = total + item
        return total
    compensation = 0.0
    for item in items:
        if type(item) is float:
            step = total + item
            if abs(total) >= abs(item):
                compensation += (total - step) + item
            else:
                compensation += (item - step) + total
            total = step
        elif type(item) is int:
            total += float(item)
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            total = total + item
            for item in items:
                total = total + item
            return total
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_the_emulation_compensates_as_312_does():
    tenths = [0.1] * 10
    left_fold = functools.reduce(operator.add, tenths)
    assert sum_312(tenths) == 1.0 != 0.9999999999999999 == left_fold
    assert sum_312([1e100, 1.0, -1e100]) == 1.0
    assert sum_312([3, True]) == 4 and type(sum_312([3, True])) is int
    assert sum_312([1, 0.5, 2]) == 3.5
    assert sum_312([[1], [2]], []) == [1, 2]


#: The ledger-shaped baseline pins: each runs many cycles of merged
#: directives, whose demands and deals fold long float lists.
LEDGER_PINS = (
    "overlay_compare:full:seed0",
    "overlay_compare:full:seed1",
    "sharded_churn_k4:inprocess:seed0",
    "sharded_churn_k4:inprocess:seed1",
)


def test_runs_keep_their_fingerprints_under_the_312_sum(golden_builds, monkeypatch):
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name != "repro.__main__":
            importlib.import_module(module.name)
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            monkeypatch.setattr(module, "sum", sum_312, raising=False)

    moved = [
        label
        for label, run in golden.golden_runs([])
        if run().fingerprint() != golden_builds[label][3]
    ]
    pins = json.loads(baseline_pins.PINS_FILE.read_text())
    moved += [
        name
        for name in LEDGER_PINS
        if json.loads(json.dumps(baseline_pins.SCENARIOS[name]())) != pins[name]
    ]
    assert not moved
