"""The LP model builder over scipy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.lp.model import LinearProgram, LPError


def test_import_repro_leaves_scipy_unloaded():
    """scipy loads on the first solve, not with the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestBuilder:
    def test_duplicate_variable_rejected(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(ValueError, match="duplicate"):
            lp.add_variable("x")

    def test_unknown_sense_rejected(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(ValueError, match="sense"):
            lp.add_constraint({"x": 1}, "<", 1)

    def test_unknown_variable_in_constraint(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(KeyError):
            lp.add_constraint({"y": 1}, "<=", 1)

    def test_empty_model_raises(self):
        with pytest.raises(LPError, match="empty"):
            LinearProgram().solve()


class TestSolve:
    def test_simple_maximize(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", upper=4, objective=1.0)
        lp.add_variable("y", upper=4, objective=1.0)
        lp.add_constraint({"x": 1, "y": 2}, "<=", 6)
        solution = lp.solve()
        assert solution.objective == pytest.approx(5.0)
        assert solution["x"] == pytest.approx(4.0)
        assert solution["y"] == pytest.approx(1.0)

    def test_simple_minimize(self):
        lp = LinearProgram(maximize=False)
        lp.add_variable("x", objective=1.0)
        lp.add_constraint({"x": 1}, ">=", 3)
        solution = lp.solve()
        assert solution.objective == pytest.approx(3.0)

    def test_equality_constraint(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", objective=1.0)
        lp.add_variable("y", objective=0.0)
        lp.add_constraint({"x": 1, "y": 1}, "==", 5)
        lp.add_constraint({"x": 1}, "<=", 2)
        solution = lp.solve()
        assert solution["x"] == pytest.approx(2.0)
        assert solution["y"] == pytest.approx(3.0)

    def test_infeasible_raises(self):
        lp = LinearProgram()
        lp.add_variable("x", upper=1, objective=1.0)
        lp.add_constraint({"x": 1}, ">=", 2)
        with pytest.raises(LPError):
            lp.solve()

    def test_unbounded_raises(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", objective=1.0)  # no upper bound, no constraints
        with pytest.raises(LPError):
            lp.solve()

    def test_lower_bounds_respected(self):
        lp = LinearProgram(maximize=False)
        lp.add_variable("x", lower=2.0, objective=1.0)
        assert lp.solve()["x"] == pytest.approx(2.0)
