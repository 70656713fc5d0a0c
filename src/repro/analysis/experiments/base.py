"""What an entry of the experiment table is.

An :class:`Experiment` says everything the repository knows about one
artefact of the paper's evaluation, once: what the paper claims, how the
artefact is scaled down here, how to run it at its one pinned parameter
set, how to print it, how to summarise it in a table cell and which shape
it must keep. The drivers (``benchmarks/bench_paper.py``, ``python -m
repro experiment``, ``tests/test_experiments.py`` and the generated block
of EXPERIMENTS.md) read the table and know no entry by name.
"""

from __future__ import annotations

import re
import time
from typing import Any, Callable, Optional, Sequence, Tuple

from repro.analysis.runner import Scenario
from repro.core import BDSController
from repro.net.simulator import Simulation
from repro.net.view import ClusterView


def wall(text: str) -> str:
    """Mark a wall-clock reading, or a value derived from one, in a ``row``.

    Everything else in a row is simulated time or a count and is the same
    on every run; ``mask_wall`` is how a comparison ignores the rest.
    """
    return f"⟨{text}⟩"


def mask_wall(text: str) -> str:
    """``text`` with every :func:`wall` reading replaced by a placeholder."""
    return re.sub(r"⟨[^⟩]*⟩", "⟨wall⟩", text)


def ms(seconds: float) -> str:
    return f"{seconds * 1000:.1f} ms"


def timed(call: Callable, *args: Any) -> Tuple[float, Any]:
    """Wall-clock seconds ``call(*args)`` took, and what it returned."""
    started = time.perf_counter()
    out = call(*args)
    return time.perf_counter() - started, out


def cold_view(scenario: Scenario) -> Tuple[ClusterView, BDSController]:
    """The view of a BDS ``scenario`` before anything moved, and its
    controller, which has not decided on it yet (for timing one cold pass)."""
    parts = scenario.build()
    return Simulation(**parts).snapshot_view(), parts["strategy"]


def upper_median(xs: Sequence[float]) -> float:
    return sorted(xs)[len(xs) // 2]


class Experiment:
    """One table, figure or ablation of the evaluation."""

    id: str
    #: The "Experiment" cell of EXPERIMENTS.md.
    title: str
    #: The paper's claim.
    paper: str
    #: How the paper's setup is scaled down (may be empty).
    scaling: str = ""
    #: The pinned seed; ``run(seed=…)`` overrides it.
    seed: int = 0

    def run(self, seed: Optional[int] = None) -> Any:
        """Run at the pinned parameters and return the entry's result."""
        return self.measure(self.seed if seed is None else seed)

    def measure(self, seed: int) -> Any:
        raise NotImplementedError

    def report(self, r: Any) -> str:
        """The rows and series the paper's artefact shows."""
        raise NotImplementedError

    def row(self, r: Any) -> str:
        """The "Measured" cell of EXPERIMENTS.md."""
        raise NotImplementedError

    def check(self, r: Any) -> None:
        """Assert the shape the reproduction claims."""
        raise NotImplementedError
