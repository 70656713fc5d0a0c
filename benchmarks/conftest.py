"""Benchmark harness conventions.

``bench_paper.py`` regenerates each of the paper's tables and figures on
the simulated substrate and prints the same rows/series the paper reports
(bypassing pytest's capture so the output is visible in a plain
``pytest benchmarks/bench_paper.py --benchmark-only`` run). Absolute numbers differ from
the paper — the substrate is a simulator, not Baidu's WAN — but the shape
(who wins, by what factor, where the knees are) is the reproduction target.
See EXPERIMENTS.md for the paper-vs-measured record.
"""

import pytest


@pytest.fixture
def report(capsys):
    """Print experiment output past pytest's capture."""

    def _report(text: str) -> None:
        with capsys.disabled():
            print(text)

    return _report
