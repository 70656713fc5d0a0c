"""Every table, figure and ablation of the paper's evaluation.

One benchmark per entry of ``repro.analysis.experiments.EXPERIMENTS``: it
times the entry's run at its pinned parameters, prints the rows and
series the paper's artefact shows, and asserts the shape the
reproduction claims. Regenerate and assert everything with::

    pytest benchmarks/bench_paper.py --benchmark-only

(``-k fig12c`` for one). ``python -m repro experiment all --write`` turns
the same runs into the tables of EXPERIMENTS.md.
"""

import pytest

from repro.analysis.experiments import EXPERIMENTS


@pytest.mark.parametrize("experiment", EXPERIMENTS.values(), ids=list(EXPERIMENTS))
def test_paper(experiment, benchmark, report):
    result = benchmark.pedantic(experiment.run, rounds=1, iterations=1)
    report("\n" + experiment.report(result))
    experiment.check(result)
