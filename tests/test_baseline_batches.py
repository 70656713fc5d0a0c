"""Baselines hand the data plane columns.

Every baseline's ``decide`` returns one
:class:`~repro.net.directive.DirectiveBatch`, which the simulator
validates, routes and rates as columns. So no golden run under a
baseline, or under BDS with its Gingko fallback deciding (an outage, then
a DC severed from the controller), builds a
:class:`~repro.net.directive.TransferDirective` — counted through
``TransferDirective._init``, which both constructors call, in the one
pass over the golden scenarios (the ``golden_builds`` fixture) that
``tests/test_admission.py`` counts blocks in. What a lens emits,
listed, is the per-pair objects of ``oracles.lens_directives`` on the
lens scenarios of ``tests/test_baseline_lens.py``; and a run there
catches the emission's own mutants (:data:`MUTANTS`).
"""

from __future__ import annotations

import pytest

from repro.baselines.base import JobPossession
from repro.net.directive import DirectiveBatch, TransferDirective

from tests import oracles
from tests import test_baseline_lens as lens_tests

BASELINES = ("gingko", "bullet", "akamai", "chain", "direct")


def test_no_golden_run_builds_a_transfer_directive(golden_builds, monkeypatch):
    baseline_runs = [
        built for label, built in golden_builds.items()
        if label[0] in BASELINES or label == ("fallback",)
    ]
    assert len(baseline_runs) == 16
    assert all(complete and directives == 0 for complete, _, directives, _ in baseline_runs)
    # The fallback decided alone in the outage, and beside the controller
    # for the severed DC.
    decided = golden_builds["decided"]
    assert False in decided and True in decided
    built = oracles.count_calls(monkeypatch, TransferDirective, "_init")
    TransferDirective("j", [("j", 0)], "a", "b")
    assert len(built) == 1  # the count sees a directive that is built


LENS_CASES = {
    **{f"corner-{name}": lens_tests.corner(name) for name in lens_tests.STRATEGIES},
    "bullet-deal": lens_tests.DEAL,
    "gingko-chunks": lens_tests.FETCH,
}


@pytest.mark.parametrize("case", sorted(LENS_CASES))
def test_a_lens_batch_lists_the_oracle_objects(case, monkeypatch):
    emit = JobPossession.directives
    emitted = []

    def checked(lens, rows):
        batch = emit(lens, rows)
        assert batch.names is lens.names and batch.caps == [None] * len(batch)
        assert list(batch) == oracles.lens_directives(lens, rows)
        emitted.append(len(batch))
        return batch

    monkeypatch.setattr(JobPossession, "directives", checked)
    shadow = lens_tests.run_shadowed(*LENS_CASES[case], max_cycles=8)
    assert shadow.decides >= 6 and sum(emitted) == shadow.directives > 0


#: name -> (scenario that catches it, class, method, edits)
MUTANTS = {
    # a pair key decoded as (source, destination)
    "endpoints-swapped": (
        lens_tests.corner("direct"), JobPossession, "directives",
        [("[key % width for key in keys], [key // width for key in keys]",
          "[key // width for key in keys], [key % width for key in keys]")],
    ),
    # every directive after the first starts one row late
    "bound-off-by-one": (
        lens_tests.DEAL, JobPossession, "directives",
        [("column, bounds.tolist()", "column, [0, *(bounds[1:] + 1).tolist()]")],
    ),
    # every directive of a concatenated batch carries the first one's job
    "job-of-the-first-part": (
        lens_tests.corner("gingko"), DirectiveBatch, "concat",
        [("[j for part in parts for j in part.job_ids]",
          "[parts[0].job_ids[0] for part in parts for j in part.job_ids]")],
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(name, monkeypatch):
    (strategy, params, scenario), cls, method, edits = MUTANTS[name]
    function = lens_tests.mutant(cls, method, *edits)  # a stale edit fails here
    monkeypatch.setattr(cls, method, function)
    with pytest.raises(AssertionError):
        lens_tests.run_shadowed(strategy, params, scenario, max_cycles=8)
