"""The table of paper experiments, run once at its pinned parameters.

``results`` (``tests/conftest.py``) runs every entry of
``repro.analysis.experiments.EXPERIMENTS`` once per session; nothing is
run at a second scale. Each entry's ``check`` is the shape the
reproduction claims, and the generated block of EXPERIMENTS.md must be
what ``python -m repro experiment all --write`` would write from these
results — wall-clock readings, which the rows mark, aside.
"""

from pathlib import Path

import pytest

from repro.analysis.experiments import (
    EXPERIMENTS,
    SECTIONS,
    generated_block,
    mask_wall,
    read_generated,
)

EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


def test_the_table_is_the_papers_evaluation():
    assert len(EXPERIMENTS) == 25
    assert sum(len(entries) for entries in SECTIONS.values()) == 25  # no id twice
    for name, entry in EXPERIMENTS.items():
        assert entry.id == name and entry.title and entry.paper


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_check(name, results):
    EXPERIMENTS[name].check(results[name])


def test_experiments_md_is_current(results):
    """Regenerate with ``python -m repro experiment all --write``."""
    assert mask_wall(read_generated(EXPERIMENTS_MD)) == mask_wall(
        generated_block(results)
    )


def test_wall_clock_readings_are_the_only_thing_masked():
    row = "12 commodities; ⟨0.7 ms⟩ vs ⟨28.5 ms⟩ to decide"
    assert mask_wall(row) == "12 commodities; ⟨wall⟩ vs ⟨wall⟩ to decide"
    assert mask_wall("27 s vs 30 s") == "27 s vs 30 s"
