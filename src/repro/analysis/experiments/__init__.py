"""The one table of the paper's experiments.

``EXPERIMENTS`` maps an id (``fig3``, ``table3``, ``ablation-merging``, …)
to its :class:`Experiment`; ``SECTIONS`` is the same entries grouped the
way EXPERIMENTS.md lists them. An artefact is added by writing its entry
in the module of its paper section and naming it in that module's
``SECTIONS`` — every driver picks it up from here.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Mapping, Tuple

from repro.analysis.experiments import design, evaluation, motivation
from repro.analysis.experiments.base import Experiment, mask_wall, wall

SECTIONS = {**motivation.SECTIONS, **evaluation.SECTIONS, **design.SECTIONS}
EXPERIMENTS: Dict[str, Experiment] = {
    entry.id: entry for entries in SECTIONS.values() for entry in entries
}

BEGIN = "<!-- BEGIN GENERATED by `python -m repro experiment all --write` -->"
END = "<!-- END GENERATED -->"


def generated_block(results: Mapping[str, Any]) -> str:
    """The paper-vs-measured tables of EXPERIMENTS.md, from one result per id."""
    lines = [
        f"Values in {wall('angle brackets')} are wall-clock readings from the "
        "machine that last wrote this block; every other measured value is "
        "simulated time or a count, the same on every run, and "
        "`tests/test_experiments.py` fails when one of them is stale.",
    ]
    for section, entries in SECTIONS.items():
        lines += [
            "",
            f"## {section}",
            "",
            "| Experiment | Paper | Measured | id |",
            "|---|---|---|---|",
        ]
        for e in entries:
            cells = (e.title, e.paper, e.row(results[e.id]), f"`{e.id}`")
            lines.append(
                "| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |"
            )
        lines += [""] + [f"* `{e.id}` — {e.scaling}" for e in entries if e.scaling]
    return "\n".join(lines) + "\n"


def _generated_span(text: str) -> Tuple[int, int]:
    start = text.index(BEGIN) + len(BEGIN) + 1
    return start, text.index(END, start)


def write_generated(path: Path, results: Mapping[str, Any]) -> bool:
    """Rewrite the generated block of ``path``; return whether it changed.

    A block that differs from the new one only in wall-clock readings is
    left alone, so a second ``--write`` is a no-op.
    """
    block = generated_block(results)
    text = Path(path).read_text(encoding="utf-8")
    start, end = _generated_span(text)
    if mask_wall(text[start:end]) == mask_wall(block):
        return False
    Path(path).write_text(text[:start] + block + text[end:], encoding="utf-8")
    return True
