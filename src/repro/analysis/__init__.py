"""Metrics, experiment harness, and reporting for the paper's evaluation."""

from repro.analysis.metrics import Summary, empirical_cdf, percentile, summarize
from repro.analysis.reporting import format_cdf_rows, format_series, format_table
from repro.analysis.runner import (
    STRATEGY_NAMES,
    RunSpec,
    make_strategy,
    run_many,
    run_simulation,
)
from repro.analysis.appendix import (
    balanced_completion_time,
    imbalanced_completion_time,
)
from repro.analysis.plots import ascii_bars, ascii_cdf, ascii_xy
from repro.analysis.sweeps import SweepResult, compare_sweeps, sweep
from repro.analysis.export import result_to_dict, save_result

__all__ = [
    "ascii_bars",
    "ascii_cdf",
    "ascii_xy",
    "SweepResult",
    "compare_sweeps",
    "sweep",
    "result_to_dict",
    "save_result",
    "Summary",
    "empirical_cdf",
    "percentile",
    "summarize",
    "format_cdf_rows",
    "format_series",
    "format_table",
    "make_strategy",
    "run_simulation",
    "STRATEGY_NAMES",
    "RunSpec",
    "run_many",
    "balanced_completion_time",
    "imbalanced_completion_time",
]
