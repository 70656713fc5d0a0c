"""Dynamic bandwidth separation (§5.2, Figs. 6 & 10): the budget formula.

Bulk transfers get only the *residual* below the safety threshold (80 %
of link capacity by default) once latency-sensitive traffic is served.
§5.2 is enforced in :meth:`repro.net.simulator.Simulation._bulk_capacities`,
which computes every WAN link's budget each cycle with this expression
inlined; :func:`residual_budget` is the validated scalar statement of it
that the test oracle (``tests/oracles.bulk_capacities``) is built on.
"""

from __future__ import annotations

from repro.utils.validation import check_fraction, check_non_negative, check_positive


def residual_budget(
    capacity: float, online_usage: float, threshold: float = 0.8
) -> float:
    """Bandwidth available to bulk traffic on one link.

    ``max(0, threshold × capacity − online)``: bulk may use what remains
    under the safety threshold after latency-sensitive traffic is served.
    """
    check_positive("capacity", capacity)
    check_non_negative("online_usage", online_usage)
    check_fraction("threshold", threshold)
    return max(0.0, threshold * capacity - online_usage)
