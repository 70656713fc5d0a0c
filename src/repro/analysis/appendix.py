"""The paper's appendix: balanced replicas finish faster than imbalanced.

The appendix proves that, all else equal, a *balanced* distribution of
block replicas (every block has ``k`` copies) completes strictly faster
than an *imbalanced* one (half the blocks with ``k1 < k`` copies, half with
``k2 > k``, mean k) — the analytic justification for rarest-first
scheduling. The closed forms (paper Eq. 6):

    t_A = V / min(c, k·R_up/(m−k), k·R_down/(m−k))
    t_B = V / min(c, k1·R/(m−k1), k2·R/(m−k2), …)  →  (m−k1)·V' / (k1·R)

with ``V`` the untransmitted volume and ``R = min(R_up, R_down)``. Since
``(m−k)V/(kR)`` is monotonically decreasing in ``k`` (Eq. 7) and
``k1 < k``, ``t_A < t_B``.
"""

from __future__ import annotations

from typing import Optional

from repro.utils.validation import check_positive


def _check_common(num_blocks: int, m: int, rho: float, rate: float) -> None:
    check_positive("num_blocks", num_blocks)
    check_positive("m", m)
    check_positive("rho", rho)
    check_positive("rate", rate)


def balanced_completion_time(
    num_blocks: int,
    m: int,
    k: int,
    rho: float,
    rate: float,
    link_capacity: Optional[float] = None,
) -> float:
    """``t_A``: every one of ``num_blocks`` blocks has ``k`` replicas.

    ``m`` destination DCs, block size ``rho``, per-server rate ``R``
    (``min(R_up, R_down)``). ``link_capacity`` is the inter-DC capacity
    ``c(l)``; the paper notes it is orders of magnitude above server NICs
    in production, so ``None`` drops it from the bottleneck min.
    """
    _check_common(num_blocks, m, rho, rate)
    check_positive("k", k)
    if k >= m:
        raise ValueError("k must be < m, otherwise the multicast is complete")
    volume = num_blocks * (m - k) * rho
    serving_rate = k * rate / (m - k)
    if link_capacity is not None:
        serving_rate = min(serving_rate, link_capacity)
    return volume / serving_rate


def imbalanced_completion_time(
    num_blocks: int,
    m: int,
    k1: int,
    k2: int,
    rho: float,
    rate: float,
    link_capacity: Optional[float] = None,
) -> float:
    """``t_B``: half the blocks have ``k1`` replicas, half ``k2 > k1``.

    The completion time is dominated by the rarer half (the paper's
    ``(m − k1)V / (k1 R)`` after excluding ``c(l)``).
    """
    _check_common(num_blocks, m, rho, rate)
    check_positive("k1", k1)
    check_positive("k2", k2)
    if not k1 < k2:
        raise ValueError("the imbalanced case requires k1 < k2")
    if k2 >= m:
        raise ValueError("k2 must be < m")
    volume = (num_blocks / 2) * (m - k1) * rho + (num_blocks / 2) * (m - k2) * rho
    rates = [k1 * rate / (m - k1), k2 * rate / (m - k2)]
    serving_rate = min(rates)
    if link_capacity is not None:
        serving_rate = min(serving_rate, link_capacity)
    return volume / serving_rate
