"""Exact float folds over array segments."""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Sequence

import numpy as np


def segment_fsum(values: np.ndarray, bounds: Sequence[int]) -> List[float]:
    """``math.fsum(values[a:b])`` for each two consecutive ``bounds`` ``a, b``
    (rising from 0 to ``len(values)``), bit for bit.

    A value is its integer part plus its fraction, both exact (Sterbenz's
    lemma for ``x >= 1``; below, the fraction is ``x``). One
    ``np.add.reduceat`` adds the integer parts exactly while partial sums
    stay below 2**53, and a segment with fractions takes the ``fsum`` of
    that total and its fractions: the same correctly rounded exact sum.
    ``ValueError`` unless every value is finite and ``>= +0.0`` and every
    segment's integer parts add to less than 2**53.
    """
    whole = np.trunc(values)
    totals = np.add.reduceat(whole, bounds[:-1]).tolist()
    if max(totals, default=0) >= 2**53:
        raise ValueError("segment_fsum: a segment adds to 2**53 or more")
    rows = ((values != whole) | np.signbit(values)).nonzero()[0]
    if len(rows):
        fractions: Dict[int, List[float]] = {}
        # A NaN value has a NaN fraction; an infinity's total was refused above.
        for row, part in zip(rows.tolist(), (values[rows] - whole[rows]).tolist()):
            if not 0 < part < 1:  # a sign bit, or not finite
                raise ValueError(f"segment_fsum: {values[row]!r} is not finite and >= +0.0")
            fractions.setdefault(bisect_right(bounds, row) - 1, []).append(part)
        for g, parts in fractions.items():
            totals[g] = math.fsum([totals[g], *parts])
    return totals
