"""``segment_fsum`` is ``math.fsum`` per segment, bit for bit.

Precondition: every value is finite and non-negative (``+0.0``, not
``-0.0``), and every segment adds to less than 2**53 — the range in which
``np.add.reduceat`` adds integer parts exactly. A violation raises
``ValueError``. The router's operands stay inside it: a row is a block's
size less the bytes buffered for it, sizes are positive, a transfer that
stops leaves its block more than a microbyte short
(``Simulation._progress_flows``), and a group's blocks belong to one job,
whose bytes are far below 2**53.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.utils.folds import segment_fsum

#: Below one: fractions of a byte, and subnormals.
_SMALL = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.0, 2.2250738585072014e-308),
).map(abs)

_VALUE = st.one_of(
    st.integers(0, 2**40).map(float),  # whole block sizes, mixed magnitudes
    st.sampled_from([4.0 * 2**20, 16.0 * 2**20]),
    st.floats(0.0, 2.0**40).map(abs),  # half-received blocks
    _SMALL,
)


@st.composite
def _segments(draw):
    """Short segments of mixed values, and maybe a long one of mostly one
    block size and a near-cap one whose integer parts add to just below
    2**53."""
    parts = draw(st.lists(st.lists(_VALUE, min_size=1, max_size=6), max_size=10))
    if draw(st.booleans()):
        rows = draw(st.integers(50, 400))
        long = [draw(st.sampled_from([3.0, 4.0 * 2**20, 16.0 * 2**20]))] * rows
        for at, value in draw(st.lists(st.tuples(st.integers(0, rows - 1), _VALUE))):
            long[at] = value
        parts.insert(draw(st.integers(0, len(parts))), long)
    if draw(st.booleans()):
        short = draw(st.integers(1, 2**12))
        near = [2.0**52, 2.0**52 - short, *draw(st.lists(_SMALL, max_size=3))]
        parts.insert(draw(st.integers(0, len(parts))), near)
    if not parts:
        parts.append([draw(_VALUE)])
    return parts


@settings(max_examples=100, deadline=None)
@given(_segments())
@example([[0.0], [5e-324], [0.5, 0.25, 2.0**52, 2.0**52 - 1.0]])
@example([[2.0**52, 2.0**52 - 1.0, 0.5], [2.0**52 + 1.0, 0.75]])
def test_segment_fsum_is_fsum_per_segment(parts):
    values = np.array([value for part in parts for value in part])
    bounds = [0, *itertools.accumulate(map(len, parts))]
    got = segment_fsum(values, bounds)
    assert [total.hex() for total in got] == [
        math.fsum(part).hex() for part in parts
    ]


def test_no_segment_sums_to_nothing():
    assert segment_fsum(np.empty(0), [0]) == []


@pytest.mark.parametrize(
    "values",
    [
        [1.0, -1.0],  # a negative integer
        [2.0, -0.5],
        [-0.0],
        [1.0, math.inf],
        [math.nan, 1.0],
        [2.0**53],
        [2.0**52, 2.0**52],  # integer parts reach 2**53
    ],
    ids=repr,
)
def test_values_outside_the_exact_range_are_refused(values):
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):  # inf - inf
        segment_fsum(np.array(values), [0, len(values)])
