"""Blocks: splitting and identity; a job's split against the loop."""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.overlay.blocks import Block, DEFAULT_BLOCK_SIZE
from repro.overlay.job import MulticastJob
from repro.utils.units import MB

from tests.oracles import split_into_blocks


class TestBlock:
    def test_identity(self):
        block = Block(job_id="j", index=3, size=2 * MB)
        assert block.block_id == ("j", 3)

    def test_ordering_by_job_then_index(self):
        blocks = [Block("b", 0, 1), Block("a", 1, 1), Block("a", 0, 1)]
        assert sorted(blocks) == [
            Block("a", 0, 1),
            Block("a", 1, 1),
            Block("b", 0, 1),
        ]

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            Block("j", 0, 0)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            Block("j", -1, 1)

    def test_hashable(self):
        assert len({Block("j", 0, 1), Block("j", 0, 1)}) == 1


class TestSplit:
    def test_default_block_size_is_2mb(self):
        assert DEFAULT_BLOCK_SIZE == 2 * MB

    def test_even_split(self):
        blocks = split_into_blocks("j", 8 * MB, 2 * MB)
        assert len(blocks) == 4
        assert all(b.size == 2 * MB for b in blocks)

    def test_tail_block_smaller(self):
        blocks = split_into_blocks("j", 5 * MB, 2 * MB)
        assert [b.size for b in blocks] == [2 * MB, 2 * MB, 1 * MB]

    def test_single_small_file(self):
        blocks = split_into_blocks("j", 100.0, 2 * MB)
        assert len(blocks) == 1
        assert blocks[0].size == 100.0

    def test_indices_sequential(self):
        blocks = split_into_blocks("j", 10 * MB, 2 * MB)
        assert [b.index for b in blocks] == list(range(5))

    def test_sizes_sum_to_total(self):
        blocks = split_into_blocks("j", 7.3 * MB, 2 * MB)
        assert sum(b.size for b in blocks) == pytest.approx(7.3 * MB)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            split_into_blocks("j", 0)
        with pytest.raises(ValueError):
            split_into_blocks("j", 1 * MB, 0)


# -- a job's split: the formula ≡ the loop -------------------------------------

#: Tails around the loop's 1e-9 drop rule: just below, at, and just above.
TAILS = [1e-9 * (1 + e) for e in (-1e-3, -1e-12, 0.0, 1e-12, 1e-3)]


@st.composite
def splits(draw):
    """``(total_bytes, block_size)``: integral, or floats whose tail is
    drawn or sits around 1e-9; at most ≈ 500 blocks."""
    if draw(st.booleans()):
        block = draw(st.integers(1, 4 * MB))
        total = draw(st.integers(0, 500)) * block + draw(st.integers(0, block - 1))
    else:
        block = draw(
            st.floats(1e-12, 1e9) | st.sampled_from([0.1, 0.3, 1 / 3, 2.0 * MB])
        )
        tail = draw(st.sampled_from(TAILS) | st.floats(0.0, block))
        total = draw(st.integers(0, 500)) * block + tail
    assume(total > 0)
    return total, block


@settings(max_examples=200, deadline=None)
@given(splits())
@example(split=(TAILS[2], 1.0))  # a tail of exactly 1e-9 is dropped
@example(split=(TAILS[3], 1.0))
def test_a_job_splits_as_the_loop_does(split):
    total, block = split
    job = MulticastJob("j", "dc0", ("dc1",), total, block)
    want = split_into_blocks("j", total, block)
    assert job.num_blocks == len(job.blocks) == len(want)
    assert job.block_sizes().tolist() == [float(b.size) for b in want]
    for i, expected in enumerate(want):
        got = job.blocks[i]
        assert got == expected and type(got.size) is type(expected.size)
        assert job.block_by_id(expected.block_id) == expected
    assert job.blocks[-1:] == want[-1:]
    with pytest.raises(KeyError):
        job.block_by_id(("j", len(want)))
