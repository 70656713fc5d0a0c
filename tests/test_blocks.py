"""Blocks: splitting and identity."""

import pytest

from repro.overlay.blocks import (
    Block,
    DEFAULT_BLOCK_SIZE,
    split_into_blocks,
)
from repro.utils.units import MB


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
