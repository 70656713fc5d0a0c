"""Blocks: splitting, identity, merging."""

import pytest

from repro.overlay.blocks import (
    Block,
    DEFAULT_BLOCK_SIZE,
    group_by_pair,
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


class TestGrouping:
    def test_merges_same_pair(self):
        blocks = {b.block_id: b for b in split_into_blocks("j", 8 * MB, 2 * MB)}
        assignments = {
            ("j", 0): ("s1", "s2"),
            ("j", 1): ("s1", "s2"),
            ("j", 2): ("s1", "s3"),
            ("j", 3): ("s4", "s2"),
        }
        groups = group_by_pair(assignments, blocks)
        assert len(groups) == 3
        assert [b.index for b in groups[("s1", "s2")]] == [0, 1]

    def test_groups_sorted_by_block(self):
        blocks = {b.block_id: b for b in split_into_blocks("j", 6 * MB, 2 * MB)}
        assignments = {("j", 2): ("a", "b"), ("j", 0): ("a", "b")}
        groups = group_by_pair(assignments, blocks)
        assert [b.index for b in groups[("a", "b")]] == [0, 2]

    def test_empty(self):
        assert group_by_pair({}, {}) == {}
