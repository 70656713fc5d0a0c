"""Unit tests for the deterministic job→shard partitioner.

The assignment must be platform-stable: the same job id and shard
count map to the same shard on every run, interpreter, and machine
(no reliance on Python's per-process ``hash()`` randomization). The
golden values below pin that contract — they may only change with an
explicit format break.
"""

from __future__ import annotations

import pytest

from repro.core.sharding import _hash64, stable_shard


class TestStableShard:
    def test_golden_values(self):
        # Pinned platform-stable assignments (keyed blake2b).
        assert _hash64("job0") == 9770455428314747166
        assert _hash64("job1") == 12121382172694623555
        assert stable_shard("job0", 4) == 2
        assert stable_shard("job1", 4) == 3
        assert stable_shard("alpha", 4) == 3
        # Non-ASCII ids hash their UTF-8 bytes.
        assert stable_shard("β-job", 4) == 1

    def test_stable_across_calls(self):
        ids = [f"job{i}" for i in range(200)]
        first = [stable_shard(j, 8) for j in ids]
        second = [stable_shard(j, 8) for j in ids]
        assert first == second

    def test_single_shard_short_circuit(self):
        assert stable_shard("anything", 1) == 0

    def test_range(self):
        for i in range(100):
            assert 0 <= stable_shard(f"j{i}", 5) < 5

    def test_roughly_balanced(self):
        ids = [f"job{i}" for i in range(1000)]
        counts = [0] * 4
        for j in ids:
            counts[stable_shard(j, 4)] += 1
        # A keyed cryptographic hash spreads uniformly; allow wide slack.
        assert min(counts) > 150

    def test_invalid_shards(self):
        with pytest.raises(ValueError):
            stable_shard("x", 0)
        with pytest.raises(ValueError):
            stable_shard("x", -2)

