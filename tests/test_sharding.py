"""Unit tests for the deterministic job→shard partitioner.

The assignment must be platform-stable: the same job id and shard
count map to the same shard on every run, interpreter, and machine
(no reliance on Python's per-process ``hash()`` randomization). The
golden values below pin that contract — they may only change with an
explicit format break.
"""

from __future__ import annotations

import pytest

from repro.core.sharding import (
    AffinityAssigner,
    _hash64,
    job_weight,
    stable_shard,
)


class _FakeJob:
    def __init__(self, job_id: str) -> None:
        self.job_id = job_id


class _WeightedJob:
    def __init__(self, job_id: str, src_dc: str, blocks: int, dsts: int) -> None:
        self.job_id = job_id
        self.src_dc = src_dc
        self.blocks = list(range(blocks))
        self.dst_dcs = tuple(f"dst{i}" for i in range(dsts))


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


def _workload(count: int = 60, dcs: int = 6):
    """Deterministic mixed-weight workload: rotating sources, varied sizes."""
    return [
        _WeightedJob(
            f"job{i}",
            f"dc{i % dcs}",
            blocks=4 + (i * 7) % 40,
            dsts=2 + i % 4,
        )
        for i in range(count)
    ]


class TestJobWeight:
    def test_pair_count(self):
        job = _WeightedJob("a", "dc0", blocks=12, dsts=3)
        assert job_weight(job) == 36

    def test_never_zero(self):
        assert job_weight(_FakeJob("bare")) == 1
        assert job_weight(_WeightedJob("empty", "dc0", blocks=0, dsts=4)) == 1


def _assign(jobs, shards: int):
    """Job id -> shard, assigning ``jobs`` in order."""
    assigner = AffinityAssigner(shards)
    return {job.job_id: assigner.assign(job) for job in jobs}


class TestAffinityAssigner:
    def test_deterministic_and_repeatable(self):
        assert _assign(_workload(), 4) == _assign(_workload(), 4)

    def test_sticky(self):
        jobs = _workload()
        assigner = AffinityAssigner(4)
        before = [assigner.assign(j) for j in jobs]
        # Re-asking (any order) never moves a placed job.
        after = [assigner.assign(j) for j in reversed(jobs)]
        assert after == list(reversed(before))

    def test_single_shard_all_zero(self):
        assert set(_assign(_workload(), 1).values()) == {0}

    def test_range(self):
        mapping = _assign(_workload(), 5)
        assert all(0 <= s < 5 for s in mapping.values())

    def test_co_locates_same_source(self):
        # Equal-weight round-robin over as many sources as shards: homes
        # land on distinct shards, the fleet stays balanced, and every
        # source keeps all its jobs on its home shard (the hash
        # partitioner scatters them almost surely).
        jobs = [
            _WeightedJob(f"j{i}", f"dc{i % 4}", blocks=2, dsts=2)
            for i in range(32)
        ]
        mapping = _assign(jobs, 4)
        by_src = {}
        for job in jobs:
            by_src.setdefault(job.src_dc, set()).add(mapping[job.job_id])
        assert all(len(shards) == 1 for shards in by_src.values())
        # ...and the four sources occupy four distinct shards.
        assert len({next(iter(s)) for s in by_src.values()}) == 4

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_balance_bound(self, shards):
        jobs = _workload(count=120)
        assigner = AffinityAssigner(shards, slack=0.25)
        for job in jobs:
            assigner.assign(job)
        mean = assigner.total / shards
        max_w = max(job_weight(j) for j in jobs)
        # Documented bound: the slack envelope plus one indivisible job.
        assert max(assigner.loads) <= (1 + assigner.slack) * mean + max_w

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            AffinityAssigner(0)
        with pytest.raises(ValueError):
            AffinityAssigner(2, slack=-0.1)
