"""Deterministic job→shard partitioning for the sharded control plane.

BDS's decision problem decomposes by job: blocks belong to exactly one
job, so possession state, scheduling and routing partition cleanly once
the job set is split — only WAN link budgets are shared across shards
(reconciled per cycle, see :mod:`repro.core.controller`). This module
owns the split itself.

The assignment must be

* **platform-stable** — the same ``(job_id, shards)`` maps to the same
  shard on every interpreter, OS, and run. Python's builtin ``hash()``
  is per-process salted (``PYTHONHASHSEED``) and therefore banned here;
  we hash the UTF-8 job id through BLAKE2b instead;
* **independent of arrival history** — ``stable_shard`` is a pure
  function of its arguments, so adding jobs never moves existing ones.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, TypeVar

JobLike = TypeVar("JobLike")

_DIGEST_SIZE = 8  # 64 bits of hash is plenty for a shard index
#: Part of the hash: another key moves every job, and with it every
#: sharded fingerprint.
_HASH_KEY = bytes(8)


def _hash64(job_id: str) -> int:
    """64-bit BLAKE2b digest of a job id (platform-stable)."""
    digest = hashlib.blake2b(
        job_id.encode("utf-8"), digest_size=_DIGEST_SIZE, key=_HASH_KEY
    ).digest()
    return int.from_bytes(digest, "little")


def stable_shard(job_id: str, shards: int) -> int:
    """Shard index of ``job_id`` under ``shards`` shards.

    A pure function of its arguments: no process state, no iteration
    order, no ``hash()`` salt. The unit tests pin golden values so a
    platform or library change that silently moved jobs would fail loud.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if shards == 1:
        return 0
    return _hash64(job_id) % shards


def job_weight(job: JobLike) -> int:
    """Balance weight of one job: its (block, destination DC) pair count.

    Pairs are what the per-shard schedule/route work and possession
    state actually scale with, so the affinity assigner balances on them
    rather than on job counts. Never returns 0 (a pathological empty job
    still occupies a slot).
    """
    blocks = len(getattr(job, "blocks", ()) or ())
    dsts = len(getattr(job, "dst_dcs", ()) or ())
    return max(1, blocks * dsts)


class AffinityAssigner:
    """Greedy source-affinity job→shard assignment (incremental).

    Jobs sharing a source DC co-locate on that DC's *home shard*: their
    transfers leave the WAN over the same origin links, so deciding them
    together lets one shard see the contention the outer max-min
    reconciliation would otherwise have to resolve across shards —
    affinity partitioning measurably lowers the reconciliation clip
    count versus the hash partitioner (asserted by the shard-scaling
    benchmark and the CI smoke job).

    Balance: a job follows its home shard only while that shard's
    *current* load (sum of :func:`job_weight`, checked before the add so
    a perfectly balanced fleet keeps co-locating) stays within
    ``(1 + slack)`` of the post-assignment mean; otherwise it spills to
    the least-loaded shard, preferring the job's :func:`stable_shard`
    when that is among the minima (the documented hash fallback for
    ties) and the lowest shard index otherwise. The resulting bound —
    max shard weight ≤ ``(1 + slack) · mean + max job weight`` (the
    trailing term is the indivisible-job slack) — is asserted by the
    unit tests.

    Determinism: assignment depends only on the order jobs are first
    seen and their ``(src_dc, job_weight)`` — no wall clock, no
    ``hash()`` salt, no float accumulation (loads are ints). Feeding
    the same job sequence reproduces the same assignment on every
    platform. Assignments are sticky: once placed, a job never moves
    (its candidate rows and warm store live where the job lives), mirroring
    ``stable_shard``'s add-only stability.
    """

    def __init__(self, shards: int, slack: float = 0.25) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if slack < 0:
            raise ValueError("slack must be >= 0")
        self.shards = shards
        self.slack = slack
        self.loads: List[int] = [0] * shards
        self.total: int = 0
        self.dc_home: Dict[str, int] = {}
        self.assignment: Dict[str, int] = {}

    def assign(self, job: JobLike) -> int:
        """Shard of ``job``, assigning it on first sight (sticky after)."""
        job_id = job.job_id
        shard = self.assignment.get(job_id)
        if shard is not None:
            return shard
        weight = job_weight(job)
        if self.shards == 1:
            shard = 0
        else:
            src_dc = getattr(job, "src_dc", "")
            home = self.dc_home.get(src_dc)
            cap = (1.0 + self.slack) * (self.total + weight) / self.shards
            if home is not None and self.loads[home] <= cap:
                shard = home
            else:
                lo = min(self.loads)
                hashed = stable_shard(job_id, self.shards)
                if self.loads[hashed] == lo:
                    shard = hashed
                else:
                    shard = self.loads.index(lo)
                if home is None:
                    self.dc_home[src_dc] = shard
        self.loads[shard] += weight
        self.total += weight
        self.assignment[job_id] = shard
        return shard
