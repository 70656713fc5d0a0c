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
