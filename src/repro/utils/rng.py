"""Deterministic random-number-generator plumbing.

Every stochastic component in the reproduction (workload generator,
decentralized baselines, latency model, failure injection) takes an explicit
``numpy.random.Generator`` so that experiments are reproducible end to end.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``seed``.

    Accepts an int seed, an existing generator (returned unchanged), or
    ``None`` for OS entropy. Centralizing this keeps call sites uniform.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
