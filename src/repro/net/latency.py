"""Inter-DC control-plane latency model (paper Fig. 11b).

The paper reports one-way control-message delays between agents and the
controller with mean ≈ 25 ms and a 90th percentile under 50 ms. We model
each DC pair with a base propagation delay (drawn once from the pair's
geography surrogate) plus per-message lognormal jitter, which matches the
heavy-but-thin tail of the measured CDF.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import check_positive


class LatencyModel:
    """Samples one-way network delays (in seconds) between DCs."""

    def __init__(
        self,
        mean_ms: float = 25.0,
        jitter_sigma: float = 0.45,
        intra_dc_ms: float = 0.5,
        seed: SeedLike = None,
    ) -> None:
        check_positive("mean_ms", mean_ms)
        check_positive("intra_dc_ms", intra_dc_ms)
        self.mean_ms = mean_ms
        self.jitter_sigma = jitter_sigma
        self.intra_dc_ms = intra_dc_ms
        self._rng = make_rng(seed)
        self._base_ms: Dict[Tuple[str, str], float] = {}

    def _pair_base(self, dc_a: str, dc_b: str) -> float:
        """Stable base delay for a DC pair, symmetric in its endpoints."""
        key = (dc_a, dc_b) if dc_a <= dc_b else (dc_b, dc_a)
        if key not in self._base_ms:
            if dc_a == dc_b:
                self._base_ms[key] = self.intra_dc_ms
            else:
                # Base delays spread around the configured mean: a mixture of
                # nearby (metro) and far (cross-continent) DC pairs.
                self._base_ms[key] = float(
                    self._rng.uniform(0.3 * self.mean_ms, 1.4 * self.mean_ms)
                )
        return self._base_ms[key]

    def sample_delay(self, src_dc: str, dst_dc: str) -> float:
        """One-way delay in seconds for a single control message."""
        base = self._pair_base(src_dc, dst_dc)
        # Lognormal jitter with median 1: occasional congestion spikes.
        jitter = math.exp(self._rng.normal(0.0, self.jitter_sigma))
        return base * jitter / 1000.0
