"""Empirical distributions from the paper's workload study (§2.1).

The original seven-day Baidu trace (1265 multicasts across 30+ DCs) is
proprietary; the paper characterises it through three published artifacts,
all encoded here:

* **Table 1** — multicast's share of inter-DC traffic, overall and per
  application type;
* **Fig. 2a** — the CDF of the *fraction of DCs* each multicast targets
  ("90 % of multicast transfers are destined to at least 60 % of the DCs,
  and 70 % are destined to over 80 %");
* **Fig. 2b** — the CDF of transfer sizes ("for over 60 % of multicast
  transfers, the file sizes are over 1 TB (and 90 % are over 50 GB)").

Sampling uses inverse-transform over piecewise-linear CDFs through those
published anchor points.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Sequence, Tuple

from repro.utils.rng import SeedLike, make_rng
from repro.utils.units import GB, TB

# Table 1: share of each application's inter-DC traffic that is multicast,
# plus a relative traffic weight used when sampling an application mix.
APP_PROFILES: Dict[str, Dict[str, float]] = {
    "blog-articles": {"multicast_share": 0.910, "traffic_weight": 0.25},
    "search-indexing": {"multicast_share": 0.892, "traffic_weight": 0.30},
    "offline-file-sharing": {"multicast_share": 0.9818, "traffic_weight": 0.20},
    "forum-posts": {"multicast_share": 0.9808, "traffic_weight": 0.10},
    "db-syncups": {"multicast_share": 0.991, "traffic_weight": 0.15},
}

OVERALL_MULTICAST_SHARE = 0.9113  # Table 1, "All applications"


class PiecewiseLinearCDF:
    """A CDF defined by (value, probability) knots, linear between them.

    With ``log_space=True`` interpolation happens in log10(value), which is
    appropriate for heavy-tailed quantities like transfer sizes.
    """

    def __init__(
        self, knots: Sequence[Tuple[float, float]], log_space: bool = False
    ) -> None:
        if len(knots) < 2:
            raise ValueError("need at least two knots")
        xs = [x for x, _p in knots]
        ps = [p for _x, p in knots]
        if sorted(xs) != xs or sorted(ps) != ps:
            raise ValueError("knots must be sorted in both value and probability")
        if ps[0] != 0.0 or ps[-1] != 1.0:
            raise ValueError("knot probabilities must start at 0 and end at 1")
        if log_space and xs[0] <= 0:
            raise ValueError("log-space CDF needs positive values")
        self.log_space = log_space
        self._xs = [math.log10(x) for x in xs] if log_space else list(xs)
        self._ps = list(ps)
        self._raw_xs = list(xs)

    def quantile(self, probability: float) -> float:
        """Inverse CDF: the value at the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        hi = bisect.bisect_left(self._ps, probability)
        if hi == 0:
            return self._raw_xs[0]
        if hi >= len(self._ps):
            return self._raw_xs[-1]
        lo = hi - 1
        p0, p1 = self._ps[lo], self._ps[hi]
        x0, x1 = self._xs[lo], self._xs[hi]
        if p1 == p0:
            x = x1
        else:
            x = x0 + (x1 - x0) * (probability - p0) / (p1 - p0)
        value = 10**x if self.log_space else x
        # The interpolation (and the 10**x round-trip in log space) can
        # overshoot the segment end by an ulp at probability == p1; a
        # quantile must stay within the knot domain.
        return min(max(value, self._raw_xs[0]), self._raw_xs[-1])

    def sample(self, seed: SeedLike = None) -> float:
        """One inverse-transform sample."""
        rng = make_rng(seed)
        return self.quantile(float(rng.uniform(0.0, 1.0)))


def destination_fraction_cdf() -> PiecewiseLinearCDF:
    """Fig. 2a: fraction of DCs a multicast targets.

    Anchors: F(0.60) = 0.10 (90 % target at least 60 % of DCs) and
    F(0.80) = 0.30 (70 % target more than 80 %); a short lower tail starts
    at 10 % of DCs (a multicast has at least a couple of destinations).
    """
    return PiecewiseLinearCDF(
        [(0.10, 0.0), (0.60, 0.10), (0.80, 0.30), (1.00, 1.0)]
    )


def transfer_size_cdf() -> PiecewiseLinearCDF:
    """Fig. 2b: multicast transfer sizes.

    Anchors: F(50 GB) = 0.10 (90 % of transfers exceed 50 GB) and
    F(1 TB) = 0.40 (60 % exceed 1 TB), with a 1 GB floor and a 100 TB tail
    consistent with the paper's "hundreds of TB" upper range.
    """
    return PiecewiseLinearCDF(
        [
            (1 * GB, 0.0),
            (50 * GB, 0.10),
            (1 * TB, 0.40),
            (10 * TB, 0.85),
            (100 * TB, 1.0),
        ],
        log_space=True,
    )


def sample_application(seed: SeedLike = None) -> str:
    """Sample an application type by traffic weight (Table 1 mix)."""
    rng = make_rng(seed)
    names = sorted(APP_PROFILES)
    weights = [APP_PROFILES[n]["traffic_weight"] for n in names]
    total = math.fsum(weights)
    roll = float(rng.uniform(0.0, total))
    acc = 0.0
    for name, weight in zip(names, weights):
        acc += weight
        if roll <= acc:
            return name
    return names[-1]
