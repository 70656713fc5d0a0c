"""Latency-sensitive background traffic and its interaction with bulk data.

Reproduces the substrate behind §2.3's Fig. 6 and §5.2's Fig. 10: every WAN
link carries online (latency-sensitive) traffic following a diurnal curve
with noise and bursts. When *total* utilization (online + bulk) exceeds the
safety threshold, online traffic suffers queueing delay inflation — the
"30× longer delay" incident the paper shows.

Two sampling modes:

* **continuous** (default, ``step_seconds=0``) — the curve is evaluated at
  every query time and the noise term draws from a shared stream, so the
  usage changes every cycle;
* **stepped** (``step_seconds > 0``) — the curve is held constant within
  fixed steps (e.g. 5 simulated minutes) and the noise term is derived
  from a per-``(link, step)`` counter seed instead of a shared stream.
  Stepped usage is therefore *call-pattern independent*: querying a step
  once or a thousand times, or never querying the steps before it, yields
  the same values. That property is what lets the event-driven simulator
  core skip the idle cycles inside one step — and it is also the
  realistic shape for day-scale runs, where online load reports arrive as
  periodic aggregates rather than per-3-seconds samples.

:meth:`BackgroundTraffic.state_token_at` names the background state at a
time (constant / step index / none that outlives a query — the
simulator's WAN budgets are rewritten only when it moves), and
:meth:`~BackgroundTraffic.next_change_after` bounds how far that state is
guaranteed not to move — the cap the event engine puts on an idle skip.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, Optional, Tuple

import numpy as np

from repro.net.cycle_cache import first_cycle_at_or_after
from repro.net.topology import ResourceKey
from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import check_fraction, check_positive

SECONDS_PER_DAY = 24 * 3600.0


class BackgroundTraffic:
    """Per-link latency-sensitive traffic as a function of simulated time.

    The curve is ``base + diurnal * sin(...) + noise``, expressed as a
    fraction of link capacity. Each link gets an independent random phase so
    that peaks do not align across the WAN, as in production networks.
    """

    def __init__(
        self,
        base_fraction: float = 0.25,
        diurnal_fraction: float = 0.20,
        noise_fraction: float = 0.03,
        seed: SeedLike = None,
        step_seconds: float = 0.0,
    ) -> None:
        check_fraction("base_fraction", base_fraction)
        check_fraction("diurnal_fraction", diurnal_fraction)
        check_fraction("noise_fraction", noise_fraction)
        if step_seconds < 0:
            raise ValueError("step_seconds must be >= 0 (0 = continuous)")
        self.base_fraction = base_fraction
        self.diurnal_fraction = diurnal_fraction
        self.noise_fraction = noise_fraction
        self.step_seconds = float(step_seconds)
        self._rng = make_rng(seed)
        self._phase: Dict[ResourceKey, float] = {}
        # Stepped mode: one sub-seed drawn up front (so phases stay on the
        # shared stream) plus a tiny per-link memo of the last-step values.
        self._step_seed: int = 0
        if self.step_seconds > 0:
            self._step_seed = int(self._rng.integers(0, 2**63 - 1))
        self._step_memo: Dict[ResourceKey, Tuple[int, float]] = {}

    def _link_phase(self, link: ResourceKey) -> float:
        if link not in self._phase:
            self._phase[link] = float(self._rng.uniform(0, 2 * math.pi))
        return self._phase[link]

    def is_static(self) -> bool:
        """True when usage is the same constant at every query time."""
        return self.diurnal_fraction == 0.0 and self.noise_fraction == 0.0

    def _step_index(self, time_s: float) -> int:
        return int(time_s / self.step_seconds)

    def _step_noise(self, link: ResourceKey, step: int) -> float:
        """Deterministic noise for (link, step), independent of call order.

        Seeded from (run sub-seed, link hash, step) so the value depends
        only on identity — never on how many queries preceded it.
        """
        link_tag = zlib.crc32(":".join(link).encode("utf-8"))
        rng = np.random.default_rng((self._step_seed, link_tag, step))
        return float(rng.normal(0.0, self.noise_fraction))

    def usage_fraction(self, link: ResourceKey, time_s: float) -> float:
        """Online traffic on ``link`` at ``time_s`` as a capacity fraction."""
        phase = self._link_phase(link)
        if self.step_seconds > 0:
            step = self._step_index(time_s)
            memo = self._step_memo.get(link)
            if memo is not None and memo[0] == step:
                return memo[1]
            # The curve is sampled at the step's start, so it is constant
            # within the step by construction.
            t_eff = step * self.step_seconds
            diurnal = math.sin(2 * math.pi * t_eff / SECONDS_PER_DAY + phase)
            noise = self._step_noise(link, step)
            value = (
                self.base_fraction
                + self.diurnal_fraction * 0.5 * (1 + diurnal)
                + noise
            )
            value = min(max(value, 0.0), 1.0)
            self._step_memo[link] = (step, value)
            return value
        diurnal = math.sin(2 * math.pi * time_s / SECONDS_PER_DAY + phase)
        noise = float(self._rng.normal(0.0, self.noise_fraction))
        value = self.base_fraction + self.diurnal_fraction * 0.5 * (1 + diurnal) + noise
        return min(max(value, 0.0), 1.0)

    def usage(self, link: ResourceKey, time_s: float, capacity: float) -> float:
        """Online traffic in bytes/second."""
        check_positive("capacity", capacity)
        return self.usage_fraction(link, time_s) * capacity

    # -- background state and its change-points ---------------------------

    def state_token_at(self, time_s: float) -> Optional[int]:
        """A value naming the background state at ``time_s``, if it has one.

        Equal tokens guarantee equal ``usage`` answers for every link: a
        static curve is one state, a stepped curve one state per step. A
        varying continuous curve has no state that outlives a query
        (``None``): every ``usage`` call is a fresh draw.
        """
        if self.is_static():
            return -1
        if self.step_seconds > 0:
            return self._step_index(time_s)
        return None

    def next_change_after(self, cycle: int, dt: float) -> Optional[int]:
        """First cycle after ``cycle`` whose :meth:`state_token_at` differs.

        ``None`` means never (static curve). The stepped answer is exact:
        the candidate boundary cycle is derived from the step length and
        then walked back while the *actual* token function still differs,
        so float rounding in the division can only be corrected, never
        trusted. A continuous varying curve changes every cycle.
        """
        if self.is_static():
            return None
        if self.step_seconds > 0:
            cur = self._step_index(cycle * dt)
            c = first_cycle_at_or_after((cur + 1) * self.step_seconds, dt)
            if c <= cycle:
                return cycle + 1
            while c - 1 > cycle and self._step_index((c - 1) * dt) != cur:
                c -= 1
            return c
        return cycle + 1


def delay_inflation(utilization: float, threshold: float = 0.8) -> float:
    """Queueing-delay multiplier for online traffic at a given utilization.

    Below the safety threshold the link is effectively uncongested
    (multiplier 1). Above it, delay grows like an M/M/1 queue,
    ``1 / (1 - utilization)``, capped at 100× to keep metrics finite when a
    link is driven to (or past) saturation. The paper's incident shows 30×
    inflation at sustained >80 % utilization, which this curve reproduces
    around 97 % total utilization.
    """
    check_fraction("threshold", threshold)
    if utilization <= threshold:
        return 1.0
    utilization = min(utilization, 0.999)
    inflation = (1.0 - threshold) / (1.0 - utilization)
    return min(inflation, 100.0)
