"""Synthetic workload generation mirroring the Baidu trace (§2.1).

Each generated :class:`TransferRequest` samples:

* an application type by traffic weight (Table 1);
* whether the transfer is a multicast or a unicast, by that application's
  multicast share (Table 1) — unicast requests matter for reproducing the
  traffic-share table itself;
* a source DC uniformly, and a destination set whose *size* follows the
  Fig. 2a fraction-of-DCs CDF;
* a size following the Fig. 2b CDF;
* a Poisson arrival process over a configurable duration.

``to_jobs`` converts multicast requests into simulator jobs, optionally
scaling sizes down so full-stack simulations stay laptop-sized (documented
in EXPERIMENTS.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.net.topology import Topology
from repro.overlay.blocks import DEFAULT_BLOCK_SIZE
from repro.overlay.job import MulticastJob
from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import check_positive
from repro.workload.distributions import (
    APP_PROFILES,
    destination_fraction_cdf,
    sample_application,
    transfer_size_cdf,
)


@dataclass(frozen=True)
class TransferRequest:
    """One inter-DC transfer in a workload trace."""

    request_id: str
    app: str
    src_dc: str
    dst_dcs: Tuple[str, ...]
    size_bytes: float
    arrival_time: float
    is_multicast: bool

    def __post_init__(self) -> None:
        check_positive("size_bytes", self.size_bytes)
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be >= 0")
        if self.is_multicast and len(self.dst_dcs) < 2:
            # One destination is unicast by definition; the paper counts
            # replication to >= 2 DCs as multicast.
            raise ValueError("a multicast request needs at least 2 destinations")
        if not self.dst_dcs:
            raise ValueError("need at least one destination DC")
        if self.src_dc in self.dst_dcs:
            raise ValueError("source DC cannot be a destination")


class WorkloadGenerator:
    """Samples :class:`TransferRequest` streams over a set of DC names."""

    def __init__(
        self,
        dc_names: Sequence[str],
        seed: SeedLike = None,
        mean_interarrival_s: float = 480.0,
    ) -> None:
        """``mean_interarrival_s`` defaults to ~1265 transfers per 7 days,
        the paper's trace density."""
        if len(dc_names) < 3:
            raise ValueError("need at least 3 DCs for meaningful multicasts")
        check_positive("mean_interarrival_s", mean_interarrival_s)
        self.dc_names = list(dc_names)
        self.mean_interarrival_s = mean_interarrival_s
        self._rng = make_rng(seed)
        self._dest_cdf = destination_fraction_cdf()
        self._size_cdf = transfer_size_cdf()
        self._counter = 0

    # -- sampling pieces ---------------------------------------------------

    def _sample_destinations(self, src_dc: str, multicast: bool) -> Tuple[str, ...]:
        others = [d for d in self.dc_names if d != src_dc]
        if not multicast:
            pick = int(self._rng.integers(len(others)))
            return (others[pick],)
        fraction = self._dest_cdf.quantile(float(self._rng.uniform(0, 1)))
        count = max(2, min(len(others), round(fraction * len(self.dc_names))))
        idx = self._rng.choice(len(others), size=count, replace=False)
        return tuple(sorted(others[int(i)] for i in idx))

    def sample_request(self, arrival_time: float) -> TransferRequest:
        """Sample one request at the given arrival time."""
        app = sample_application(self._rng)
        share = APP_PROFILES[app]["multicast_share"]
        multicast = bool(self._rng.uniform(0, 1) < share)
        src_dc = self.dc_names[int(self._rng.integers(len(self.dc_names)))]
        dst_dcs = self._sample_destinations(src_dc, multicast)
        size = self._size_cdf.quantile(float(self._rng.uniform(0, 1)))
        self._counter += 1
        return TransferRequest(
            request_id=f"req-{self._counter:05d}",
            app=app,
            src_dc=src_dc,
            dst_dcs=dst_dcs,
            size_bytes=size,
            arrival_time=arrival_time,
            is_multicast=multicast,
        )

    def generate(
        self, count: int = 0, duration_s: float = 0.0
    ) -> List[TransferRequest]:
        """Generate a trace, bounded by ``count`` and/or ``duration_s``.

        At least one bound must be given. Arrivals follow a Poisson
        process with the configured mean interarrival time.
        """
        if count <= 0 and duration_s <= 0:
            raise ValueError("give count > 0 and/or duration_s > 0")
        requests: List[TransferRequest] = []
        now = 0.0
        while True:
            now += float(self._rng.exponential(self.mean_interarrival_s))
            if duration_s > 0 and now > duration_s:
                break
            requests.append(self.sample_request(now))
            if count > 0 and len(requests) >= count:
                break
        return requests

    def generate_diurnal(
        self,
        duration_s: float,
        diurnal_amplitude: float = 0.6,
        flash_crowd_at: float = -1.0,
        flash_crowd_size: int = 8,
    ) -> List[TransferRequest]:
        """Generate a day-scale trace with a diurnal arrival rate.

        Arrivals follow a non-homogeneous Poisson process — rate
        ``λ(t) = λ₀ · (1 + amplitude · sin(2πt / 24h))`` — sampled by
        thinning: candidates are drawn at the peak rate
        ``λ₀ · (1 + amplitude)`` and kept with probability
        ``λ(t) / λ_peak``, the standard exact construction. This is the
        workload shape the event-driven simulator core is built for: long
        quiet valleys are skipped in one pass, busy peaks execute
        normally.

        ``flash_crowd_at`` ∈ [0, 1] additionally injects a *flash crowd* —
        ``flash_crowd_size`` near-simultaneous multicast requests (one
        second apart, mirroring a coordinated content push) at that
        fraction of the duration. Negative disables it. All sampling
        comes off the generator's seeded stream, so traces are
        reproducible.
        """
        check_positive("duration_s", duration_s)
        if not 0.0 <= diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if flash_crowd_at > 1.0:
            raise ValueError("flash_crowd_at must be <= 1 (fraction) or < 0")
        day = 24 * 3600.0
        peak_rate = (1.0 + diurnal_amplitude) / self.mean_interarrival_s
        requests: List[TransferRequest] = []
        now = 0.0
        while True:
            now += float(self._rng.exponential(1.0 / peak_rate))
            if now > duration_s:
                break
            rate = (
                1.0 + diurnal_amplitude * math.sin(2.0 * math.pi * now / day)
            ) / self.mean_interarrival_s
            if float(self._rng.uniform(0, 1)) < rate / peak_rate:
                requests.append(self.sample_request(now))
        if flash_crowd_at >= 0.0:
            check_positive("flash_crowd_size", flash_crowd_size)
            burst_t = flash_crowd_at * duration_s
            for i in range(flash_crowd_size):
                request = self.sample_request(burst_t + float(i))
                if not request.is_multicast:
                    # A flash crowd is a replication event by definition:
                    # re-draw the destination set as a multicast.
                    dsts = self._sample_destinations(request.src_dc, True)
                    request = TransferRequest(
                        request_id=request.request_id,
                        app=request.app,
                        src_dc=request.src_dc,
                        dst_dcs=dsts,
                        size_bytes=request.size_bytes,
                        arrival_time=request.arrival_time,
                        is_multicast=True,
                    )
                requests.append(request)
            requests.sort(key=lambda r: r.arrival_time)
        return requests


def to_jobs(
    requests: Sequence[TransferRequest],
    topology: Topology,
    block_size: float = DEFAULT_BLOCK_SIZE,
    size_scale: float = 1.0,
    relative_arrivals: bool = True,
) -> List[MulticastJob]:
    """Convert multicast requests to bound simulator jobs.

    ``size_scale`` shrinks transfer sizes (e.g. ``1e-3``) so that full
    simulations finish quickly while preserving relative job sizes;
    ``relative_arrivals`` shifts the first arrival to t=0.
    """
    check_positive("size_scale", size_scale)
    multicasts = [r for r in requests if r.is_multicast]
    offset = min((r.arrival_time for r in multicasts), default=0.0)
    if not relative_arrivals:
        offset = 0.0
    jobs: List[MulticastJob] = []
    known_dcs = set(topology.dc_names())
    for request in multicasts:
        if request.src_dc not in known_dcs:
            raise ValueError(f"request source {request.src_dc!r} not in topology")
        dsts = tuple(d for d in request.dst_dcs if d in known_dcs)
        if len(dsts) < 1:
            continue
        job = MulticastJob(
            job_id=request.request_id,
            src_dc=request.src_dc,
            dst_dcs=dsts,
            total_bytes=max(block_size, request.size_bytes * size_scale),
            block_size=block_size,
            arrival_time=request.arrival_time - offset,
        )
        job.bind(topology)
        jobs.append(job)
    return jobs
