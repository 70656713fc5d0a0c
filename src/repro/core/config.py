"""Configuration for the BDS controller.

The §5.4 defaults the controller does not own live where they are read:
2 MB blocks on :class:`repro.overlay.job.MulticastJob`, the 3-second
update cycle and the 80 % safety threshold on
:class:`repro.net.simulator.SimConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.utils.validation import check_positive

ROUTING_BACKENDS = ("fptas", "lp", "greedy")
SHARD_PARTITIONS = ("hash", "affinity")
#: Sentinel value of ``shard_stride`` selecting the adaptive controller.
SHARD_STRIDE_AUTO = "auto"


@dataclass
class BDSConfig:
    """Tunable parameters of the centralized control loop.

    The §5.2 ΔT the whole decide→deliver loop must fit inside is the
    simulator's (``SimConfig.cycle_seconds``, which every view carries);
    the controller reads it from the view it decides on. The
    per-directive rates the controller assigns are enforced downstream by
    the shared rate kernel (:func:`repro.net.flow.clip_rates_to_capacity`),
    which proportionally scales any resource the (possibly stale, §5.1)
    allocation oversubscribed — the controller itself never needs to
    re-check physics.

    In the simulator (:mod:`repro.net.simulator`) the loop re-runs every
    ΔT while any job is active (idle stretches are skipped), and jobs may
    request a coarser per-job cadence via
    :attr:`repro.overlay.job.MulticastJob.cycle_seconds` (a multiple of
    ΔT).
    """

    routing_backend: str = "greedy"
    epsilon: float = 0.1
    max_blocks_per_cycle: int = 0  # 0 = unlimited
    max_sources_per_group: int = 3
    merge_blocks: bool = True
    # §5.1 non-blocking update: feed the algorithm a delivery state that
    # speculates the completion of in-flight transfers over this horizon
    # (seconds). 0 disables speculation.
    speculation_horizon: float = 0.0
    # Schedule placements onto jobs' relay DCs (Type I path diversity
    # through non-destination DCs).
    use_relays: bool = True
    # Sharded control plane (ROADMAP "sharded multi-controller
    # scale-out"): partition the job set across this many controller
    # shards by a platform-stable hash of job id
    # (repro.core.sharding). Each shard runs the full vectorized
    # schedule+route pipeline on a mirror of its own partition
    # (repro.core.shardexec) with its own CycleCache and FPTAS warm
    # store; the shared link budgets are
    # reconciled by one outer max-min waterfill over all shards'
    # directives (repro.net.flow.max_min_fair_rates, the data plane's
    # own allocator). 1 keeps the single-controller path, bit-identical
    # to before the shards knob existed.
    shards: int = 1
    # Shard decide cadence: shard s re-runs schedule+route only on
    # cycles with cycle % stride == s % stride and replays its cached
    # directives (demands refreshed by the simulator) in between. 1 =
    # every shard decides every cycle (no staleness). Strides > 1 cap
    # the per-cycle controller wall at roughly ceil(shards/stride)
    # shards' worth of work — the knob that fits 10⁷ pairs inside ΔT on
    # one core — at the cost of newly pending work waiting up to
    # stride-1 cycles for its shard's turn. The string "auto" hands the
    # knob to the controller's adaptive stride: it starts at one shard
    # per cycle and narrows (with hysteresis) while the EWMA of the
    # measured per-shard wall (time_shard_max) projects the per-cycle
    # controller wall under half the view's cycle_seconds, widening
    # back at once when it does not.
    shard_stride: Union[int, str] = 1
    # Not an option: shards execute in the controller's process. The
    # process fan-out this once selected measured 2–13× slower and is
    # gone (docs/PERF_LOG.md); the field stays, with its one value,
    # because benchmarks/ledger/workloads.py's sharded_churn_k4 writes
    # BDSConfig(shards=4, shard_mode="inprocess") and the ledger is
    # frozen — both go in the next [benchmark] PR.
    shard_mode: str = "inprocess"
    # Job→shard partitioning policy: "hash" is the platform-stable
    # hash of job id (the default); "affinity"
    # co-locates jobs sharing a source DC onto the same shard (greedy,
    # balanced by pair-count weight, hash tie-breaks — see
    # repro.core.sharding.AffinityAssigner) so shards contend less on
    # the same WAN links and the outer reconciliation clips fewer
    # directives.
    shard_partition: str = "hash"

    def __post_init__(self) -> None:
        if self.speculation_horizon < 0:
            raise ValueError("speculation_horizon must be >= 0")
        check_positive("epsilon", self.epsilon)
        check_positive("max_sources_per_group", self.max_sources_per_group)
        if self.max_blocks_per_cycle < 0:
            raise ValueError("max_blocks_per_cycle must be >= 0 (0 = unlimited)")
        if self.routing_backend not in ROUTING_BACKENDS:
            raise ValueError(
                f"routing_backend must be one of {ROUTING_BACKENDS}, "
                f"got {self.routing_backend!r}"
            )
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if isinstance(self.shard_stride, str):
            if self.shard_stride != SHARD_STRIDE_AUTO:
                raise ValueError(
                    f"shard_stride must be an int >= 1 or "
                    f"{SHARD_STRIDE_AUTO!r}, got {self.shard_stride!r}"
                )
        elif self.shard_stride < 1:
            raise ValueError("shard_stride must be >= 1")
        if self.shard_mode != "inprocess":
            raise ValueError(
                f"shard_mode={self.shard_mode!r}: shards execute in-process; "
                "the process fan-out was removed (it measured 2-13x slower "
                "than the in-process mirrors, docs/PERF_LOG.md)"
            )
        if self.shard_partition not in SHARD_PARTITIONS:
            raise ValueError(
                f"shard_partition must be one of {SHARD_PARTITIONS}, "
                f"got {self.shard_partition!r}"
            )
