"""Configuration for the BDS controller.

The §5.4 defaults the controller does not own live where they are read:
2 MB blocks on :class:`repro.overlay.job.MulticastJob`, the 3-second
update cycle and the 80 % safety threshold on
:class:`repro.net.simulator.SimConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_count

ROUTING_BACKENDS = ("fptas", "lp", "greedy")
#: The fields that count something, and their least value
#: (:func:`~repro.utils.validation.check_count`).
_COUNTS = {
    "max_blocks_per_cycle": 0,
    "shards": 1,
}


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
    ΔT while any job is active (idle stretches are skipped).
    """

    routing_backend: str = "greedy"
    max_blocks_per_cycle: int = 0  # 0 = unlimited
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
    # (repro.core.sharding). Each shard with an active job runs the full
    # vectorized schedule+route pipeline every cycle on the live view
    # restricted to its jobs
    # (repro.core.shardexec), with its own candidate table, CycleCache
    # and FPTAS warm store; the shared link budgets are
    # reconciled by one outer max-min waterfill over all shards'
    # directives (repro.net.flow.max_min_fair_rates, the data plane's
    # own allocator). 1 keeps the single-controller path, bit-identical
    # to before the shards knob existed.
    shards: int = 1
    # Not an option: shards execute in the controller's process. The
    # process fan-out this once selected measured 2–13× slower and is
    # gone (docs/PERF_LOG.md); the field stays, with its one value,
    # because benchmarks/ledger/workloads.py's sharded_churn_k4 writes
    # BDSConfig(shards=4, shard_mode="inprocess") and the ledger is
    # frozen — both go in the next [benchmark] PR.
    shard_mode: str = "inprocess"

    def __post_init__(self) -> None:
        if self.speculation_horizon < 0:
            raise ValueError("speculation_horizon must be >= 0")
        for name, least in _COUNTS.items():
            check_count(name, getattr(self, name), least)
        if self.routing_backend not in ROUTING_BACKENDS:
            raise ValueError(
                f"routing_backend must be one of {ROUTING_BACKENDS}, "
                f"got {self.routing_backend!r}"
            )
        if self.shard_mode != "inprocess":
            raise ValueError(
                f"shard_mode={self.shard_mode!r}: shards execute in-process; "
                "the process fan-out was removed (it measured 2-13x slower "
                "than in-process shards, docs/PERF_LOG.md)"
            )
