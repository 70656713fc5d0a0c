"""Exporting simulation results to JSON for external analysis.

:class:`~repro.net.simulator.SimResult` holds live objects (the possession
index, cycle stats); this module flattens the analysis-relevant parts into
plain JSON so results can be archived, diffed across runs, or loaded into
other tools. Resource keys are rendered as ``kind:part:part`` strings.

Since format version 3 the export is also a *round-trip* format:
:func:`result_from_dict` rebuilds a :class:`SimResult` whose completion
metrics, cycle stats, and per-server origin fractions match the original
bit-for-bit. The content-addressed run cache
(:mod:`repro.analysis.runcache`) stores exactly these payloads, so a cache
hit hands back a result interchangeable with a live run for every
analysis consumer. Only the live possession internals (per-block holder
sets, delivery records) and feedback samples are not carried across.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.net.simulator import CycleStats, SimResult

PathLike = Union[str, Path]

EXPORT_FORMAT_VERSION = 8

#: Versions :func:`result_from_dict` can restore. v3 payloads predate the
#: routing-solver telemetry (iterations/phases/warm_start), v4 payloads
#: predate the data-plane fields (stage ``deliver_apply``, per-cycle
#: ``rate_stalemates``), v5 payloads predate the event-engine
#: accounting (per-cycle ``decision_reused``/``fast_forwarded``, top-level
#: ``cycles_decision_reused``/``cycles_fast_forwarded``), v6 payloads
#: predate the sharded control-plane telemetry (per-cycle ``sharding``
#: subdict: shard count, per-shard walls, reconciliation wall), and v7
#: payloads predate the shard-local state telemetry (``sharding`` gains
#: the effective ``stride`` and per-shard ``state_bytes`` /
#: ``candidate_bytes`` / ``payload_bytes``); all simply restore to the
#: zero/false defaults.
_READABLE_VERSIONS = (3, 4, 5, 6, 7, 8)


def _resource_to_str(key) -> str:
    return ":".join(str(part) for part in key)


def _resource_from_str(text: str) -> Tuple[str, ...]:
    return tuple(text.split(":"))


def _cycle_to_dict(s: CycleStats) -> Dict[str, Any]:
    return {
        "cycle": s.cycle,
        "time": s.time,
        "blocks_delivered": s.blocks_delivered,
        "bytes_transferred": s.bytes_transferred,
        "active_flows": s.active_flows,
        "controller_available": s.controller_available,
        "link_bulk_usage": {
            _resource_to_str(k): v for k, v in s.link_bulk_usage.items()
        },
        "link_online_usage": {
            _resource_to_str(k): v for k, v in s.link_online_usage.items()
        },
        "max_delay_inflation": s.max_delay_inflation,
        "stage_times": {
            "view_build": s.time_view_build,
            "decide": s.time_decide,
            "schedule": s.time_schedule,
            "route": s.time_route,
            "rate_resolve": s.time_rate_resolve,
            "deliver": s.time_deliver,
            "deliver_apply": s.time_deliver_apply,
        },
        "rate_stalemates": s.rate_stalemates,
        "routing_solver": {
            "iterations": s.routing_iterations,
            "phases": s.routing_phases,
            "warm_start": s.routing_warm_start,
        },
        "decision_reused": s.decision_reused,
        "fast_forwarded": s.fast_forwarded,
        "sharding": {
            "shard_count": s.shard_count,
            "shard_max": s.time_shard_max,
            "shard_mean": s.time_shard_mean,
            "reconcile": s.time_reconcile,
            "stride": s.shard_stride,
            "state_bytes": s.shard_state_bytes,
            "candidate_bytes": s.shard_candidate_bytes,
            "payload_bytes": s.shard_payload_bytes,
        },
    }


def result_to_dict(result: SimResult, include_cycles: bool = True) -> Dict[str, Any]:
    """Flatten a :class:`SimResult` into JSON-serializable primitives."""
    payload: Dict[str, Any] = {
        "format_version": EXPORT_FORMAT_VERSION,
        "cycles_run": result.cycles_run,
        "sim_time": result.sim_time,
        "wall_time": result.wall_time,
        "all_complete": result.all_complete,
        "job_completion": dict(result.job_completion),
        "dc_completion": {
            f"{job}/{dc}": t for (job, dc), t in result.dc_completion.items()
        },
        "server_completion": {
            f"{job}/{server}": t
            for (job, server), t in result.server_completion.items()
        },
        # Unambiguous key lists for the round-trip ("/" in a job id would
        # corrupt the flattened keys above).
        "dc_completion_items": [
            [job, dc, t] for (job, dc), t in result.dc_completion.items()
        ],
        "server_completion_items": [
            [job, server, t]
            for (job, server), t in result.server_completion.items()
        ],
        "origin_fraction_by_server": result.store.origin_fraction_by_server(),
        "total_bytes_transferred": result.total_bytes_transferred(),
        "cycles_decision_reused": result.cycles_decision_reused,
        "cycles_fast_forwarded": result.cycles_fast_forwarded,
    }
    if include_cycles:
        cycles: List[Dict[str, Any]] = []
        dt = result.cycle_stats.cycle_seconds
        for first, count in result.cycle_stats.runs():
            entry = _cycle_to_dict(first)
            cycles.append(entry)
            # The cycles of a run differ only in ``cycle`` and ``time``.
            for cycle in range(first.cycle + 1, first.cycle + count):
                cycles.append({**entry, "cycle": cycle, "time": cycle * dt})
        payload["cycles"] = cycles
    return payload


class RestoredPossession:
    """Read-only stand-in for a :class:`PossessionIndex` in restored results.

    Exports keep the evaluation-facing aggregate (the Fig. 13c per-server
    origin fractions) but not the live holder sets, so a restored result
    supports ``store.origin_fraction_by_server()`` and nothing else.
    """

    def __init__(self, origin_fractions: Dict[str, float]) -> None:
        self._origin_fractions = dict(origin_fractions)

    def origin_fraction_by_server(self) -> Dict[str, float]:
        return dict(self._origin_fractions)


def result_from_dict(payload: Dict[str, Any]) -> SimResult:
    """Rebuild a :class:`SimResult` from a format-v3..v8 export payload.

    The inverse of :func:`result_to_dict` for everything the analysis
    layer consumes: completion dicts (bit-identical — JSON round-trips
    floats exactly), cycle stats with stage timings and link usage, and a
    :class:`RestoredPossession` carrying the origin fractions.
    """
    version = payload.get("format_version")
    if version not in _READABLE_VERSIONS:
        raise ValueError(
            f"unsupported export format version {version!r} "
            f"(expected one of {_READABLE_VERSIONS})"
        )
    cycle_stats: List[CycleStats] = []
    for entry in payload.get("cycles", []):
        stage = entry.get("stage_times", {})
        solver = entry.get("routing_solver", {})
        sharding = entry.get("sharding", {})
        cycle_stats.append(
            CycleStats(
                cycle=entry["cycle"],
                time=entry["time"],
                blocks_delivered=entry["blocks_delivered"],
                bytes_transferred=entry["bytes_transferred"],
                active_flows=entry["active_flows"],
                controller_available=entry["controller_available"],
                link_bulk_usage={
                    _resource_from_str(k): v
                    for k, v in entry.get("link_bulk_usage", {}).items()
                },
                link_online_usage={
                    _resource_from_str(k): v
                    for k, v in entry.get("link_online_usage", {}).items()
                },
                max_delay_inflation=entry.get("max_delay_inflation", 1.0),
                time_view_build=stage.get("view_build", 0.0),
                time_decide=stage.get("decide", 0.0),
                time_schedule=stage.get("schedule", 0.0),
                time_route=stage.get("route", 0.0),
                time_rate_resolve=stage.get("rate_resolve", 0.0),
                time_deliver=stage.get("deliver", 0.0),
                time_deliver_apply=stage.get("deliver_apply", 0.0),
                rate_stalemates=entry.get("rate_stalemates", 0),
                routing_iterations=solver.get("iterations", 0),
                routing_phases=solver.get("phases", 0),
                routing_warm_start=solver.get("warm_start", ""),
                decision_reused=entry.get("decision_reused", False),
                fast_forwarded=entry.get("fast_forwarded", False),
                shard_count=sharding.get("shard_count", 0),
                time_shard_max=sharding.get("shard_max", 0.0),
                time_shard_mean=sharding.get("shard_mean", 0.0),
                time_reconcile=sharding.get("reconcile", 0.0),
                shard_stride=sharding.get("stride", 0),
                shard_state_bytes=sharding.get("state_bytes", 0),
                shard_candidate_bytes=sharding.get("candidate_bytes", 0),
                shard_payload_bytes=sharding.get("payload_bytes", 0),
            )
        )
    return SimResult(
        cycles_run=payload["cycles_run"],
        sim_time=payload["sim_time"],
        wall_time=payload["wall_time"],
        job_completion=dict(payload["job_completion"]),
        dc_completion={
            (job, dc): t for job, dc, t in payload["dc_completion_items"]
        },
        server_completion={
            (job, server): t
            for job, server, t in payload["server_completion_items"]
        },
        cycle_stats=cycle_stats,
        store=RestoredPossession(payload.get("origin_fraction_by_server", {})),
        all_complete=payload["all_complete"],
        cycles_decision_reused=payload.get("cycles_decision_reused", 0),
        cycles_fast_forwarded=payload.get("cycles_fast_forwarded", 0),
    )


def save_result(
    result: SimResult, path: PathLike, include_cycles: bool = True
) -> None:
    """Write a result export to ``path`` as pretty-printed JSON."""
    payload = result_to_dict(result, include_cycles=include_cycles)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_result_dict(path: PathLike) -> Dict[str, Any]:
    """Read a result export back as a dictionary (not a live SimResult)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    version = payload.get("format_version")
    if version not in _READABLE_VERSIONS:
        raise ValueError(
            f"unsupported export format version {version!r} "
            f"(expected one of {_READABLE_VERSIONS})"
        )
    return payload


def load_result(path: PathLike) -> SimResult:
    """Read a result export back as a restored :class:`SimResult`."""
    return result_from_dict(load_result_dict(path))
