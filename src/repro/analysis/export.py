"""Exporting simulation results to JSON for external analysis.

:class:`~repro.net.result.SimResult` holds live objects (the possession
index, cycle stats); this module flattens the analysis-relevant parts into
plain JSON so results can be archived, diffed across runs, or loaded into
other tools. Resource keys are rendered as ``kind:part:part`` strings.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.net.result import CycleStats, SimResult

PathLike = Union[str, Path]

EXPORT_FORMAT_VERSION = 10

#: Versions :func:`load_result_dict` accepts. v3 payloads predate the
#: routing-solver telemetry (iterations/phases/warm_start), v4 payloads
#: predate the data-plane fields (stage ``deliver_apply``, per-cycle
#: ``rate_stalemates``), v5 payloads predate the event-engine
#: accounting (per-cycle ``decision_reused``/``fast_forwarded``, top-level
#: ``cycles_decision_reused``/``cycles_fast_forwarded``), v6 payloads
#: predate the sharded control-plane telemetry (per-cycle ``sharding``
#: subdict: shard count, per-shard walls, reconciliation wall), and v7
#: payloads predate the shard-local state telemetry (``sharding`` gains
#: the decide ``stride`` and per-shard ``state_bytes`` /
#: ``candidate_bytes`` / ``payload_bytes``); older payloads simply lack
#: the later keys. v9 drops ``sharding.candidate_bytes``: a shard owns
#: no possession copy any more, so its ``state_bytes`` *is* its
#: candidate-table bytes (v7/v8 ``state_bytes`` counted a shard's
#: possession arrays alone). v10 drops ``sharding.stride``: every shard
#: decides every cycle, so there is no decide cadence to report.
_READABLE_VERSIONS = (3, 4, 5, 6, 7, 8, 9, 10)


def _resource_to_str(key) -> str:
    return ":".join(str(part) for part in key)


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
            "state_bytes": s.shard_state_bytes,
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
        # Unambiguous key lists ("/" in a job id would corrupt the
        # flattened keys above).
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
