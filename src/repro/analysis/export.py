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
