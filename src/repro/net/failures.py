"""Failure injection schedules for fault-tolerance experiments (§5.3, Fig. 12a).

A :class:`FailureSchedule` is a declarative list of events at cycle
boundaries: agents (servers) failing and recovering, the controller failing
and recovering, and WAN links partitioning. The simulator queries the
schedule each cycle; components react exactly as the paper describes
(failed agents drop out as sources/sinks, a failed controller triggers the
decentralized fallback).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple

VALID_KINDS = {
    "agent_fail",
    "agent_recover",
    "controller_fail",
    "controller_recover",
    "link_fail",
    "link_recover",
    # Per-replica controller events: only meaningful when the simulation
    # runs with a ControllerReplicaSet; target is the replica name.
    "replica_fail",
    "replica_recover",
}


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled event: at the start of ``cycle``, apply ``kind``.

    ``target`` is a server id for agent events, a ``(src_dc, dst_dc)`` tuple
    for link events, and ignored for controller events.
    """

    cycle: int
    kind: str
    target: Optional[object] = None

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown failure kind {self.kind!r}")
        if self.cycle < 0:
            raise ValueError("cycle must be >= 0")
        if self.kind.startswith(("agent", "link", "replica")) and self.target is None:
            raise ValueError(f"{self.kind} requires a target")


class FailureSchedule:
    """Tracks which components are down as simulation cycles advance."""

    def __init__(self, events: Iterable[FailureEvent] = ()) -> None:
        self.events: List[FailureEvent] = sorted(events, key=lambda e: e.cycle)
        self._applied_through = -1
        self.failed_agents: Set[str] = set()
        self.failed_links: Set[Tuple[str, str]] = set()
        self.failed_replicas: Set[str] = set()
        self.controller_down = False

    def add(self, event: FailureEvent) -> None:
        """Add an event; only allowed for cycles not yet applied."""
        if event.cycle <= self._applied_through:
            raise ValueError(
                f"cannot schedule event at cycle {event.cycle}; "
                f"already applied through {self._applied_through}"
            )
        self.events.append(event)
        self.events.sort(key=lambda e: e.cycle)

    def advance_to(self, cycle: int) -> List[FailureEvent]:
        """Apply all events with ``event.cycle <= cycle``; returns them."""
        applied: List[FailureEvent] = []
        for event in self.events:
            if event.cycle <= self._applied_through or event.cycle > cycle:
                continue
            self._apply(event)
            applied.append(event)
        self._applied_through = max(self._applied_through, cycle)
        return applied

    def _apply(self, event: FailureEvent) -> None:
        if event.kind == "agent_fail":
            self.failed_agents.add(str(event.target))
        elif event.kind == "agent_recover":
            self.failed_agents.discard(str(event.target))
        elif event.kind == "controller_fail":
            self.controller_down = True
        elif event.kind == "controller_recover":
            self.controller_down = False
        elif event.kind == "link_fail":
            self.failed_links.add(tuple(event.target))  # type: ignore[arg-type]
        elif event.kind == "link_recover":
            self.failed_links.discard(tuple(event.target))  # type: ignore[arg-type]
        elif event.kind == "replica_fail":
            self.failed_replicas.add(str(event.target))
        elif event.kind == "replica_recover":
            self.failed_replicas.discard(str(event.target))

    def next_change_after(self, cycle: int) -> Optional[int]:
        """The first cycle strictly after ``cycle`` with a scheduled event.

        ``None`` means no further events exist: the failure state is
        constant for the rest of the run. This is what the event-driven
        simulator core caps an idle skip with — a
        stretch of cycles may only be skipped if every one of them is
        known to apply no failure event (events at the stretch's end
        cycle are applied normally when that cycle executes).
        """
        for event in self.events:
            if event.cycle > cycle:
                return event.cycle
        return None

    def agent_is_up(self, server_id: str) -> bool:
        return server_id not in self.failed_agents

    def link_is_up(self, src_dc: str, dst_dc: str) -> bool:
        return (src_dc, dst_dc) not in self.failed_links

    @staticmethod
    def paper_fig12a(agent: str) -> "FailureSchedule":
        """The exact schedule of Fig. 12a.

        One agent fails at cycle 10; the controller fails at cycle 20 and
        recovers at cycle 30.
        """
        return FailureSchedule(
            [
                FailureEvent(cycle=10, kind="agent_fail", target=agent),
                FailureEvent(cycle=11, kind="agent_recover", target=agent),
                FailureEvent(cycle=20, kind="controller_fail"),
                FailureEvent(cycle=30, kind="controller_recover"),
            ]
        )
