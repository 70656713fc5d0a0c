"""Controller replication and failover (§5.3).

The production system replicates the controller over three ZooKeeper-backed
replicas: when the master fails, another replica is elected; when *all*
replicas are unreachable (e.g. a network partition), agents fall back to
the decentralized overlay protocol. :class:`ControllerReplicaSet` models the
replica group at cycle granularity; the simulation couples its
``has_leader()`` output to ``ClusterView.controller_available``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.utils.validation import check_positive


@dataclass
class ReplicaState:
    """Health of one controller replica."""

    name: str
    up: bool = True


class ControllerReplicaSet:
    """Leader election over a fixed replica group, advanced per cycle.

    Election is modeled after leader-based consensus: when the current
    leader dies, the surviving replicas elect a new one after
    ``election_cycles`` cycles without a leader (1 by default — elections
    complete well within a 3-second BDS cycle).
    """

    def __init__(
        self, replica_names: Optional[List[str]] = None, election_cycles: int = 1
    ) -> None:
        check_positive("election_cycles", election_cycles)
        names = replica_names or ["controller-0", "controller-1", "controller-2"]
        if len(set(names)) != len(names):
            raise ValueError("replica names must be unique")
        self.replicas: Dict[str, ReplicaState] = {
            name: ReplicaState(name=name) for name in names
        }
        self.election_cycles = election_cycles
        self._leader: Optional[str] = names[0]
        self._cycles_without_leader = 0

    # -- failure injection ---------------------------------------------------

    def fail(self, name: str) -> None:
        """Crash one replica; if it led, an election begins."""
        replica = self._get(name)
        replica.up = False
        if self._leader == name:
            self._leader = None
            self._cycles_without_leader = 0

    def recover(self, name: str) -> None:
        """Restart one replica (it rejoins as a follower)."""
        self._get(name).up = True

    def _get(self, name: str) -> ReplicaState:
        try:
            return self.replicas[name]
        except KeyError:
            raise KeyError(f"unknown replica {name!r}") from None

    # -- cycle advancement -------------------------------------------------------

    def tick(self) -> None:
        """Advance one cycle: run the election protocol if leaderless."""
        if self._leader is not None:
            if not self.replicas[self._leader].up:
                self._leader = None
                self._cycles_without_leader = 0
            else:
                return
        survivors = sorted(n for n, r in self.replicas.items() if r.up)
        if not survivors:
            return
        self._cycles_without_leader += 1
        if self._cycles_without_leader >= self.election_cycles:
            # Deterministic election: lowest surviving name wins.
            self._leader = survivors[0]
            self._cycles_without_leader = 0

    # -- queries -----------------------------------------------------------------

    @property
    def leader(self) -> Optional[str]:
        return self._leader

    def has_leader(self) -> bool:
        """True when a controller is available to make centralized decisions."""
        return self._leader is not None
