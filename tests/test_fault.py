"""Controller replication and leader election."""

import pytest

from repro.core.fault import ControllerReplicaSet


class TestReplicaSet:
    def test_starts_with_leader(self):
        replicas = ControllerReplicaSet()
        assert replicas.has_leader()
        assert replicas.leader == "controller-0"
        assert all(r.up for r in replicas.replicas.values())

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ControllerReplicaSet(["a", "a"])

    def test_unknown_replica_rejected(self):
        with pytest.raises(KeyError):
            ControllerReplicaSet().fail("ghost")

    def test_leader_failure_triggers_election(self):
        replicas = ControllerReplicaSet()
        replicas.fail("controller-0")
        assert not replicas.has_leader()
        replicas.tick()
        assert replicas.has_leader()
        assert replicas.leader == "controller-1"

    def test_follower_failure_keeps_leader(self):
        replicas = ControllerReplicaSet()
        replicas.fail("controller-2")
        replicas.tick()
        assert replicas.leader == "controller-0"

    def test_election_takes_configured_cycles(self):
        replicas = ControllerReplicaSet(election_cycles=3)
        replicas.fail("controller-0")
        replicas.tick()
        assert not replicas.has_leader()
        replicas.tick()
        assert not replicas.has_leader()
        replicas.tick()
        assert replicas.has_leader()

    def test_fail_all_and_recover_all(self):
        replicas = ControllerReplicaSet()
        for name in replicas.replicas:
            replicas.fail(name)
        replicas.tick()
        assert not replicas.has_leader()
        assert not any(r.up for r in replicas.replicas.values())
        for name in replicas.replicas:
            replicas.recover(name)
        replicas.tick()
        assert replicas.has_leader()

    def test_cascading_failures(self):
        replicas = ControllerReplicaSet()
        replicas.fail("controller-0")
        replicas.tick()
        replicas.fail("controller-1")
        replicas.tick()
        assert replicas.leader == "controller-2"
        replicas.fail("controller-2")
        replicas.tick()
        assert not replicas.has_leader()

    def test_recovered_replica_rejoins_as_follower(self):
        replicas = ControllerReplicaSet()
        replicas.fail("controller-0")
        replicas.tick()
        replicas.recover("controller-0")
        replicas.tick()
        # controller-1 keeps the lead; no disruptive re-election.
        assert replicas.leader == "controller-1"

    def test_leader_detected_down_on_tick(self):
        replicas = ControllerReplicaSet()
        # Kill the leader via the replica state without the fail() helper's
        # immediate leadership clearing: tick must still notice.
        replicas.replicas["controller-0"].up = False
        replicas.tick()  # notices, starts election
        replicas.tick()
        assert replicas.leader == "controller-1"

    def test_invalid_election_cycles(self):
        with pytest.raises(ValueError):
            ControllerReplicaSet(election_cycles=0)
