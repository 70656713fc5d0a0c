"""Decision diffs: what the controller pushes to agents each cycle."""

import pytest

from repro.core import BDSController
from repro.core.diffs import DiffStats, diff_decisions, diff_stats_over_run
from repro.net.directive import TransferDirective
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import GB, MB, MBps


def directive(blocks=((("j", 0),)), src="s0", dst="s1", rate=None, job="j"):
    return TransferDirective(
        job_id=job,
        block_ids=tuple(blocks),
        src_server=src,
        dst_server=dst,
        rate_cap=rate,
    )


class TestDiffDecisions:
    def test_all_added_from_empty(self):
        d = directive()
        diff = diff_decisions([], [d])
        assert diff.added == [d]
        assert not diff.removed and not diff.updated
        assert diff.num_messages == 1

    def test_all_removed_to_empty(self):
        d = directive()
        diff = diff_decisions([d], [])
        assert diff.removed == [d]
        assert diff.num_messages == 1

    def test_identical_decisions_empty_diff(self):
        d = directive(rate=5.0)
        diff = diff_decisions([d], [directive(rate=5.0)])
        assert diff.num_messages == 0
        assert diff.unchanged == 1

    def test_rerate_detected(self):
        old = directive(rate=5.0)
        new = directive(rate=10.0)
        diff = diff_decisions([old], [new])
        assert diff.updated == [(old, new)]
        assert diff.num_messages == 1

    def test_rate_within_tolerance_suppressed(self):
        old = directive(rate=100.0)
        new = directive(rate=100.5)
        diff = diff_decisions([old], [new], rate_tolerance=0.01)
        assert diff.num_messages == 0

    def test_new_blocks_is_an_update(self):
        old = directive(blocks=[("j", 0)])
        new = directive(blocks=[("j", 1)])
        diff = diff_decisions([old], [new])
        assert diff.updated == [(old, new)]
        assert not diff.added and not diff.removed

    def test_shrinking_block_list_is_progress_not_a_message(self):
        old = directive(blocks=[("j", 0), ("j", 1)], rate=5.0)
        new = directive(blocks=[("j", 1)], rate=5.0)
        diff = diff_decisions([old], [new])
        assert diff.num_messages == 0
        assert diff.unchanged == 1

    def test_changed_endpoint_is_add_plus_remove(self):
        old = directive(dst="s1")
        new = directive(dst="s2")
        diff = diff_decisions([old], [new])
        assert len(diff.added) == 1 and len(diff.removed) == 1

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            diff_decisions([], [], rate_tolerance=-1)


class TestDiffStats:
    def test_savings_zero_when_everything_changes(self):
        stats = DiffStats()
        stats.record(2, diff_decisions([], [directive(), directive(dst="s2")]))
        assert stats.savings == 0.0

    def test_savings_full_when_nothing_changes(self):
        d = directive(rate=1.0)
        stats = DiffStats()
        stats.record(1, diff_decisions([d], [d]))
        assert stats.savings == 1.0

    def test_empty_run(self):
        assert DiffStats().savings == 0.0

    def test_over_run_accumulates(self):
        d1 = directive(rate=1.0)
        d2 = directive(rate=1.0, dst="s2")
        stats = diff_stats_over_run([[d1], [d1], [d1, d2]])
        assert stats.cycles == 3
        assert stats.total_directives == 4
        # Messages: add d1 (cycle 1), nothing (cycle 2), add d2 (cycle 3).
        assert stats.total_messages == 2
        assert stats.savings == pytest.approx(0.5)


class TestRealRunDiffs:
    def test_bds_run_produces_meaningful_savings(self):
        """Consecutive BDS decisions share many directives: a steady
        transfer re-rates/retains more than it churns."""
        topo = Topology.full_mesh(
            num_dcs=3, servers_per_dc=2, wan_capacity=1 * GB, uplink=5 * MBps
        )
        job = MulticastJob(
            job_id="j",
            src_dc="dc0",
            dst_dcs=("dc1", "dc2"),
            total_bytes=120 * MB,
            block_size=2 * MB,
        )
        job.bind(topo)
        controller = BDSController(seed=0)
        Simulation(
            topo, [job], controller, SimConfig(max_cycles=2000), seed=0
        ).run()
        history = [d.directives for d in controller.decisions]
        assert len(history) > 3
        stats = diff_stats_over_run(history, rate_tolerance=0.05)
        # Diffs never cost more than tearing down and re-pushing everything.
        full_push_cost = sum(len(h) for h in history) + sum(
            len(h) for h in history[:-1]
        )
        assert stats.total_messages <= full_push_cost
