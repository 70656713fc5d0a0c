"""The cycle-driven simulator: directives, progress, completion, failures."""

import pytest

from repro.baselines.base import OverlayStrategy
from repro.net.background import BackgroundTraffic
from repro.net.directive import TransferDirective
from repro.net.failures import FailureEvent, FailureSchedule
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology, wan_key
from repro.overlay.job import MulticastJob
from repro.utils.units import GB, MB, MBps

from tests import oracles


class ScriptedStrategy(OverlayStrategy):
    """Emits a fixed decision function; used to isolate simulator behavior."""

    def __init__(self, decide_fn, uses_rates=False):
        self._fn = decide_fn
        self.uses_controller_rates = uses_rates

    def decide(self, view):
        return self._fn(view)


def two_dc_topology(uplink=10 * MBps, wan=1 * GB) -> Topology:
    return Topology.full_mesh(
        num_dcs=2, servers_per_dc=2, wan_capacity=wan, uplink=uplink
    )


def one_block_job(topo, size=30 * MB) -> MulticastJob:
    job = MulticastJob(
        job_id="j", src_dc="dc0", dst_dcs=("dc1",), total_bytes=size,
        block_size=size,
    )
    job.bind(topo)
    return job


class TestDirectiveValidation:
    def test_needs_blocks(self):
        with pytest.raises(ValueError):
            TransferDirective(job_id="j", block_ids=(), src_server="a", dst_server="b")

    def test_endpoints_differ(self):
        with pytest.raises(ValueError):
            TransferDirective(
                job_id="j", block_ids=(("j", 0),), src_server="a", dst_server="a"
            )

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            TransferDirective(
                job_id="j",
                block_ids=(("j", 0),),
                src_server="a",
                dst_server="b",
                rate_cap=-1,
            )


class TestProgress:
    def test_single_block_transfer_time(self):
        """30 MB over a 10 MB/s uplink should take 3 seconds (one cycle)."""
        topo = two_dc_topology()
        job = one_block_job(topo)

        def decide(view):
            return [
                TransferDirective(
                    job_id="j",
                    block_ids=(("j", 0),),
                    src_server="dc0-s0",
                    dst_server="dc1-s0",
                )
            ]

        sim = Simulation(topo, [job], ScriptedStrategy(decide), SimConfig())
        result = sim.run()
        assert result.all_complete
        assert result.completion_time("j") == pytest.approx(3.0)

    def test_partial_progress_persists_across_cycles(self):
        """60 MB at 10 MB/s = 6 s = two 3-second cycles."""
        topo = two_dc_topology()
        job = one_block_job(topo, size=60 * MB)

        def decide(view):
            return [
                TransferDirective(
                    job_id="j",
                    block_ids=(("j", 0),),
                    src_server="dc0-s0",
                    dst_server="dc1-s0",
                )
            ]

        result = Simulation(topo, [job], ScriptedStrategy(decide), SimConfig()).run()
        assert result.completion_time("j") == pytest.approx(6.0)

    def test_rate_caps_honoured(self):
        """A 5 MB/s cap on a 10 MB/s NIC doubles the transfer time."""
        topo = two_dc_topology()
        job = one_block_job(topo, size=30 * MB)

        def decide(view):
            return [
                TransferDirective(
                    job_id="j",
                    block_ids=(("j", 0),),
                    src_server="dc0-s0",
                    dst_server="dc1-s0",
                    rate_cap=5 * MBps,
                )
            ]

        result = Simulation(
            topo, [job], ScriptedStrategy(decide, uses_rates=True), SimConfig()
        ).run()
        assert result.completion_time("j") == pytest.approx(6.0)

    def test_oversubscribed_rates_are_clipped(self):
        """Two 10 MB/s requests through one 10 MB/s uplink are halved."""
        topo = two_dc_topology()
        job = MulticastJob(
            job_id="j", src_dc="dc0", dst_dcs=("dc1",),
            total_bytes=30 * MB, block_size=15 * MB,
        )
        job.bind(topo)

        def decide(view):
            out = []
            for i, dst in enumerate(("dc1-s0", "dc1-s1")):
                bid = ("j", i)
                if not view.store.has(dst, bid):
                    out.append(
                        TransferDirective(
                            job_id="j",
                            block_ids=(bid,),
                            src_server="dc0-s0",
                            dst_server=dst,
                            rate_cap=10 * MBps,
                        )
                    )
            return out

        # Striping starts block 1 on dc0-s1; seed a copy on dc0-s0 so both
        # flows contend for the same 10 MB/s uplink.
        result = Simulation(
            topo,
            [job],
            ScriptedStrategy(decide, uses_rates=True),
            SimConfig(),
            pre_seeded={"dc0-s0": [job.blocks[1]]},
        ).run()
        # Both pull 15 MB from dc0-s0's 10 MB/s uplink at 5 MB/s each -> 3 s.
        assert result.completion_time("j") == pytest.approx(3.0)

    def test_useless_directives_filtered(self):
        """Directives for blocks the source lacks are dropped, not fatal."""
        topo = two_dc_topology()
        job = one_block_job(topo)

        def decide(view):
            return [
                TransferDirective(
                    job_id="j",
                    block_ids=(("j", 0),),
                    src_server="dc1-s1",  # holds nothing
                    dst_server="dc1-s0",
                )
            ]

        result = Simulation(
            topo, [job], ScriptedStrategy(decide), SimConfig(max_cycles=3)
        ).run()
        assert not result.all_complete
        assert all(s.active_flows == 0 for s in result.cycle_stats)

    def test_unknown_server_raises(self):
        topo = two_dc_topology()
        job = one_block_job(topo)

        def decide(view):
            return [
                TransferDirective(
                    job_id="j",
                    block_ids=(("j", 0),),
                    src_server="ghost",
                    dst_server="dc1-s0",
                )
            ]

        sim = Simulation(topo, [job], ScriptedStrategy(decide), SimConfig())
        with pytest.raises(KeyError):
            sim.run()


class TestCompletionTracking:
    def test_server_and_dc_completion(self):
        topo = two_dc_topology()
        job = MulticastJob(
            job_id="j", src_dc="dc0", dst_dcs=("dc1",),
            total_bytes=20 * MB, block_size=10 * MB,
        )
        job.bind(topo)

        def decide(view):
            out = []
            for block, _dc, server in oracles.pending_deliveries(view, job):
                src = next(iter(view.eligible_sources(block.block_id)))
                out.append(
                    TransferDirective(
                        job_id="j",
                        block_ids=(block.block_id,),
                        src_server=src,
                        dst_server=server,
                    )
                )
            return out

        result = Simulation(topo, [job], ScriptedStrategy(decide), SimConfig()).run()
        assert ("j", "dc1-s0") in result.server_completion
        assert ("j", "dc1-s1") in result.server_completion
        assert ("j", "dc1") in result.dc_completion
        assert result.job_completion["j"] == result.dc_completion[("j", "dc1")]

    def test_only_a_new_copy_on_the_assigned_server_counts(self):
        """The completion counters move on what the store answers. A
        second delivery of one (block, server) pair inside a cycle, a
        copy landing on a destination DC's other server and a relay copy
        are all real deliveries; none of them is progress."""
        topo = Topology.full_mesh(
            num_dcs=3, servers_per_dc=2, wan_capacity=1 * GB, uplink=100 * MBps
        )
        job = MulticastJob(
            job_id="j", src_dc="dc0", dst_dcs=("dc1",), relay_dcs=("dc2",),
            total_bytes=40 * MB, block_size=10 * MB,
        )
        job.bind(topo)
        assert [job.assigned_server("dc1", ("j", i)) for i in range(4)] == [
            "dc1-s0", "dc1-s1", "dc1-s0", "dc1-s1",
        ]

        def send(index, src, dst):
            return TransferDirective(
                job_id="j", block_ids=(("j", index),), src_server=src,
                dst_server=dst,
            )

        def decide(view):
            if view.cycle == 0:
                return [
                    send(0, "dc0-s0", "dc1-s0"),
                    send(0, "dc0-s0", "dc1-s0"),  # the same pair again
                    send(1, "dc0-s1", "dc1-s0"),  # block 1 belongs on dc1-s1
                    send(2, "dc0-s0", "dc2-s0"),  # a relay copy
                ]
            if view.cycle == 1:
                assert sim.state.dc_missing == {("j", "dc1"): 3}
                assert sim.state.server_missing == {
                    ("j", "dc1-s0"): 1, ("j", "dc1-s1"): 2,
                }
            return [
                send(block.index, f"dc0-s{block.index % 2}", server)
                for block, _dc, server in oracles.pending_deliveries(view, job)
            ]

        sim = Simulation(
            topo, [job], ScriptedStrategy(decide), SimConfig(max_cycles=10)
        )
        result = sim.run()
        assert result.blocks_per_cycle() == [4, 3]  # the repeat is a delivery
        assert [
            (r.block_id[1], r.dst_server) for r in result.store.deliveries[:3]
        ] == [(0, "dc1-s0"), (1, "dc1-s0"), (2, "dc2-s0")]  # …but not a copy
        assert result.all_complete
        assert result.dc_completion == {("j", "dc1"): result.job_completion["j"]}
        assert sorted(result.server_completion) == [
            ("j", "dc1-s0"), ("j", "dc1-s1"),
        ]
        assert 3.0 < result.job_completion["j"] <= 6.0
        assert sim.state.dc_missing == {("j", "dc1"): 0}

    @pytest.mark.parametrize("fast", [True, False])
    def test_finished_destinations_drop_their_order_hints(self, fast):
        """There are no order hints to drop: the simulator keeps a
        missing-delivery count and nothing else per (job, DC), whatever
        a cycle's batch size; pending-ness — ascending block index — is
        read off the store, relays included."""
        # Fast NICs: whole destinations finish inside one cycle's batch.
        # Slow ones: a cycle completes a handful of blocks. Either way a
        # cycle's deliveries land in one store call.
        topo = Topology.full_mesh(
            num_dcs=3, servers_per_dc=2, wan_capacity=2000 * MB,
            uplink=(200 if fast else 2) * MB,
        )
        job = MulticastJob(
            job_id="j", src_dc="dc0", dst_dcs=("dc1",), relay_dcs=("dc2",),
            total_bytes=400 * MB, block_size=1 * MB,
        )
        job.bind(topo)
        from repro.analysis.runner import make_strategy

        sim = Simulation(
            topo, [job], make_strategy("bds", seed=0),
            SimConfig(stop_when_complete=False, max_cycles=200),
        )
        assert sim.state.dc_missing == {("j", "dc1"): 400}  # relays are not tracked
        view = sim.snapshot_view()
        assert [
            b.index for b, _dc, _s in oracles.pending_deliveries(view, job)
        ] == list(range(400))
        assert [
            (b.index, dc, s)
            for b, dc, s in oracles.pending_relay_placements(view, job)
        ] == [(i, "dc2", f"dc2-s{i % 2}") for i in range(400)]
        batches = []
        record = sim.state.store.record_deliveries
        sim.state.store.record_deliveries = lambda *columns: (
            batches.append(len(columns[0])), record(*columns)
        )[1]
        result = sim.run()
        assert result.all_complete
        assert batches == [n for n in result.blocks_per_cycle() if n]
        assert max(batches) > 32 if fast else max(batches) < 32
        assert sim.state.dc_missing == {("j", "dc1"): 0}
        view = sim.snapshot_view(200)
        assert oracles.pending_deliveries(view, job) == []
        assert oracles.pending_relay_placements(view, job) == []

    def test_job_arrival_delays_start(self):
        topo = two_dc_topology()
        job = one_block_job(topo)
        job.arrival_time = 9.0  # cycle 3

        def decide(view):
            assert all(j.arrival_time <= view.time for j in view.jobs)
            out = []
            for j in view.jobs:
                for block, _dc, server in oracles.pending_deliveries(view, j):
                    src = next(iter(view.eligible_sources(block.block_id)))
                    out.append(
                        TransferDirective(
                            job_id=j.job_id,
                            block_ids=(block.block_id,),
                            src_server=src,
                            dst_server=server,
                        )
                    )
            return out

        result = Simulation(topo, [job], ScriptedStrategy(decide), SimConfig()).run()
        assert result.completion_time("j") >= 9.0

    def test_max_cycles_stops_incomplete_run(self):
        topo = two_dc_topology()
        job = one_block_job(topo, size=1 * GB)

        def decide(view):
            return []

        result = Simulation(
            topo, [job], ScriptedStrategy(decide), SimConfig(max_cycles=5)
        ).run()
        assert not result.all_complete
        assert len(result.cycle_stats) == 5
        with pytest.raises(KeyError):
            result.completion_time("j")

    @pytest.mark.parametrize("max_cycles", [40.5, 5.5, 6.0, True, 0])
    def test_max_cycles_is_a_count(self, max_cycles):
        """Rejected at construction: 40.5 with a late arrival used to
        raise ``TypeError`` inside ``run()``, and 5.5 ran 6 cycles."""
        with pytest.raises(ValueError, match="max_cycles must be an int >= 1"):
            SimConfig(max_cycles=max_cycles)


class TestJobIds:
    """Completion, pending and block bookkeeping are keyed by job id."""

    def _jobs(self, ids):
        from repro.analysis.runner import make_strategy

        topo = Topology.full_mesh(
            num_dcs=3, servers_per_dc=2, wan_capacity=1 * GB, uplink=50 * MBps
        )
        jobs = [
            MulticastJob(
                job_id=job_id, src_dc=f"dc{k}", dst_dcs=(f"dc{(k + 1) % 3}",),
                total_bytes=8 * MB, block_size=1 * MB,
            )
            for k, job_id in enumerate(ids)
        ]
        return topo, jobs, make_strategy("bds", seed=0)

    def test_a_repeated_id_is_rejected_by_name(self):
        # Accepted, the pair finishes at 3 s but the run spins to
        # max_cycles: one completion entry never equals two jobs.
        with pytest.raises(ValueError, match="duplicate job id 'j'"):
            Simulation(*self._jobs(["j", "k", "j"]))

    def test_distinct_ids_run_to_completion(self):
        result = Simulation(*self._jobs(["j", "k"]), SimConfig(max_cycles=50)).run()
        assert result.all_complete and sorted(result.job_completion) == ["j", "k"]
        assert result.cycles_run < 50


class TestActiveJobs:
    """The active list is every arrived, incomplete job in ``jobs``
    order, however the jobs arrive and finish."""

    def test_out_of_order_completions_keep_jobs_order(self):
        from repro.core import BDSController

        topo = Topology.full_mesh(
            num_dcs=3, servers_per_dc=2, wan_capacity=1 * GB, uplink=20 * MBps
        )
        # (id, arrival s, MB): listed, arriving and finishing in three
        # different orders.
        shapes = [("a", 6.0, 200), ("b", 0.0, 900), ("c", 3.0, 40), ("d", 0.0, 400)]
        jobs = []
        for k, (job_id, arrival, size) in enumerate(shapes):
            job = MulticastJob(
                job_id=job_id, src_dc=f"dc{k % 3}", dst_dcs=(f"dc{(k + 1) % 3}",),
                total_bytes=size * MB, block_size=4 * MB, arrival_time=arrival,
            )
            job.bind(topo)
            jobs.append(job)
        controller = BDSController(seed=0)
        seen = []

        def decide(view):
            done = set(sim.state.job_completion)
            want = [
                job.job_id for job in jobs
                if job.arrival_time <= view.time and job.job_id not in done
            ]
            seen.append(([job.job_id for job in view.jobs], want))
            # Completed jobs are pruned from the arrived indices.
            assert sim._arrived == [jobs.index(job) for job in view.jobs]
            return controller.decide(view)

        sim = Simulation(
            topo, jobs, ScriptedStrategy(decide, uses_rates=True),
            SimConfig(max_cycles=200), seed=0,
        )
        result = sim.run()
        assert result.all_complete
        finished = sorted(result.job_completion, key=result.job_completion.get)
        arrived = sorted("abcd", key=lambda j: dict((s[0], s[1]) for s in shapes)[j])
        assert finished != arrived and finished != list("abcd")
        assert all(got == want for got, want in seen)
        # c joins between b and d, and leaves before them; a, the last
        # to arrive, is listed first.
        lists = {tuple(got) for got, _want in seen}
        assert {("b", "c", "d"), ("a", "b", "d")} <= lists


class TestLinksOfInterest:
    def _simulation(self, links):
        topo = two_dc_topology()
        return Simulation(
            topo, [one_block_job(topo)], ScriptedStrategy(lambda view: []),
            SimConfig(
                max_cycles=2, record_link_stats=True, links_of_interest=links
            ),
        )

    def test_a_link_the_topology_lacks_is_rejected_by_name(self):
        # Accepted, it died with a bare KeyError inside the link-stats
        # recorder at the end of the first executed cycle.
        with pytest.raises(ValueError, match=r"'wan', 'dc0', 'dc9'"):
            self._simulation((wan_key("dc0", "dc1"), wan_key("dc0", "dc9")))

    def test_a_link_it_has_is_recorded(self):
        key = wan_key("dc0", "dc1")
        stats = self._simulation((key,)).run().cycle_stats[0]
        assert list(stats.link_bulk_usage) == [key]


class TestOneRunPerSimulation:
    def test_a_second_run_raises_and_names_the_remedy(self):
        """The first run consumes the completion bookkeeping and fills
        the store: a second one used to "complete" in one cycle at 0.0 s."""
        topo = two_dc_topology()
        sim = Simulation(
            topo, [one_block_job(topo)],
            ScriptedStrategy(
                lambda view: [
                    TransferDirective(
                        job_id="j", block_ids=(("j", 0),),
                        src_server="dc0-s0", dst_server="dc1-s0",
                    )
                ]
            ),
            SimConfig(),
        )
        first = sim.run()
        assert first.all_complete and first.job_completion == {"j": 3.0}
        with pytest.raises(RuntimeError, match="build a new Simulation"):
            sim.run()
        assert first.job_completion == {"j": 3.0}  # and nothing was touched


class TestFailuresAndBackground:
    def test_failed_agents_excluded(self):
        topo = two_dc_topology()
        job = one_block_job(topo)
        failures = FailureSchedule(
            [FailureEvent(cycle=0, kind="agent_fail", target="dc0-s0")]
        )

        def decide(view):
            assert "dc0-s0" in view.failed_agents
            return [
                TransferDirective(
                    job_id="j",
                    block_ids=(("j", 0),),
                    src_server="dc0-s0",
                    dst_server="dc1-s0",
                )
            ]

        result = Simulation(
            topo,
            [job],
            ScriptedStrategy(decide),
            SimConfig(max_cycles=2),
            failures=failures,
        ).run()
        assert not result.all_complete  # only source failed; no transfer ran

    def test_failed_link_zeroes_bulk_capacity(self):
        topo = two_dc_topology()
        job = one_block_job(topo)
        failures = FailureSchedule(
            [FailureEvent(cycle=0, kind="link_fail", target=("dc0", "dc1"))]
        )

        def decide(view):
            assert view.bulk_capacities[wan_key("dc0", "dc1")] == 0.0
            return []

        Simulation(
            topo,
            [job],
            ScriptedStrategy(decide),
            SimConfig(max_cycles=1),
            failures=failures,
        ).run()

    def test_background_reduces_bulk_budget(self):
        topo = two_dc_topology(wan=100 * MBps)
        job = one_block_job(topo)
        bg = BackgroundTraffic(
            base_fraction=0.5, diurnal_fraction=0.0, noise_fraction=0.0, seed=0
        )

        class ThresholdStrategy(ScriptedStrategy):
            respects_safety_threshold = True

        def decide(view):
            budget = view.bulk_capacities[wan_key("dc0", "dc1")]
            # 0.8 * 100 - 50 = 30 MB/s.
            assert budget == pytest.approx(30 * MBps)
            return []

        Simulation(
            topo,
            [job],
            ThresholdStrategy(decide),
            SimConfig(max_cycles=1),
            background=bg,
        ).run()

    def test_controller_unavailable_flag_propagates(self):
        topo = two_dc_topology()
        job = one_block_job(topo)
        failures = FailureSchedule(
            [FailureEvent(cycle=1, kind="controller_fail")]
        )
        seen = []

        def decide(view):
            seen.append(view.controller_available)
            return []

        Simulation(
            topo,
            [job],
            ScriptedStrategy(decide),
            SimConfig(max_cycles=3),
            failures=failures,
        ).run()
        assert seen == [True, False, False]


class TestPreSeeding:
    def test_pre_seeded_assigned_blocks_count_delivered(self):
        topo = two_dc_topology()
        job = MulticastJob(
            job_id="j", src_dc="dc0", dst_dcs=("dc1",),
            total_bytes=20 * MB, block_size=10 * MB,
        )
        job.bind(topo)
        # Seed both shard blocks directly onto their assigned servers.
        seeded = {
            "dc1-s0": [job.blocks[0]],
            "dc1-s1": [job.blocks[1]],
        }
        result = Simulation(
            topo,
            [job],
            ScriptedStrategy(lambda v: []),
            SimConfig(max_cycles=2),
            pre_seeded=seeded,
        ).run()
        assert result.all_complete
        assert result.completion_time("j") == 0.0

    def test_snapshot_view_reflects_state(self):
        topo = two_dc_topology()
        job = one_block_job(topo)
        sim = Simulation(topo, [job], ScriptedStrategy(lambda v: []), SimConfig())
        view = sim.snapshot_view()
        assert view.cycle == 0
        assert view.store.has("dc0-s0", ("j", 0))
        pending = oracles.pending_deliveries(view, job)
        assert len(pending) == 1
