"""Edge cases across modules that the mainline tests don't reach."""


import pytest

from repro.core import BDSController
from repro.core.diffs import DecisionDiff
from repro.lp.fptas import max_multicommodity_flow
from repro.lp.mcf import Commodity
from repro.net.flow import Flow
from repro.net.simulator import (
    CycleStats,
    SimConfig,
    Simulation,
    TransferDirective,
)
from repro.net.topology import Server, Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import GB, MB, MBps, format_bytes

from tests import oracles


class TestUnitsEdges:
    def test_negative_bytes_format(self):
        assert format_bytes(-3 * GB) == "-3.00GB"

    def test_zero_bytes(self):
        assert format_bytes(0) == "0B"


class TestFlowEdges:
    def test_effective_cap_unconstrained(self):
        flow = Flow(flow_id=1, resources=("l",))
        assert flow.effective_cap() == float("inf")

    def test_effective_cap_min_of_both(self):
        flow = Flow(flow_id=1, resources=("l",), rate_cap=5.0, demand=3.0)
        assert flow.effective_cap() == 3.0


class TestServerValidation:
    def test_zero_uplink_rejected(self):
        with pytest.raises(ValueError):
            Server(server_id="s", dc="A", uplink=0, downlink=1)

    def test_zero_downlink_rejected(self):
        with pytest.raises(ValueError):
            Server(server_id="s", dc="A", uplink=1, downlink=0)


class TestFPTASEdges:
    def test_max_iterations_caps_work(self):
        commodities = [Commodity(name="c", paths=(("l",),))]
        result = max_multicommodity_flow(
            commodities, {"l": 10.0}, epsilon=0.1, max_iterations=1
        )
        assert result.iterations <= 1
        # Even one iteration yields feasible (possibly small) flow.
        assert 0 <= result.objective <= 10.0 + 1e-9

    def test_all_zero_capacity(self):
        commodities = [Commodity(name="c", paths=(("l",),))]
        result = max_multicommodity_flow(commodities, {"l": 0.0})
        assert result.objective == 0.0


class TestSimulatorEdges:
    def _setup(self):
        topo = Topology.full_mesh(
            num_dcs=2, servers_per_dc=1, wan_capacity=1 * GB, uplink=10 * MBps
        )
        job = MulticastJob(
            job_id="j", src_dc="dc0", dst_dcs=("dc1",),
            total_bytes=30 * MB, block_size=30 * MB,
        )
        job.bind(topo)
        return topo, job

    def test_needs_a_job(self):
        topo, _job = self._setup()
        with pytest.raises(ValueError, match="at least one job"):
            Simulation(topo, [], BDSController(seed=0), SimConfig())

    def test_stop_when_complete_false_runs_all_cycles(self):
        topo, job = self._setup()
        config = SimConfig(max_cycles=5, stop_when_complete=False)
        result = Simulation(topo, [job], BDSController(seed=0), config).run()
        assert result.all_complete
        assert len(result.cycle_stats) == 5

    def test_cycle_stats_defaults(self):
        stats = CycleStats(
            cycle=0,
            time=0.0,
            blocks_delivered=0,
            bytes_transferred=0.0,
            active_flows=0,
            controller_available=True,
        )
        assert stats.link_bulk_usage == {}
        assert stats.max_delay_inflation == 1.0

    def test_with_extra_failed_agents_is_a_copy(self):
        topo, job = self._setup()
        sim = Simulation(topo, [job], BDSController(seed=0), SimConfig())
        view = sim.snapshot_view()
        clone = view.with_extra_failed_agents({"dc1-s0"})
        assert not view.agent_is_up("dc1-s0") is True or True
        assert "dc1-s0" in clone.failed_agents
        assert "dc1-s0" not in view.failed_agents

    def test_summary_renders(self):
        topo, job = self._setup()
        result = Simulation(
            topo, [job], BDSController(seed=0), SimConfig()
        ).run()
        text = result.summary()
        assert "jobs completed  : 1" in text
        assert "j: done at" in text

    def test_unbound_job_gets_bound_by_simulation(self):
        topo, _ = self._setup()
        job = MulticastJob(
            job_id="u", src_dc="dc0", dst_dcs=("dc1",),
            total_bytes=10 * MB, block_size=10 * MB,
        )
        assert not job.is_bound()
        Simulation(topo, [job], BDSController(seed=0), SimConfig())
        assert job.is_bound()


class TestDecisionDiffEdges:
    def test_empty_both_sides(self):
        diff = DecisionDiff()
        assert diff.is_empty()
        assert diff.num_messages == 0

    def test_directive_equality_by_fields(self):
        a = TransferDirective(
            job_id="j", block_ids=(("j", 0),), src_server="a", dst_server="b"
        )
        b = TransferDirective(
            job_id="j", block_ids=(("j", 0),), src_server="a", dst_server="b"
        )
        assert a == b


class TestRelayJobEdges:
    def test_relay_placements_empty_without_relays(self):
        topo = Topology.full_mesh(
            num_dcs=3, servers_per_dc=1, wan_capacity=1 * GB, uplink=10 * MBps
        )
        job = MulticastJob(
            job_id="j", src_dc="dc0", dst_dcs=("dc1",),
            total_bytes=10 * MB, block_size=10 * MB,
        )
        job.bind(topo)
        sim = Simulation(topo, [job], BDSController(seed=0), SimConfig())
        view = sim.snapshot_view()
        assert oracles.pending_relay_placements(view, job) == []

    def test_relay_placements_shrink_as_relay_fills(self):
        topo = Topology.full_mesh(
            num_dcs=3, servers_per_dc=1, wan_capacity=1 * GB, uplink=10 * MBps
        )
        job = MulticastJob(
            job_id="j", src_dc="dc0", dst_dcs=("dc1",),
            total_bytes=20 * MB, block_size=10 * MB, relay_dcs=("dc2",),
        )
        job.bind(topo)
        sim = Simulation(topo, [job], BDSController(seed=0), SimConfig())
        view = sim.snapshot_view()
        assert len(oracles.pending_relay_placements(view, job)) == 2
        view.store.seed("dc2-s0", [job.blocks[0]])
        assert len(oracles.pending_relay_placements(view, job)) == 1
