"""The BDS routing step: grouping, backends, directives."""

import pytest

from repro.core import BDSController
from repro.core.routing import BDSRouter
from repro.core.scheduling import RarestFirstScheduler
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import GB, MB, MBps

from tests.oracles import Flow, resource_utilization


def make_sim(num_dcs=3, servers=2, blocks=6, uplink=10 * MBps):
    topo = Topology.full_mesh(
        num_dcs=num_dcs, servers_per_dc=servers, wan_capacity=1 * GB, uplink=uplink
    )
    job = MulticastJob(
        job_id="j",
        src_dc="dc0",
        dst_dcs=tuple(f"dc{i}" for i in range(1, num_dcs)),
        total_bytes=blocks * 2 * MB,
        block_size=2 * MB,
    )
    job.bind(topo)
    return Simulation(topo, [job], BDSController(seed=0), SimConfig())


class TestRouterConstruction:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            BDSRouter(backend="magic")

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ValueError):
            BDSRouter(epsilon=0)


@pytest.mark.parametrize("backend", ["greedy", "fptas", "lp"])
class TestBackends:
    def test_directives_produced(self, backend):
        sim = make_sim()
        view = sim.snapshot_view()
        selections = RarestFirstScheduler().select(view)
        router = BDSRouter(backend=backend)
        directives, diag = router.route(view, selections)
        assert directives
        assert diag.backend == backend
        assert diag.objective > 0
        assert diag.num_commodities > 0

    def test_rates_respect_capacities(self, backend):
        sim = make_sim()
        view = sim.snapshot_view()
        selections = RarestFirstScheduler().select(view)
        directives, _diag = BDSRouter(backend=backend).route(view, selections)
        flows = [
            Flow(
                flow_id=i,
                resources=view.topology.flow_resources(d.src_server, d.dst_server),
            )
            for i, d in enumerate(directives)
        ]
        rates = {i: d.rate_cap for i, d in enumerate(directives)}
        usage = resource_utilization(flows, rates)
        for res, used in usage.items():
            assert used <= view.bulk_capacities[res] * 1.001

    def test_sources_actually_hold_blocks(self, backend):
        sim = make_sim()
        view = sim.snapshot_view()
        selections = RarestFirstScheduler().select(view)
        directives, _ = BDSRouter(backend=backend).route(view, selections)
        for d in directives:
            for bid in d.block_ids:
                assert view.store.has(d.src_server, bid)
                assert not view.store.has(d.dst_server, bid)


class TestRoutingBehavior:
    def test_empty_selection_is_noop(self):
        sim = make_sim()
        view = sim.snapshot_view()
        directives, diag = BDSRouter().route(view, [])
        assert directives == []
        assert diag.num_selections == 0

    def test_merging_reduces_directives(self):
        sim = make_sim(blocks=12)
        view = sim.snapshot_view()
        selections = RarestFirstScheduler().select(view)
        merged, _ = BDSRouter(merge_blocks=True).route(view, selections)
        unmerged, _ = BDSRouter(merge_blocks=False).route(view, selections)
        assert len(merged) < len(unmerged)

    def test_unmerged_covers_same_blocks(self):
        sim = make_sim(blocks=6)
        view = sim.snapshot_view()
        selections = RarestFirstScheduler().select(view)
        merged, _ = BDSRouter(merge_blocks=True).route(view, selections)
        unmerged, _ = BDSRouter(merge_blocks=False).route(view, selections)

        def covered(directives):
            return {
                (bid, d.dst_server) for d in directives for bid in d.block_ids
            }

        assert covered(merged) == covered(unmerged)

    def test_rotation_gives_destinations_different_orders(self):
        """Different destination servers should not receive identical
        leading blocks — the Fig. 1 send-order diversity."""
        sim = make_sim(num_dcs=4, servers=1, blocks=12, uplink=2 * MBps)
        view = sim.snapshot_view()
        selections = RarestFirstScheduler().select(view)
        directives, _ = BDSRouter().route(view, selections)
        first_blocks = {}
        for d in directives:
            first_blocks.setdefault(d.dst_server, d.block_ids[0])
        assert len(set(first_blocks.values())) > 1

    def test_max_sources_bounds_group_fanout(self):
        sim = make_sim()
        view = sim.snapshot_view()
        # Replicate block 0 everywhere to create many candidate sources.
        job = view.jobs[0]
        for server in list(view.topology.servers)[:5]:
            view.store.seed(server, [job.blocks[0]])
        selections = RarestFirstScheduler().select(view)
        router = BDSRouter(max_sources_per_group=2)
        grouping = router._group_columns(view, selections)
        assert grouping.records
        for g in range(len(grouping.records)):
            _job, _dst, sources = grouping.key(g)
            assert 1 <= len(sources) <= 2

    def test_a_list_of_selections_is_refused(self):
        """``route`` reads columns; a scheduler must hand it a batch."""
        view = make_sim().snapshot_view()
        selections = RarestFirstScheduler().select(view)
        with pytest.raises(TypeError, match="SelectionBatch"):
            BDSRouter().route(view, list(selections))

    def test_diagnostics_runtime_positive(self):
        sim = make_sim()
        view = sim.snapshot_view()
        selections = RarestFirstScheduler().select(view)
        _, diag = BDSRouter().route(view, selections)
        assert diag.runtime > 0
        assert diag.num_selections == len(selections)


class TestWarmStartIntegration:
    def test_fptas_diagnostics_and_reuse(self):
        sim = make_sim()
        view = sim.snapshot_view()
        selections = RarestFirstScheduler().select(view)
        router = BDSRouter(backend="fptas")
        directives, diag = router.route(view, selections)
        assert diag.warm_start == "cold"
        assert diag.iterations > 0
        assert diag.phases > 0
        # Same view, same selections: the solver recognizes the identical
        # instance and returns the cached solution verbatim.
        directives2, diag2 = router.route(view, selections)
        assert diag2.warm_start == "reuse"
        assert diag2.iterations == 0
        assert diag2.objective == diag.objective
        assert [(d.src_server, d.dst_server, d.rate_cap) for d in directives] == [
            (d.src_server, d.dst_server, d.rate_cap) for d in directives2
        ]

    def test_cold_router_matches_warm_router_bit_for_bit(self):
        sim = make_sim()
        view = sim.snapshot_view()
        selections = RarestFirstScheduler().select(view)
        warm_router = BDSRouter(backend="fptas")
        warm_router.route(view, selections)  # prime the warm store
        warm_directives, _ = warm_router.route(view, selections)
        cold_directives, _ = BDSRouter(backend="fptas").route(view, selections)
        assert [
            (d.src_server, d.dst_server, d.block_ids, d.rate_cap)
            for d in warm_directives
        ] == [
            (d.src_server, d.dst_server, d.block_ids, d.rate_cap)
            for d in cold_directives
        ]

    def test_greedy_and_lp_report_no_solver_telemetry(self):
        sim = make_sim()
        view = sim.snapshot_view()
        selections = RarestFirstScheduler().select(view)
        for backend in ("greedy", "lp"):
            _, diag = BDSRouter(backend=backend).route(view, selections)
            assert diag.iterations == 0
            assert diag.phases == 0
            assert diag.warm_start == ""


class TestFPTASTransferPin:
    """One whole ``bds-fptas`` transfer, pinned to the values of PR 14.

    The ledger's ``routing_backends`` shape at 3/20 scale (6 DCs × 4
    servers, 2 MB/s NICs so an 8 MB block outlasts a 3 s cycle and every
    cycle carries partial blocks). ``lp.fptas_iterations`` is chaotic in
    the instance: a solver that rounds one path length differently takes a
    different number of pushes and moves different bytes. The numbers
    below were recorded at the commit before the scalar push loop
    (017dbd2) — a change to any of them is a different solver, not a
    faster one. ``reuse`` does not occur here (demands drain every cycle);
    ``TestWarmStartIntegration`` pins it.
    """

    def test_fingerprint_iterations_phases_and_tiers(self):
        from collections import Counter

        from repro.analysis.runner import make_strategy
        from repro.utils.units import GBps

        topo = Topology.full_mesh(
            num_dcs=6, servers_per_dc=4, wan_capacity=1 * GBps, uplink=2 * MBps
        )
        job = MulticastJob(
            job_id="backends",
            src_dc="dc0",
            dst_dcs=tuple(f"dc{i}" for i in range(1, 6)),
            total_bytes=9 * 8 * MB,
            block_size=8 * MB,
        )
        job.bind(topo)
        result = Simulation(
            topo,
            [job],
            make_strategy("bds-fptas", seed=0),
            SimConfig(cycle_seconds=3.0),
            seed=0,
        ).run()
        assert result.all_complete
        assert result.fingerprint() == (
            "7a5999a23dd3d0138964f26f928bafc2f40a40ca22abe5dc50d07cd16cbc14d7"
        )
        stats = result.cycle_stats
        assert sum(s.routing_iterations for s in stats) == 27807
        assert sum(s.routing_phases for s in stats) == 3418
        assert Counter(s.routing_warm_start for s in stats) == {
            "cold": 6,
            "warm": 8,
            "cold-fallback": 2,
        }
