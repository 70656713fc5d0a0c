"""The strategy factory, runner, and smaller experiment entry points."""

import pytest

from repro.analysis.experiments import (
    exp_fig4_disjointness,
    exp_fig11bc_delays,
    exp_fig12a_fault_tolerance,
    exp_fig13c_origin_fraction,
    exp_interference,
    exp_workload_characterization,
    fig3_topology,
)
from repro.analysis.runner import (
    STRATEGY_NAMES,
    RunSpec,
    compare_strategies,
    make_strategy,
    run_many,
    run_simulation,
)
from repro.baselines import GingkoStrategy
from repro.core.formulation import StandardLPRouter
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import GB, MB, MBps


class TestMakeStrategy:
    def test_all_names_construct(self):
        for name in STRATEGY_NAMES:
            assert make_strategy(name, seed=0) is not None

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_strategy("carrier-pigeon")

    def test_bds_backends(self):
        assert make_strategy("bds").router.backend == "greedy"
        assert make_strategy("bds-fptas").router.backend == "fptas"
        assert make_strategy("bds-lp").router.backend == "lp"
        assert isinstance(make_strategy("bds-standard-lp").router, StandardLPRouter)

    def test_gingko_is_strategy(self):
        assert isinstance(make_strategy("gingko", seed=1), GingkoStrategy)


class TestRunnerHelpers:
    def build(self):
        topo = Topology.full_mesh(3, 2, 1 * GB, 10 * MBps)
        job = MulticastJob(
            job_id="j",
            src_dc="dc0",
            dst_dcs=("dc1", "dc2"),
            total_bytes=20 * MB,
            block_size=4 * MB,
        )
        job.bind(topo)
        return topo, job

    def test_run_simulation(self):
        topo, job = self.build()
        result = run_simulation(topo, [job], "bds", seed=0)
        assert result.all_complete

    def test_compare_strategies_fresh_state(self):
        def topo_factory():
            return Topology.full_mesh(3, 2, 1 * GB, 10 * MBps)

        def jobs_factory(topo):
            job = MulticastJob(
                job_id="j",
                src_dc="dc0",
                dst_dcs=("dc1", "dc2"),
                total_bytes=20 * MB,
                block_size=4 * MB,
            )
            job.bind(topo)
            return [job]

        results = compare_strategies(
            topo_factory, jobs_factory, ["bds", "direct"], seed=0
        )
        assert set(results) == {"bds", "direct"}
        assert all(r.all_complete for r in results.values())


class TestRunMany:
    @staticmethod
    def scenario():
        topo, job = TestRunnerHelpers().build()
        return topo, [job]

    def spec(self, strategy="bds", **kwargs):
        return RunSpec(strategy=strategy, scenario=self.scenario, seed=17, **kwargs)

    def test_results_in_spec_order(self):
        names = ["gingko", "bds", "direct"]
        results = run_many([self.spec(n) for n in names])
        assert all(r.all_complete for r in results)
        # Each result is the run of its own spec, not of a neighbour.
        assert [r.fingerprint() for r in results] == [
            run_many([self.spec(n)])[0].fingerprint() for n in names
        ]

    def test_label_defaults_to_strategy(self):
        assert self.spec("gingko").label == "gingko"
        assert self.spec("gingko", label="arm-3").label == "arm-3"

    def test_spec_rejects_a_missing_scenario(self):
        with pytest.raises(TypeError):
            RunSpec(strategy="bds")

    def test_scenario_errors_propagate_from_the_factory(self):
        def broken():
            raise ValueError("scenario produced no jobs for x=1")

        with pytest.raises(ValueError, match="no jobs"):
            run_many([RunSpec(strategy="bds", scenario=broken)])

    def test_failed_run_raises_naming_its_label(self):
        specs = [self.spec(), self.spec("no-such-strategy", label="arm-2")]
        with pytest.raises(
            RuntimeError, match="run 'arm-2' failed: ValueError: unknown strategy"
        ) as raised:
            run_many(specs)
        assert isinstance(raised.value.__cause__, ValueError)


class TestExperimentEntryPoints:
    """Smoke-level checks that experiments reproduce the paper's *shape*."""

    def test_workload_characterization(self):
        result = exp_workload_characterization(num_requests=300, seed=1)
        assert 0.8 < result.overall_share <= 1.0
        for share in result.share_by_app.values():
            assert 0.7 <= share <= 1.0
        assert len(result.sizes_bytes) > 200

    def test_fig4_mostly_disjoint(self):
        result = exp_fig4_disjointness(num_samples=300, seed=4)
        assert result.fraction_disjoint > 0.9  # paper: >95%

    def test_fig3_topology_shape(self):
        topo = fig3_topology()
        assert set(topo.dc_names()) == {"A", "B", "C"}
        assert topo.link_capacity("A", "C") < topo.link_capacity("A", "B")

    def test_fig11bc_delays(self):
        result = exp_fig11bc_delays(num_requests=500, seed=0)
        assert len(result.network_delays_s) == 500
        import statistics

        mean_ms = statistics.mean(result.network_delays_s) * 1000
        assert 10 < mean_ms < 60  # paper: ~25 ms
        assert statistics.median(result.feedback_delays_s) < 0.5

    def test_fig12a_failure_dip_and_recovery(self):
        result = exp_fig12a_fault_tolerance(seed=12)
        series = result.blocks_per_cycle
        # Progress during normal operation.
        normal = sum(series[3:9]) / 6
        assert normal > 0
        # Fallback period still makes some progress (graceful degradation).
        fallback = sum(series[21:29]) / 8
        assert fallback > 0
        # Centralized control outperforms the decentralized fallback.
        assert normal > fallback

    def test_fig13c_overlay_dominates(self):
        result = exp_fig13c_origin_fraction(seed=13)
        # Paper: for ~90% of servers, <= 20% of blocks come from the origin.
        assert result.fraction_servers_below_20pct > 0.5

    def test_interference_gingko_violates_threshold(self):
        result = exp_interference("gingko", file_bytes=1 * GB, seed=6)
        assert result.violations > 0
        assert max(result.inflation) > 1.0

    def test_interference_bds_respects_threshold(self):
        result = exp_interference("bds", file_bytes=1 * GB, seed=6)
        assert result.violations == 0
