"""The strategy factory, the scenario value and the runner."""

import dataclasses

import pytest

from repro.analysis.experiments.motivation import FIG3
from repro.analysis.runner import (
    STRATEGY_NAMES,
    Scenario,
    make_strategy,
    run_many,
)
from repro.baselines import GingkoStrategy
from repro.core import BDSConfig
from repro.core.formulation import StandardLPRouter
from repro.net.simulator import SimConfig
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

    @pytest.mark.parametrize("name", ["bds-fptas", "bds-lp"])
    def test_a_named_backend_wins_over_the_config(self, name):
        backend = name[len("bds-"):]
        config = BDSConfig(shards=2)
        for controller in (make_strategy(name), make_strategy(name, config=config)):
            assert controller.config.routing_backend == backend
            assert controller.router.backend == backend
        assert make_strategy(name, config=config).config.shards == 2
        assert config.routing_backend == "greedy"  # the caller's is not written

    def test_gingko_is_strategy(self):
        assert isinstance(make_strategy("gingko", seed=1), GingkoStrategy)


def scenario(**fields):
    return Scenario.mesh(3, 2, 1 * GB, 10 * MBps, 20 * MB, 4 * MB, "j", **fields)


class TestRunnerHelpers:
    def test_run_simulation(self):
        assert scenario().run().all_complete

    def test_a_run_is_its_two_config_objects(self):
        assert [f.name for f in dataclasses.fields(Scenario)] == [
            "topology", "jobs", "topology_args", "failures", "background",
            "strategy", "config", "sim", "seed",
        ]
        result = scenario(
            sim=SimConfig(cycle_seconds=1.0, max_cycles=2),
            config=BDSConfig(max_blocks_per_cycle=1),
        ).run()
        assert result.cycles_run == 2 and result.sim_time == 2.0
        assert [stats.blocks_delivered for stats in result.cycle_stats] == [1, 1]

    def test_mesh_scenario_rotates_sources(self):
        mesh = Scenario.mesh(3, 2, 1 * GB, 10 * MBps, 8 * MB, 4 * MB, "m", jobs=4)
        jobs = mesh.build()["jobs"]
        assert [job.job_id for job in jobs] == ["m0", "m1", "m2", "m3"]
        assert [job.src_dc for job in jobs] == ["dc0", "dc1", "dc2", "dc0"]
        assert jobs[1].dst_dcs == ("dc0", "dc2")
        assert all(job.is_bound() for job in jobs)


class TestRunMany:
    def spec(self, strategy="bds", **fields):
        return scenario(strategy=strategy, seed=17, **fields)

    def test_results_in_spec_order(self):
        names = ["gingko", "bds", "direct"]
        results = run_many([self.spec(n) for n in names])
        assert all(r.all_complete for r in results)
        # Each result is the run of its own scenario, not of a neighbour.
        assert [r.fingerprint() for r in results] == [
            run_many([self.spec(n)])[0].fingerprint() for n in names
        ]

    def test_fresh_state_per_strategy(self):
        """Runs of one scenario value share no store and agree."""
        names = ["bds", "direct", "bds"]
        results = run_many([self.spec(n) for n in names])
        assert all(r.all_complete for r in results)
        assert results[0].store is not results[2].store
        assert results[0].fingerprint() == results[2].fingerprint()

    def test_spec_rejects_a_missing_scenario(self):
        with pytest.raises(TypeError):
            Scenario(strategy="bds")

    def test_scenario_errors_propagate_from_the_factory(self):
        with pytest.raises(ValueError, match="no jobs"):
            run_many([Scenario.mesh(3, 2, 1 * GB, 1 * MBps, 8 * MB, 4 * MB, jobs=0)])

    def test_failed_run_raises_naming_its_label(self):
        unknown = SimConfig(record_link_stats=True, links_of_interest=(("x",),))
        specs = [self.spec(), self.spec("gingko", sim=unknown)]
        with pytest.raises(
            RuntimeError,
            match="run 1 [(]gingko[)] failed: ValueError: links_of_interest",
        ) as raised:
            run_many(specs)
        assert isinstance(raised.value.__cause__, ValueError)


class TestExperimentEntryPoints:
    """The entries themselves are checked in ``tests/test_experiments.py``."""

    def test_fig3_topology_shape(self):
        topo = FIG3.build()["topology"]
        assert set(topo.dc_names()) == {"A", "B", "C"}
        assert topo.link_capacity("A", "C") < topo.link_capacity("A", "B")
