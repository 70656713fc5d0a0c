"""The strategy factory and the runner."""

import dataclasses
import inspect

import pytest

from repro.analysis.experiments.motivation import fig3_topology
from repro.analysis.runner import (
    STRATEGY_NAMES,
    RunSpec,
    make_strategy,
    mesh_scenario,
    run_many,
    run_simulation,
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


def scenario():
    return mesh_scenario(3, 2, 1 * GB, 10 * MBps, 20 * MB, 4 * MB, "j")


class TestRunnerHelpers:
    def test_run_simulation(self):
        topo, jobs = scenario()
        result = run_simulation(topo, jobs, "bds", seed=0)
        assert result.all_complete

    def test_a_run_is_its_two_config_objects(self):
        assert list(inspect.signature(run_simulation).parameters) == [
            "topology", "jobs", "strategy_name",
            "seed", "sim", "config", "background", "failures",
        ]
        assert [f.name for f in dataclasses.fields(RunSpec)] == [
            "strategy", "scenario", "seed", "label", "config", "sim",
        ]
        topo, jobs = scenario()
        result = run_simulation(
            topo, jobs, "bds", seed=0,
            sim=SimConfig(cycle_seconds=1.0, max_cycles=2),
            config=BDSConfig(max_blocks_per_cycle=1),
        )
        assert result.cycles_run == 2 and result.sim_time == 2.0
        assert [stats.blocks_delivered for stats in result.cycle_stats] == [1, 1]

    def test_mesh_scenario_rotates_sources(self):
        topo, jobs = mesh_scenario(3, 2, 1 * GB, 10 * MBps, 8 * MB, 4 * MB, "m", jobs=4)
        assert [job.job_id for job in jobs] == ["m0", "m1", "m2", "m3"]
        assert [job.src_dc for job in jobs] == ["dc0", "dc1", "dc2", "dc0"]
        assert jobs[1].dst_dcs == ("dc0", "dc2")
        assert all(job.is_bound() for job in jobs)


class TestRunMany:
    def spec(self, strategy="bds", **kwargs):
        return RunSpec(strategy=strategy, scenario=scenario, seed=17, **kwargs)

    def test_results_in_spec_order(self):
        names = ["gingko", "bds", "direct"]
        results = run_many([self.spec(n) for n in names])
        assert all(r.all_complete for r in results)
        # Each result is the run of its own spec, not of a neighbour.
        assert [r.fingerprint() for r in results] == [
            run_many([self.spec(n)])[0].fingerprint() for n in names
        ]

    def test_fresh_state_per_strategy(self):
        """Specs sharing a scenario factory share no topology, job or store."""
        built = []

        def recording():
            built.append(scenario())
            return built[-1]

        names = ["bds", "direct", "bds"]
        results = run_many([RunSpec(n, recording, seed=0) for n in names])
        assert all(r.all_complete for r in results)
        assert len({id(topo) for topo, _ in built}) == 3
        assert len({id(jobs[0]) for _, jobs in built}) == 3
        assert results[0].store is not results[2].store
        assert results[0].fingerprint() == results[2].fingerprint()

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
    """The entries themselves are checked in ``tests/test_experiments.py``."""

    def test_fig3_topology_shape(self):
        topo = fig3_topology()
        assert set(topo.dc_names()) == {"A", "B", "C"}
        assert topo.link_capacity("A", "C") < topo.link_capacity("A", "B")
