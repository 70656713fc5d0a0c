"""The BDS controller: decision loop, fallback, diagnostics."""

import numpy as np
import pytest

from repro.baselines.gingko import GingkoStrategy
from repro.core import BDSConfig, BDSController
from repro.core.routing import BDSRouter
from repro.net.failures import FailureEvent, FailureSchedule
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.blocks import DEFAULT_BLOCK_SIZE
from repro.overlay.job import MulticastJob
from repro.utils.units import GB, MB, MBps


def make_setup(controller=None):
    topo = Topology.full_mesh(
        num_dcs=3, servers_per_dc=2, wan_capacity=1 * GB, uplink=10 * MBps
    )
    job = MulticastJob(
        job_id="j",
        src_dc="dc0",
        dst_dcs=("dc1", "dc2"),
        total_bytes=20 * MB,
        block_size=2 * MB,
    )
    job.bind(topo)
    controller = controller or BDSController(seed=0)
    return topo, job, controller


class TestConfig:
    def test_defaults_match_paper(self):
        """§5.4: 2 MB blocks, 3 s cycles, 80 % threshold — each said once,
        where it is read; ``BDSConfig`` shadows none of them."""
        assert DEFAULT_BLOCK_SIZE == 2 * MB
        assert SimConfig().cycle_seconds == 3.0
        assert SimConfig().safety_threshold == 0.8
        for shadow in ("block_size", "cycle_seconds", "safety_threshold"):
            with pytest.raises(TypeError):
                BDSConfig(**{shadow: 1.0})

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            BDSConfig(routing_backend="quantum")

    @pytest.mark.parametrize("epsilon", [1.0, 1.5, 0.0, -0.1])
    def test_epsilon_outside_the_fptas_range_rejected(self, epsilon):
        """The FPTAS takes ``0 < epsilon < 1``; the router, which hands ε
        to it, says so at construction, not at the first decide."""
        with pytest.raises(ValueError, match="epsilon"):
            BDSRouter(backend="fptas", epsilon=epsilon)

    def test_negative_blocks_cap_rejected(self):
        with pytest.raises(ValueError):
            BDSConfig(max_blocks_per_cycle=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("shards", 2.0),
            ("shards", True),
            ("max_blocks_per_cycle", 2.5),
            ("max_blocks_per_cycle", False),
        ],
    )
    def test_a_count_that_is_not_an_int_is_refused_by_name(self, field, value):
        """A float or a bool is refused at construction, naming the field
        — not a bare ``TypeError`` from the controller, or a ``True``
        that silently means 1."""
        with pytest.raises(ValueError, match=field):
            BDSConfig(**{field: value})

    def test_numpy_counts_pass(self):
        config = BDSConfig(
            shards=np.int64(2),
            max_blocks_per_cycle=np.int64(0),
        )
        assert BDSController(config).config.shards == 2


class TestDecide:
    def test_decisions_recorded(self):
        topo, job, controller = make_setup()
        sim = Simulation(topo, [job], controller, SimConfig())
        result = sim.run()
        assert result.all_complete
        assert controller.decisions
        first = controller.decisions[0]
        assert first.scheduled_blocks == 20  # 10 blocks x 2 DCs
        assert first.directives
        assert first.schedule_runtime + first.routing_runtime > 0

    def test_rate_caps_always_set(self):
        topo, job, controller = make_setup()
        sim = Simulation(topo, [job], controller, SimConfig())
        view = sim.snapshot_view()
        for directive in controller.decide(view):
            assert directive.rate_cap is not None
            assert directive.rate_cap > 0

    def test_last_decision(self):
        controller = BDSController()
        assert controller.last_decision() is None


class TestFallback:
    def test_fallback_when_controller_down(self):
        topo, job, controller = make_setup()
        failures = FailureSchedule([FailureEvent(cycle=0, kind="controller_fail")])
        sim = Simulation(
            topo, [job], controller, SimConfig(max_cycles=2), failures=failures
        )
        result = sim.run()
        # The fallback moved blocks; no centralized decision was recorded.
        assert sum(result.blocks_per_cycle()) > 0
        assert controller.decisions == []

    def test_fallback_still_makes_progress(self):
        topo, job, controller = make_setup()
        failures = FailureSchedule([FailureEvent(cycle=0, kind="controller_fail")])
        sim = Simulation(
            topo, [job], controller, SimConfig(max_cycles=500), failures=failures
        )
        result = sim.run()
        assert result.all_complete  # degraded, not dead

    def test_recovery_resumes_centralized_control(self):
        topo = Topology.full_mesh(
            num_dcs=3, servers_per_dc=2, wan_capacity=1 * GB, uplink=10 * MBps
        )
        # Big enough that fallback cannot finish before the controller
        # returns at cycle 3 (source egress is 20 MB/s -> 9 s minimum).
        job = MulticastJob(
            job_id="j",
            src_dc="dc0",
            dst_dcs=("dc1", "dc2"),
            total_bytes=400 * MB,
            block_size=2 * MB,
        )
        job.bind(topo)
        controller = BDSController(seed=0)
        failures = FailureSchedule(
            [
                FailureEvent(cycle=0, kind="controller_fail"),
                FailureEvent(cycle=3, kind="controller_recover"),
            ]
        )
        sim = Simulation(
            topo, [job], controller, SimConfig(max_cycles=500), failures=failures
        )
        sim.run()
        assert controller.decisions
        assert controller.decisions[0].cycle >= 3

    def test_custom_fallback_used(self):
        fallback = GingkoStrategy(seed=1)
        controller = BDSController(fallback=fallback)
        assert controller.fallback is fallback

    def test_faster_than_gingko_on_contended_topology(self):
        """BDS's global view should beat Gingko's local views."""

        def build():
            topo = Topology.full_mesh(
                num_dcs=5, servers_per_dc=4, wan_capacity=100 * MBps,
                uplink=5 * MBps,
            )
            job = MulticastJob(
                job_id="j",
                src_dc="dc0",
                dst_dcs=("dc1", "dc2", "dc3", "dc4"),
                total_bytes=80 * MB,
                block_size=4 * MB,
            )
            job.bind(topo)
            return topo, job

        topo, job = build()
        bds = Simulation(
            topo, [job], BDSController(seed=0), SimConfig(max_cycles=3000), seed=0
        ).run()
        topo, job = build()
        gingko = Simulation(
            topo, [job], GingkoStrategy(seed=0), SimConfig(max_cycles=3000), seed=0
        ).run()
        assert bds.completion_time("j") < gingko.completion_time("j")
