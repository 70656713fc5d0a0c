"""End-to-end integration tests across the full stack."""


from repro.analysis.runner import run_simulation
from repro.baselines.ideal import ideal_completion_time
from repro.core import BDSConfig, BDSController, ControllerReplicaSet
from repro.net.background import BackgroundTraffic
from repro.net.failures import FailureEvent, FailureSchedule
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology, wan_key
from repro.overlay.job import MulticastJob
from repro.utils.units import MB, MBps
from repro.workload.generator import WorkloadGenerator, to_jobs

from tests import oracles


def mesh(num_dcs=4, servers=3, wan=200 * MBps, uplink=10 * MBps):
    return Topology.full_mesh(
        num_dcs=num_dcs, servers_per_dc=servers, wan_capacity=wan, uplink=uplink
    )


def multicast(topo, size=60 * MB, block=4 * MB, job_id="j", arrival=0.0):
    dsts = tuple(d for d in topo.dc_names() if d != "dc0")
    job = MulticastJob(
        job_id=job_id,
        src_dc="dc0",
        dst_dcs=dsts,
        total_bytes=size,
        block_size=block,
        arrival_time=arrival,
    )
    job.bind(topo)
    return job


class TestFullPipeline:
    def test_bds_end_to_end_all_blocks_everywhere(self):
        topo = mesh()
        job = multicast(topo)
        result = Simulation(
            topo, [job], BDSController(seed=1), SimConfig(), seed=1
        ).run()
        assert result.all_complete
        # Every destination DC holds every block.
        for dc in job.dst_dcs:
            for block in job.blocks:
                assert oracles.dc_has_block(result.store, dc, block.block_id)

    def test_multiple_jobs_with_staggered_arrivals(self):
        topo = mesh()
        jobs = [
            multicast(topo, size=24 * MB, job_id="j0", arrival=0.0),
            multicast(topo, size=24 * MB, job_id="j1", arrival=9.0),
        ]
        result = Simulation(
            topo, jobs, BDSController(seed=2), SimConfig(), seed=2
        ).run()
        assert result.all_complete
        assert result.completion_time("j1") >= 9.0
        assert result.completion_time("j0") < result.completion_time("j1")

    def test_different_sources(self):
        topo = mesh()
        a = MulticastJob(
            job_id="a", src_dc="dc0", dst_dcs=("dc1", "dc2"),
            total_bytes=20 * MB, block_size=4 * MB,
        )
        b = MulticastJob(
            job_id="b", src_dc="dc3", dst_dcs=("dc1", "dc0"),
            total_bytes=20 * MB, block_size=4 * MB,
        )
        a.bind(topo)
        b.bind(topo)
        result = Simulation(
            topo, [a, b], BDSController(seed=3), SimConfig(), seed=3
        ).run()
        assert result.all_complete

    def test_workload_generator_to_simulation(self):
        topo = mesh(num_dcs=5)
        generator = WorkloadGenerator(topo.dc_names(), seed=4)
        requests = generator.generate(count=4)
        jobs = to_jobs(requests, topo, block_size=4 * MB, size_scale=1e-5)
        result = run_simulation(
            topo, jobs, "bds", seed=4, sim=SimConfig(max_cycles=5000)
        )
        assert result.all_complete

    def test_completion_time_respects_ideal_bound(self):
        topo = mesh()
        job = multicast(topo)
        bound = ideal_completion_time(topo, job)
        for name in ("bds", "gingko", "direct"):
            topo2 = mesh()
            job2 = multicast(topo2)
            result = run_simulation(
                topo2, [job2], name, seed=5, sim=SimConfig(max_cycles=5000)
            )
            assert result.completion_time("j") >= bound * 0.999


class TestFaultToleranceIntegration:
    def test_agent_failure_mid_transfer(self):
        topo = mesh(uplink=2 * MBps)
        job = multicast(topo, size=60 * MB)
        failures = FailureSchedule(
            [
                FailureEvent(cycle=3, kind="agent_fail", target="dc1-s0"),
                FailureEvent(cycle=6, kind="agent_recover", target="dc1-s0"),
            ]
        )
        result = Simulation(
            topo,
            [job],
            BDSController(seed=6),
            SimConfig(max_cycles=5000),
            failures=failures,
            seed=6,
        ).run()
        assert result.all_complete

    def test_controller_outage_and_recovery(self):
        topo = mesh(uplink=2 * MBps)
        job = multicast(topo, size=40 * MB)
        failures = FailureSchedule(
            [
                FailureEvent(cycle=2, kind="controller_fail"),
                FailureEvent(cycle=8, kind="controller_recover"),
            ]
        )
        controller = BDSController(seed=7)
        result = Simulation(
            topo,
            [job],
            controller,
            SimConfig(max_cycles=5000),
            failures=failures,
            seed=7,
        ).run()
        assert result.all_complete
        cycles = [d.cycle for d in controller.decisions]
        assert all(c < 2 or c >= 8 for c in cycles)

    def test_replica_set_drives_controller_availability(self):
        """Wire ControllerReplicaSet into a failure schedule by hand."""
        replicas = ControllerReplicaSet()
        replicas.fail("controller-0")
        replicas.tick()
        assert replicas.has_leader()  # failover within one cycle
        for name in replicas.replicas:
            replicas.fail(name)
        replicas.tick()
        assert not replicas.has_leader()  # now agents would fall back

    def test_link_failure_forces_detour_or_wait(self):
        topo = Topology.line(["X", "Y", "Z"], 2, 100 * MBps, 10 * MBps)
        job = MulticastJob(
            job_id="j", src_dc="X", dst_dcs=("Z",),
            total_bytes=20 * MB, block_size=4 * MB,
        )
        job.bind(topo)
        failures = FailureSchedule(
            [
                FailureEvent(cycle=0, kind="link_fail", target=("Y", "Z")),
                FailureEvent(cycle=5, kind="link_recover", target=("Y", "Z")),
            ]
        )
        result = Simulation(
            topo,
            [job],
            BDSController(seed=8),
            SimConfig(max_cycles=1000),
            failures=failures,
            seed=8,
        ).run()
        assert result.all_complete
        assert result.completion_time("j") >= 5 * 3.0


class TestBandwidthSeparationIntegration:
    def test_bds_stays_under_threshold_with_background(self):
        topo = mesh(num_dcs=2, wan=50 * MBps, uplink=40 * MBps)
        job = multicast(topo, size=100 * MB)
        bg = BackgroundTraffic(
            base_fraction=0.3, diurnal_fraction=0.1, noise_fraction=0.0, seed=9
        )
        sim = Simulation(
            topo,
            [job],
            BDSController(seed=9),
            SimConfig(max_cycles=5000, record_link_stats=True),
            background=bg,
            seed=9,
        )
        result = sim.run()
        assert result.all_complete
        link = wan_key("dc0", "dc1")
        cap = topo.links[link].capacity
        for stats in result.cycle_stats:
            total = stats.link_bulk_usage.get(link, 0.0) + stats.link_online_usage.get(
                link, 0.0
            )
            assert total <= 0.8 * cap * 1.001

    def test_backend_consistency(self):
        """All three routing backends deliver the same job correctly."""
        times = {}
        for backend in ("greedy", "lp"):
            topo = mesh()
            job = multicast(topo, size=40 * MB)
            config = BDSConfig(routing_backend=backend)
            result = Simulation(
                topo, [job], BDSController(config=config, seed=10),
                SimConfig(max_cycles=2000), seed=10,
            ).run()
            assert result.all_complete
            times[backend] = result.completion_time("j")
        # The exact LP should not be slower than greedy by more than 2x
        # in delivered completion time (they solve the same problem).
        assert times["lp"] <= times["greedy"] * 2 + 6.0
