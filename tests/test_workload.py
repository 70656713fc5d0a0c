"""Workload distributions, generator, and trace persistence."""

import pytest

from repro.net.topology import Topology
from repro.utils.units import GB, MB, MBps, TB
from repro.workload.distributions import (
    APP_PROFILES,
    OVERALL_MULTICAST_SHARE,
    PiecewiseLinearCDF,
    destination_fraction_cdf,
    sample_application,
    transfer_size_cdf,
)
from repro.workload.generator import TransferRequest, WorkloadGenerator, to_jobs
from repro.workload.traces import load_trace, replay_as_jobs, save_trace

from tests import oracles


class TestPiecewiseLinearCDF:
    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinearCDF([(0.0, 0.0)])  # one knot
        with pytest.raises(ValueError):
            PiecewiseLinearCDF([(1.0, 0.0), (0.5, 1.0)])  # unsorted values
        with pytest.raises(ValueError):
            PiecewiseLinearCDF([(0.0, 0.1), (1.0, 1.0)])  # p0 != 0
        with pytest.raises(ValueError):
            PiecewiseLinearCDF([(0.0, 0.0), (1.0, 0.9)])  # pn != 1
        with pytest.raises(ValueError):
            PiecewiseLinearCDF([(0.0, 0.0), (1.0, 1.0)], log_space=True)

    def test_cdf_interpolates(self):
        cdf = PiecewiseLinearCDF([(0.0, 0.0), (10.0, 1.0)])
        assert oracles.cdf(cdf, 5.0) == pytest.approx(0.5)
        assert oracles.cdf(cdf, -1) == 0.0
        assert oracles.cdf(cdf, 11) == 1.0

    def test_quantile_inverts_cdf(self):
        cdf = PiecewiseLinearCDF([(0.0, 0.0), (4.0, 0.5), (10.0, 1.0)])
        for q in (0.1, 0.5, 0.9):
            assert oracles.cdf(cdf, cdf.quantile(q)) == pytest.approx(q, abs=1e-9)

    def test_quantile_bounds(self):
        cdf = PiecewiseLinearCDF([(1.0, 0.0), (2.0, 1.0)])
        assert cdf.quantile(0.0) == pytest.approx(1.0)
        assert cdf.quantile(1.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_log_space_sampling(self):
        cdf = transfer_size_cdf()
        assert cdf.quantile(0.10) == pytest.approx(50 * GB, rel=0.01)
        assert cdf.quantile(0.40) == pytest.approx(1 * TB, rel=0.01)

    def test_sample_deterministic(self):
        cdf = destination_fraction_cdf()
        assert cdf.sample(seed=1) == cdf.sample(seed=1)


class TestPaperAnchors:
    def test_fig2a_anchors(self):
        cdf = destination_fraction_cdf()
        # 90% of transfers reach >= 60% of DCs.
        assert oracles.cdf(cdf, 0.60) == pytest.approx(0.10, abs=0.01)
        # 70% reach > 80% of DCs.
        assert oracles.cdf(cdf, 0.80) == pytest.approx(0.30, abs=0.01)

    def test_fig2b_anchors(self):
        cdf = transfer_size_cdf()
        assert 1 - oracles.cdf(cdf, 1 * TB) == pytest.approx(0.60, abs=0.01)
        assert 1 - oracles.cdf(cdf, 50 * GB) == pytest.approx(0.90, abs=0.01)

    def test_table1_profiles(self):
        assert set(APP_PROFILES) == {
            "blog-articles",
            "search-indexing",
            "offline-file-sharing",
            "forum-posts",
            "db-syncups",
        }
        for profile in APP_PROFILES.values():
            assert 0.85 <= profile["multicast_share"] <= 1.0
        assert OVERALL_MULTICAST_SHARE == pytest.approx(0.9113)

    def test_sample_application_valid(self):
        assert sample_application(seed=0) in APP_PROFILES


class TestWorkloadGenerator:
    @pytest.fixture
    def generator(self):
        return WorkloadGenerator([f"dc{i}" for i in range(20)], seed=1)

    def test_needs_enough_dcs(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(["a", "b"], seed=0)

    def test_generate_by_count(self, generator):
        requests = generator.generate(count=50)
        assert len(requests) == 50
        assert all(r.arrival_time >= 0 for r in requests)

    def test_generate_by_duration(self):
        generator = WorkloadGenerator(
            [f"dc{i}" for i in range(5)], seed=2, mean_interarrival_s=10.0
        )
        requests = generator.generate(duration_s=1000.0)
        assert all(r.arrival_time <= 1000.0 for r in requests)
        assert 50 <= len(requests) <= 200  # ~100 expected

    def test_needs_a_bound(self, generator):
        with pytest.raises(ValueError):
            generator.generate()

    def test_arrivals_monotonic(self, generator):
        requests = generator.generate(count=30)
        times = [r.arrival_time for r in requests]
        assert times == sorted(times)

    def test_multicast_dominates(self, generator):
        requests = generator.generate(count=300)
        share = sum(r.is_multicast for r in requests) / len(requests)
        assert share > 0.85  # Table 1: ~91%

    def test_destinations_exclude_source(self, generator):
        for request in generator.generate(count=100):
            assert request.src_dc not in request.dst_dcs

    def test_multicasts_have_many_destinations(self, generator):
        requests = [r for r in generator.generate(count=200) if r.is_multicast]
        mean_frac = sum(len(r.dst_dcs) for r in requests) / len(requests) / 20
        assert mean_frac > 0.5  # Fig 2a: most target over half the DCs


class TestRequestValidation:
    def test_multicast_needs_two_destinations(self):
        with pytest.raises(ValueError):
            TransferRequest(
                request_id="r",
                app="blog-articles",
                src_dc="a",
                dst_dcs=("b",),
                size_bytes=1.0,
                arrival_time=0.0,
                is_multicast=True,
            )

    def test_source_not_destination(self):
        with pytest.raises(ValueError):
            TransferRequest(
                request_id="r",
                app="x",
                src_dc="a",
                dst_dcs=("a", "b"),
                size_bytes=1.0,
                arrival_time=0.0,
                is_multicast=True,
            )


class TestToJobs:
    def test_conversion_and_scaling(self):
        topo = Topology.full_mesh(5, 2, 1 * GB, 10 * MBps)
        generator = WorkloadGenerator(topo.dc_names(), seed=3)
        requests = generator.generate(count=20)
        jobs = to_jobs(requests, topo, block_size=2 * MB, size_scale=1e-6)
        assert jobs
        for job in jobs:
            assert job.is_bound()
            assert job.total_bytes >= 2 * MB  # floored at one block

    def test_relative_arrivals_shift_to_zero(self):
        topo = Topology.full_mesh(5, 2, 1 * GB, 10 * MBps)
        generator = WorkloadGenerator(topo.dc_names(), seed=4)
        requests = generator.generate(count=10)
        jobs = to_jobs(requests, topo, size_scale=1e-6)
        assert min(j.arrival_time for j in jobs) == pytest.approx(0.0)

    def test_unknown_source_rejected(self):
        topo = Topology.full_mesh(3, 1, 1 * GB, 1 * MBps)
        request = TransferRequest(
            request_id="r",
            app="x",
            src_dc="elsewhere",
            dst_dcs=("dc0", "dc1"),
            size_bytes=10 * MB,
            arrival_time=0.0,
            is_multicast=True,
        )
        with pytest.raises(ValueError):
            to_jobs([request], topo)


class TestTraces:
    def test_save_load_roundtrip(self, tmp_path):
        generator = WorkloadGenerator([f"dc{i}" for i in range(8)], seed=5)
        requests = generator.generate(count=25)
        path = tmp_path / "trace.jsonl"
        save_trace(requests, path)
        loaded = load_trace(path)
        assert loaded == sorted(requests, key=lambda r: r.arrival_time)

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace(
            WorkloadGenerator([f"dc{i}" for i in range(5)], seed=6).generate(count=3),
            path,
        )
        path.write_text(path.read_text() + "\n\n")
        assert len(load_trace(path)) == 3

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="bad trace line 1"):
            load_trace(path)

    def test_replay_as_jobs(self, tmp_path):
        topo = Topology.full_mesh(6, 2, 1 * GB, 10 * MBps)
        generator = WorkloadGenerator(topo.dc_names(), seed=7)
        path = tmp_path / "trace.jsonl"
        save_trace(generator.generate(count=15), path)
        jobs = replay_as_jobs(path, topo, size_scale=1e-6)
        assert jobs
        assert all(j.is_bound() for j in jobs)
