"""JSON export of simulation results."""

import json

import pytest

from repro.analysis.export import (
    EXPORT_FORMAT_VERSION,
    load_result_dict,
    result_to_dict,
    save_result,
)
from repro.cli import main
from repro.core import BDSController
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import GB, MB, MBps


@pytest.fixture
def result():
    topo = Topology.full_mesh(
        num_dcs=3, servers_per_dc=2, wan_capacity=1 * GB, uplink=10 * MBps
    )
    job = MulticastJob(
        job_id="j", src_dc="dc0", dst_dcs=("dc1", "dc2"),
        total_bytes=20 * MB, block_size=4 * MB,
    )
    job.bind(topo)
    return Simulation(
        topo, [job], BDSController(seed=0),
        SimConfig(record_link_stats=True), seed=0,
    ).run()


class TestResultToDict:
    def test_core_fields_present(self, result):
        payload = result_to_dict(result)
        assert payload["format_version"] == EXPORT_FORMAT_VERSION
        assert payload["all_complete"] is True
        assert payload["job_completion"]["j"] == result.completion_time("j")
        assert payload["total_bytes_transferred"] > 0

    def test_keys_are_flattened(self, result):
        payload = result_to_dict(result)
        assert "j/dc1" in payload["dc_completion"]
        assert any(k.startswith("j/dc1-") for k in payload["server_completion"])

    def test_cycles_optional(self, result):
        with_cycles = result_to_dict(result, include_cycles=True)
        without = result_to_dict(result, include_cycles=False)
        assert "cycles" in with_cycles
        assert "cycles" not in without

    def test_cycle_entries_serializable(self, result):
        payload = result_to_dict(result)
        text = json.dumps(payload)  # must not raise
        assert "wan:dc0:dc1" in text

    def test_payload_is_json_roundtrippable(self, result):
        payload = result_to_dict(result)
        assert json.loads(json.dumps(payload)) == payload


class TestSaveLoad:
    def test_roundtrip(self, result, tmp_path):
        path = tmp_path / "run.json"
        save_result(result, path)
        loaded = load_result_dict(path)
        assert loaded["job_completion"]["j"] == result.completion_time("j")

    def test_version_check(self, result, tmp_path):
        path = tmp_path / "run.json"
        save_result(result, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format version"):
            load_result_dict(path)


class TestCliExport:
    def test_simulate_json_flag(self, tmp_path, capsys):
        out = tmp_path / "cli.json"
        code = main(
            [
                "simulate",
                "--num-dcs", "3",
                "--size", "20MB",
                "--block-size", "4MB",
                "--json", str(out),
            ]
        )
        assert code == 0
        loaded = load_result_dict(out)
        assert loaded["all_complete"] is True


class TestShardingTelemetryRoundTrip:
    """Format v7/v8: per-cycle sharding telemetry survives the round-trip."""

    def _sharded_result(self):
        from repro.core import BDSConfig

        topo = Topology.full_mesh(
            num_dcs=3, servers_per_dc=2, wan_capacity=1 * GB, uplink=10 * MBps
        )
        jobs = []
        for j in range(3):
            src = f"dc{j}"
            job = MulticastJob(
                job_id=f"j{j}",
                src_dc=src,
                dst_dcs=tuple(f"dc{i}" for i in range(3) if f"dc{i}" != src),
                total_bytes=20 * MB,
                block_size=4 * MB,
            )
            job.bind(topo)
            jobs.append(job)
        return Simulation(
            topo,
            jobs,
            BDSController(BDSConfig(shards=2), seed=0),
            SimConfig(),
            seed=0,
        ).run()

    def test_sharding_subdict_exported(self):
        payload = result_to_dict(self._sharded_result())
        assert payload["format_version"] == EXPORT_FORMAT_VERSION
        sharded = [
            c for c in payload["cycles"] if c["sharding"]["shard_count"]
        ]
        assert sharded, "sharded run must export shard telemetry"
        for entry in sharded:
            s = entry["sharding"]
            assert s["shard_count"] == 2
            assert s["shard_max"] >= s["shard_mean"] >= 0.0
            assert s["reconcile"] >= 0.0
            # v8: shard-local state telemetry.
            assert s["stride"] == 1
            assert s["state_bytes"] > 0
            assert s["candidate_bytes"] > 0
            assert s["payload_bytes"] >= 0

    def test_round_trip_preserves_shard_fields(self, tmp_path):
        result = self._sharded_result()
        path = tmp_path / "sharded.json"
        save_result(result, path)
        cycles = load_result_dict(path)["cycles"]
        assert len(cycles) == len(result.cycle_stats)
        for live, entry in zip(result.cycle_stats, cycles):
            back = entry["sharding"]
            assert back["shard_count"] == live.shard_count
            assert back["shard_max"] == live.time_shard_max
            assert back["shard_mean"] == live.time_shard_mean
            assert back["reconcile"] == live.time_reconcile
            assert back["stride"] == live.shard_stride
            assert back["state_bytes"] == live.shard_state_bytes
            assert back["candidate_bytes"] == live.shard_candidate_bytes
            assert back["payload_bytes"] == live.shard_payload_bytes

    def test_v6_payload_still_readable(self, result, tmp_path):
        path = tmp_path / "old.json"
        save_result(result, path)
        with open(path) as handle:
            payload = json.load(handle)
        payload["format_version"] = 6
        for entry in payload.get("cycles", []):
            entry.pop("sharding", None)
        with open(path, "w") as handle:
            json.dump(payload, handle)
        restored = load_result_dict(path)
        assert restored["format_version"] == 6
        assert all("sharding" not in entry for entry in restored["cycles"])
        assert restored["job_completion"] == result.job_completion
