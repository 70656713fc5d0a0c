"""Speculated delivery status (§5.1 non-blocking update)."""

import numpy as np
import pytest

from repro.core import BDSConfig, BDSController
from repro.core.speculation import DeliverySpeculator, SpeculatedView
from repro.net.failures import FailureEvent, FailureSchedule
from repro.net.simulator import SimConfig, Simulation, TransferDirective
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import GB, MB, MBps

from tests import oracles


@pytest.fixture
def setup():
    topo = Topology.full_mesh(
        num_dcs=2, servers_per_dc=2, wan_capacity=1 * GB, uplink=10 * MBps
    )
    job = MulticastJob(
        job_id="j",
        src_dc="dc0",
        dst_dcs=("dc1",),
        total_bytes=8 * MB,
        block_size=2 * MB,
    )
    job.bind(topo)
    sim = Simulation(topo, [job], BDSController(seed=0), SimConfig())
    return sim.snapshot_view(), job


def columns(view, pairs):
    """``(dst_server, block_id)`` pairs as the matrix's id columns."""
    matrix = view.store.matrix
    sids = [matrix.server_ids[server] for server, _bid in pairs]
    gids = [matrix.block_gids[bid] for _server, bid in pairs]
    return np.array(sids, dtype=np.int64), np.array(gids, dtype=np.int64)


def speculated(view, directives, horizon):
    """What the speculator expects to land, as ``(dst_server, block_id)``."""
    matrix = view.store.matrix
    sids, gids = DeliverySpeculator(horizon).speculate(view, directives)
    return [
        (matrix.server_names[sid], matrix.block_names[gid])
        for sid, gid in zip(sids.tolist(), gids.tolist())
    ]


class TestDeliverySpeculator:
    def test_speculates_blocks_within_horizon(self, setup):
        view, job = setup
        directive = TransferDirective(
            job_id="j",
            block_ids=(("j", 0), ("j", 2)),
            src_server="dc0-s0",
            dst_server="dc1-s0",
            rate_cap=2 * MBps,
        )
        # Horizon of 1.5 s at 2 MB/s moves 3 MB: block 0 (2 MB) completes,
        # block 2 does not.
        assert speculated(view, [directive], 1.5) == [("dc1-s0", ("j", 0))]

    def test_uncapped_directives_skipped(self, setup):
        view, job = setup
        directive = TransferDirective(
            job_id="j",
            block_ids=(("j", 0),),
            src_server="dc0-s0",
            dst_server="dc1-s0",
        )
        assert speculated(view, [directive], 10.0) == []

    def test_already_delivered_blocks_skipped(self, setup):
        view, job = setup
        block = job.blocks[0]
        view.store.record_delivery(block, "dc0-s0", "dc1-s0", 1.0, "dc0")
        directive = TransferDirective(
            job_id="j",
            block_ids=(block.block_id,),
            src_server="dc0-s0",
            dst_server="dc1-s0",
            rate_cap=100 * MBps,
        )
        assert speculated(view, [directive], 10.0) == []

    def test_partial_progress_counts(self, setup):
        view, job = setup
        block = job.blocks[0]
        view._partial[(block.block_id, "dc1-s0")] = block.size - 1000
        directive = TransferDirective(
            job_id="j",
            block_ids=(block.block_id,),
            src_server="dc0-s0",
            dst_server="dc1-s0",
            rate_cap=2000.0,
        )
        assert speculated(view, [directive], 1.0) == [("dc1-s0", block.block_id)]

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            DeliverySpeculator(-1.0)


class TestSpeculatedView:
    def test_overlay_reflects_speculation(self, setup):
        view, job = setup
        block = job.blocks[0]
        spec = SpeculatedView(view, *columns(view, [("dc1-s0", block.block_id)]))
        assert spec.store.has("dc1-s0", block.block_id)
        assert "dc1-s0" in spec.store.holders(block.block_id)
        assert spec.store.duplicate_count(block.block_id) == 2
        assert spec.store.dc_has_block("dc1", block.block_id)
        assert spec.eligible_sources(block.block_id) == ["dc0-s0", "dc1-s0"]

    def test_underlying_store_unchanged(self, setup):
        view, job = setup
        block = job.blocks[0]
        SpeculatedView(view, *columns(view, [("dc1-s0", block.block_id)]))
        assert not view.store.has("dc1-s0", block.block_id)
        assert view.store.duplicate_count(block.block_id) == 1

    def test_pending_deliveries_shrink(self, setup):
        view, job = setup
        block = job.blocks[0]
        dst = job.assigned_server("dc1", block.block_id)
        spec = SpeculatedView(view, *columns(view, [(dst, block.block_id)]))
        before = oracles.pending_deliveries(view, job)
        after = oracles.pending_deliveries(spec, job)
        assert (block, "dc1", dst) in before
        assert after == [entry for entry in before if entry[0] != block]

    def test_the_view_is_the_base_view_with_its_store_swapped(self, setup):
        """Every field ``ClusterView.__init__`` sets, ``SpeculatedView``
        has — a field added there cannot go missing here."""
        view, job = setup
        spec = SpeculatedView(view, *columns(view, []))
        assert vars(spec).keys() == vars(view).keys()
        for name, value in vars(view).items():
            if name == "store":
                assert spec.store.matrix is not view.store.matrix
            elif name in ("jobs", "failed_agents", "_failed_frozen"):  # copies
                assert getattr(spec, name) == value
            elif name == "_candidates":
                assert spec._candidates is view.candidates
            else:
                assert getattr(spec, name) is value, name


def contended(
    horizon,
    shards=1,
    size=600 * MB,
    uplink=20 * MBps,
    relays=False,
    failures=(),
    controller_dc=None,
    max_cycles=60,
    **bds,
):
    """The livelock scenario of docs/PERF_LOG.md ("One possession truth"),
    shrunk: two jobs from different source DCs to the other DCs of a
    4 x 6 full mesh, NIC-bound, so every cycle's directives compete and
    most speculated copies are picked as sources the cycle after.
    ``relays`` turns each job's last destination into a relay DC."""
    topo = Topology.full_mesh(
        num_dcs=4, servers_per_dc=6, wan_capacity=2000 * MBps, uplink=uplink
    )
    jobs = []
    for j in range(2):
        others = tuple(f"dc{i}" for i in range(4) if i != j)
        job = MulticastJob(
            job_id=f"j{j}",
            src_dc=f"dc{j}",
            dst_dcs=others[:2] if relays else others,
            relay_dcs=others[2:] if relays else (),
            total_bytes=size,
            block_size=2 * MB,
        )
        job.bind(topo)
        jobs.append(job)
    controller = BDSController(
        BDSConfig(speculation_horizon=horizon, shards=shards, **bds),
        seed=0,
        controller_dc=controller_dc,
    )
    return Simulation(
        topo,
        jobs,
        controller,
        SimConfig(max_cycles=max_cycles),
        failures=FailureSchedule(failures) if failures else None,
        seed=0,
    )


#: dc3 cut off from the controller's DC (dc0) for cycles 2-4: its
#: transfers run on the decentralized fallback meanwhile (§5.3).
PARTITION = [
    FailureEvent(cycle, kind, (f"dc{i}", "dc3"))
    for cycle, kind in ((2, "link_fail"), (5, "link_recover"))
    for i in range(3)
]


class TestPhantomSources:
    """A copy speculated at cycle c is picked as a source at c; the
    simulator drops that directive (the source holds nothing), and at
    c + 1 the speculator must not take the dropped directive for a
    transfer in flight — or its destination becomes the next phantom
    source and the block is never sent."""

    def test_a_directive_from_a_phantom_source_is_not_in_flight(self, setup):
        view, job = setup
        block = job.blocks[0]
        directive = TransferDirective(
            job_id="j",
            block_ids=(block.block_id,),
            src_server="dc1-s1",  # holds nothing: the bytes never moved
            dst_server="dc1-s0",
            rate_cap=100 * MBps,
        )
        assert speculated(view, [directive], 3.0) == []

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("horizon", [0.3, 1.5, 3.0])
    def test_speculating_runs_complete(self, horizon, shards):
        plain = contended(0.0, shards).run()
        assert plain.all_complete and plain.cycles_run >= 5
        result = contended(horizon, shards).run()
        assert result.all_complete
        assert result.cycles_run <= 2 * plain.cycles_run


class TestControllerIntegration:
    def test_speculating_controller_still_completes(self):
        topo = Topology.full_mesh(
            num_dcs=3, servers_per_dc=2, wan_capacity=1 * GB, uplink=10 * MBps
        )
        job = MulticastJob(
            job_id="j",
            src_dc="dc0",
            dst_dcs=("dc1", "dc2"),
            total_bytes=60 * MB,
            block_size=4 * MB,
        )
        job.bind(topo)
        config = BDSConfig(speculation_horizon=0.3)
        result = Simulation(
            topo,
            [job],
            BDSController(config=config, seed=0),
            SimConfig(max_cycles=2000),
            seed=0,
        ).run()
        assert result.all_complete

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BDSConfig(speculation_horizon=-0.1)
