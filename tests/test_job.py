"""Multicast jobs: validation, striping, placement."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BDSController
from repro.net.simulator import Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import GB, MB, MBps
from repro.workload.generator import WorkloadGenerator, to_jobs

from tests import oracles


@pytest.fixture
def topo() -> Topology:
    return Topology.full_mesh(
        num_dcs=3, servers_per_dc=2, wan_capacity=1 * GB, uplink=10 * MBps
    )


def shard_map(job: MulticastJob, dc: str):
    """``dc``'s server -> blocks map read off ``job.stripe(dc)``, both in
    stripe order."""
    servers, slots = job.stripe(dc)
    return {
        server: [job.blocks[i] for i in np.flatnonzero(slots == slot).tolist()]
        for slot, server in enumerate(servers)
    }


def make_job(**overrides) -> MulticastJob:
    params = dict(
        job_id="j",
        src_dc="dc0",
        dst_dcs=("dc1", "dc2"),
        total_bytes=10 * MB,
        block_size=2 * MB,
    )
    params.update(overrides)
    return MulticastJob(**params)


class TestValidation:
    def test_needs_destination(self):
        with pytest.raises(ValueError):
            make_job(dst_dcs=())

    def test_source_cannot_be_destination(self):
        with pytest.raises(ValueError):
            make_job(dst_dcs=("dc0",))

    def test_relay_cannot_overlap_endpoints(self):
        with pytest.raises(ValueError, match="relay"):
            make_job(relay_dcs=("dc1",))

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            make_job(total_bytes=0)

    def test_rejects_negative_arrival(self):
        with pytest.raises(ValueError):
            make_job(arrival_time=-1)

    def test_blocks_created(self):
        job = make_job()
        assert job.num_blocks == 5

    @pytest.mark.parametrize("field", ["dst_dcs", "relay_dcs"])
    def test_rejects_a_repeated_dc(self, field):
        dcs = {"dst_dcs": ("dc1", "dc1", "dc2"), "relay_dcs": ("dc2", "dc2")}
        with pytest.raises(ValueError, match=f"{field} repeats DC.*'dc[12]'"):
            make_job(**{"dst_dcs": ("dc1",), field: dcs[field]})

    def test_generated_workloads_still_construct(self):
        dcs = [f"dc{i}" for i in range(8)]
        topo = Topology.full_mesh(
            num_dcs=8, servers_per_dc=2, wan_capacity=1 * GB, uplink=10 * MBps
        )
        requests = WorkloadGenerator(dcs, seed=3).generate(count=200)
        jobs = to_jobs(requests, topo, block_size=4 * MB, size_scale=1e-6)
        assert jobs and all(len(set(j.dst_dcs)) == len(j.dst_dcs) for j in jobs)


class TestStriping:
    def test_bind_required_before_assignment(self):
        job = make_job()
        with pytest.raises(RuntimeError, match="not bound"):
            job.assigned_server("dc1", ("j", 0))

    def test_round_robin_striping(self, topo):
        job = make_job()
        job.bind(topo)
        assert job.assigned_server("dc1", ("j", 0)) == "dc1-s0"
        assert job.assigned_server("dc1", ("j", 1)) == "dc1-s1"
        assert job.assigned_server("dc1", ("j", 2)) == "dc1-s0"

    def test_source_stripe_covers_all_blocks(self, topo):
        job = make_job()
        job.bind(topo)
        placement = shard_map(job, job.src_dc)
        placed = [b for blocks in placement.values() for b in blocks]
        assert sorted(placed) == sorted(job.blocks)
        assert set(placement) <= {"dc0-s0", "dc0-s1"}

    def test_destination_stripe_partitions_blocks(self, topo):
        job = make_job()
        job.bind(topo)
        shard = shard_map(job, "dc1")
        counts = {s: len(bs) for s, bs in shard.items()}
        assert sum(counts.values()) == job.num_blocks
        # 5 blocks over 2 servers: 3 + 2.
        assert sorted(counts.values()) == [2, 3]

    def test_relay_dc_striped_too(self, topo):
        job = make_job(dst_dcs=("dc1",), relay_dcs=("dc2",))
        job.bind(topo)
        assert job.assigned_server("dc2", ("j", 0)) == "dc2-s0"

    def test_bind_rejects_empty_dc(self):
        topo = Topology()
        topo.add_dc("dc0")
        topo.add_dc("dc1")
        topo.add_server("dc0-s0", "dc0", 1, 1)
        topo.add_bidirectional_link("dc0", "dc1", 1)
        job = make_job(dst_dcs=("dc1",))
        with pytest.raises(ValueError, match="no servers"):
            job.bind(topo)

    def test_assignment_errors(self, topo):
        job = make_job(dst_dcs=("dc1",))
        job.bind(topo)
        for dc, block_id in [
            ("dc1", ("other", 0)),  # a foreign block
            ("dc1", ("j", 5)),  # out of range
            ("dc1", ("j", -1)),
            ("dc2", ("j", 0)),  # an uninvolved DC
        ]:
            with pytest.raises(KeyError):
                job.assigned_server(dc, block_id)
        with pytest.raises(KeyError):
            job.stripe("dc2")

    def test_binding_stores_no_per_block_table(self):
        """1.8 M (block, DC) pairs bind in O(servers) memory."""
        topo = Topology.full_mesh(
            num_dcs=10, servers_per_dc=64, wan_capacity=1 * GB, uplink=10 * MBps
        )
        job = make_job(
            dst_dcs=tuple(f"dc{i}" for i in range(1, 10)),
            total_bytes=200_000 * MB, block_size=1 * MB,
        )
        tracemalloc.start()
        try:
            job.bind(topo)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert job.assigned_server("dc9", ("j", 199_999)) == "dc9-s63"

    def test_block_by_id(self, topo):
        job = make_job()
        assert job.block_by_id(("j", 2)).index == 2
        with pytest.raises(KeyError):
            job.block_by_id(("other", 0))
        with pytest.raises(KeyError):
            job.block_by_id(("j", 99))


# -- striping as a formula ≡ the per-(DC, block) table ------------------------


@st.composite
def striped_scenarios(draw):
    """A mesh with a random server count per DC (server names whose sorted
    order is not their insertion order), one or two jobs with random
    destination and relay sets, and pre-seeded copies."""
    num_dcs = draw(st.integers(2, 5))
    topo = Topology()
    dcs = [f"dc{i}" for i in range(num_dcs)]
    for dc in dcs:
        topo.add_dc(dc)
        count = draw(st.integers(1, 6))
        for k in draw(st.permutations(range(count))):
            topo.add_server(f"{dc}-s{k}", dc, 10 * MBps, 10 * MBps)
    for i, a in enumerate(dcs):
        for b in dcs[i + 1 :]:
            topo.add_bidirectional_link(a, b, 1 * GB)
    jobs = []
    for j in range(draw(st.integers(1, 2))):
        src = draw(st.sampled_from(dcs))
        others = [dc for dc in dcs if dc != src]
        dsts = draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
        relays = draw(
            st.lists(
                st.sampled_from([dc for dc in others if dc not in dsts] or [src]),
                unique=True,
            ).filter(lambda r: src not in r)
        )
        blocks = draw(st.integers(1, 13))
        jobs.append(
            MulticastJob(
                job_id=f"j{j}", src_dc=src, dst_dcs=tuple(dsts),
                total_bytes=blocks * MB - draw(st.sampled_from([0, 1])),
                block_size=1 * MB, relay_dcs=tuple(relays),
            )
        )
    rng = random.Random(draw(st.integers(0, 2**16)))
    names = sorted(topo.servers)
    pre_seeded = {}
    for _ in range(draw(st.integers(0, 12))):
        job = rng.choice(jobs)
        pre_seeded.setdefault(rng.choice(names), []).append(rng.choice(job.blocks))
    return topo, jobs, pre_seeded


@settings(max_examples=60, deadline=None)
@given(striped_scenarios())
def test_striping_formula_equals_the_table(scenario):
    topo, jobs, pre_seeded = scenario
    for job in jobs:
        with pytest.raises(RuntimeError, match="not bound"):
            job.stripe(job.src_dc)
        job.bind(topo)
    tables = {job.job_id: oracles.striping_table(job, topo) for job in jobs}
    for job in jobs:
        table = tables[job.job_id]
        for (dc, block_id), server in table.items():
            assert job.assigned_server(dc, block_id) == server
        for dc in (job.src_dc,) + job.dst_dcs + job.relay_dcs:
            got, want = shard_map(job, dc), oracles.shard_map(job, table, dc)
            assert list(got) == list(want)  # key order too
            assert got == want

    sim = Simulation(
        topo, jobs, BDSController(seed=0), seed=0, pre_seeded=pre_seeded
    )
    server_ids = sim.state.store.matrix.server_ids
    for job in jobs:
        groups = sim._cand_table.groups_by_job[job.job_id]
        assert [g.dc for g in groups] == list(job.dst_dcs + job.relay_dcs)
        for group in groups:
            want = [
                server_ids[tables[job.job_id][(group.dc, b.block_id)]]
                for b in job.blocks
            ]
            assert group.dst_sids.tolist() == want
            assert group.dst_sids.dtype == np.int64
    dc_missing, server_missing = oracles.missing_counts(jobs, tables, sim.state.store)
    assert sim.state.dc_missing == dc_missing
    assert sim.state.server_missing == server_missing
