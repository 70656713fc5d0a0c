"""System-level property tests: invariants over randomized scenarios."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BDSController
from repro.core.routing import BDSRouter
from repro.core.scheduling import RarestFirstScheduler
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import MB, MBps

from tests.oracles import Flow, resource_utilization


@st.composite
def multicast_scenario(draw):
    """A random small mesh plus a bound multicast job."""
    num_dcs = draw(st.integers(min_value=2, max_value=5))
    servers = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    topo = Topology.random_mesh(
        num_dcs=num_dcs,
        servers_per_dc=servers,
        wan_capacity_range=(20 * MBps, 200 * MBps),
        uplink_range=(2 * MBps, 20 * MBps),
        seed=seed,
        extra_edge_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
    )
    num_blocks = draw(st.integers(min_value=1, max_value=12))
    num_dsts = draw(st.integers(min_value=1, max_value=num_dcs - 1))
    dsts = tuple(f"dc{i}" for i in range(1, 1 + num_dsts))
    job = MulticastJob(
        job_id="p",
        src_dc="dc0",
        dst_dcs=dsts,
        total_bytes=num_blocks * 2 * MB,
        block_size=2 * MB,
    )
    job.bind(topo)
    return topo, job, seed


@given(multicast_scenario())
@settings(max_examples=40, deadline=None)
def test_bds_always_completes_and_respects_capacity(scenario):
    """On any connected topology, BDS completes the job, never beats the
    physics, and never oversubscribes a resource in its first decision."""
    topo, job, seed = scenario
    controller = BDSController(seed=seed)
    sim = Simulation(
        topo, [job], controller, SimConfig(max_cycles=5000), seed=seed
    )

    # First-decision feasibility.
    view = sim.snapshot_view()
    directives = controller.decide(view)
    flows = [
        Flow(
            flow_id=i,
            resources=topo.flow_resources(d.src_server, d.dst_server),
        )
        for i, d in enumerate(directives)
    ]
    usage = resource_utilization(
        flows, {i: d.rate_cap or 0.0 for i, d in enumerate(directives)}
    )
    for res, used in usage.items():
        assert used <= view.bulk_capacities[res] * (1 + 1e-6)

    result = sim.run()
    assert result.all_complete
    # Conservation: every destination DC needs one full copy, so at least
    # len(dst_dcs) x total_bytes must have moved (relays may add more).
    assert (
        result.total_bytes_transferred()
        >= len(job.dst_dcs) * job.total_bytes * (1 - 1e-9)
    )


@given(multicast_scenario())
@settings(max_examples=25, deadline=None)
def test_simulation_is_deterministic(scenario):
    """Same topology, job, strategy seed => identical results."""
    topo, job, seed = scenario

    def run():
        j = MulticastJob(
            job_id="p",
            src_dc=job.src_dc,
            dst_dcs=job.dst_dcs,
            total_bytes=job.total_bytes,
            block_size=job.block_size,
        )
        j.bind(topo)
        return Simulation(
            topo,
            [j],
            BDSController(seed=seed),
            SimConfig(max_cycles=5000),
            seed=seed,
        ).run()

    a = run()
    b = run()
    assert a.job_completion == b.job_completion
    assert a.blocks_per_cycle() == b.blocks_per_cycle()
    assert a.server_completion == b.server_completion


@given(multicast_scenario())
@settings(max_examples=25, deadline=None)
def test_scheduler_selections_are_valid(scenario):
    topo, job, seed = scenario
    sim = Simulation(
        topo, [job], BDSController(seed=seed), SimConfig(), seed=seed
    )
    view = sim.snapshot_view()
    selections = RarestFirstScheduler().select(view)
    for s in selections:
        # Destination lacks the block, at least one healthy holder exists.
        assert not view.store.has(s.dst_server, s.block.block_id)
        assert view.eligible_sources(s.block.block_id)
        assert s.duplicates >= 1
    # Rarity order is non-decreasing for non-relay selections.
    duplicates = [s.duplicates for s in selections if not s.is_relay]
    assert duplicates == sorted(duplicates)


@given(multicast_scenario(), st.sampled_from(["greedy", "lp"]))
@settings(max_examples=20, deadline=None)
def test_router_directives_reference_true_holders(scenario, backend):
    topo, job, seed = scenario
    sim = Simulation(
        topo, [job], BDSController(seed=seed), SimConfig(), seed=seed
    )
    view = sim.snapshot_view()
    selections = RarestFirstScheduler().select(view)
    router = BDSRouter(backend=backend)
    directives, diag = router.route(view, selections)
    seen = set()
    for d in directives:
        for bid in d.block_ids:
            assert view.store.has(d.src_server, bid)
            assert not view.store.has(d.dst_server, bid)
            # No block is assigned to the same destination twice.
            assert (bid, d.dst_server) not in seen
            seen.add((bid, d.dst_server))
        assert d.rate_cap is not None and d.rate_cap > 0
