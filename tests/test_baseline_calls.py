"""numpy calls per baseline ``decide``, on one job over 4 and 12 DCs.

The same blocks go from ``dc0`` to every other DC of a full mesh, so the
12-DC job has 11 destination DCs where the 4-DC one has 3. Every
baseline reads possession once per job — one
:meth:`~repro.baselines.base.JobPossession.missing`, one possession
gather for all relays or reflectors, one holder test per relay or
reflector rank, one holder test per window of Bullet's deal and per
chunk of Gingko's, each of which deals every receiver at once — so its
count does not grow with the DCs.

Counted by the rule of ``tests/test_route_calls.py``, on the second
``decide`` over the same cycle-0 view, so that first-seen work (relay
and reflector memos, Gingko's and Bullet's epoch draws) is not in it.
"""

from __future__ import annotations

import pytest

from repro.analysis.runner import make_strategy
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import GBps, MB, MBps

from tests.test_route_calls import numpy_calls_of


def _view(num_dcs: int, strategy):
    """Cycle 0 of one 48-block job from dc0 to the other DCs (3 servers
    each), and its receivers: the destination servers with blocks to get."""
    topo = Topology.full_mesh(
        num_dcs=num_dcs, servers_per_dc=3, wan_capacity=1 * GBps, uplink=20 * MBps
    )
    job = MulticastJob(
        job_id="job", src_dc="dc0",
        dst_dcs=tuple(f"dc{i}" for i in range(1, num_dcs)),
        total_bytes=48 * MB, block_size=1 * MB,
    )
    job.bind(topo)
    sim = Simulation(topo, [job], strategy, SimConfig(), seed=0)
    return sim.snapshot_view(), job


def decide_calls(name: str, num_dcs: int) -> int:
    strategy = make_strategy(name, seed=0)
    view, _job = _view(num_dcs, strategy)
    assert strategy.decide(view)
    return numpy_calls_of(lambda: strategy.decide(view))


def missing_calls(num_dcs: int) -> int:
    strategy = make_strategy("direct")
    view, job = _view(num_dcs, strategy)
    lens = strategy.lens(view, job)
    assert len(lens.missing()[0]) == 48 * (num_dcs - 1)
    return numpy_calls_of(lens.missing)


@pytest.mark.parametrize(
    "name, budget",
    [("direct", 45), ("chain", 60), ("akamai", 60), ("bullet", 85), ("gingko", 70)],
)
def test_a_per_job_decide_costs_the_same_calls_on_4_and_12_dcs(name, budget):
    assert decide_calls(name, 12) == decide_calls(name, 8) == decide_calls(name, 4)
    assert decide_calls(name, 4) <= budget


def test_missing_costs_the_same_calls_on_4_and_12_dcs():
    assert missing_calls(12) == missing_calls(4) <= 15
