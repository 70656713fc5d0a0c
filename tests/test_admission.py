"""Admission builds nothing per block.

A job keeps its blocks as a formula and the possession matrix interns it
as one span of rows, so constructing a simulation does the same Python
work for a job of 10³ blocks as for one of 10⁵ — counted, as
``tests/test_route_calls.py`` counts, not timed: every call cProfile
sees during ``Simulation(...)``, builtins and numpy's included. Neither
construction nor a golden run builds a
:class:`~repro.overlay.blocks.Block` (counted through
``Block.__post_init__``, in the ``golden_builds`` fixture's one pass over
the golden scenarios), and after construction the
matrix holds no Python container with an entry per block.
"""

from __future__ import annotations

import cProfile
import pstats

import pytest

from repro.analysis.runner import make_strategy
from repro.net.simulator import SimConfig, Simulation, _BlockColumns
from repro.net.topology import Topology
from repro.overlay.blocks import Block
from repro.overlay.job import MulticastJob
from repro.overlay.store import PossessionIndex
from repro.utils.units import MB, MBps

from tests import oracles


def _admit(blocks: int, strategy: str) -> Simulation:
    topo = Topology.full_mesh(
        num_dcs=4, servers_per_dc=3, wan_capacity=100 * MBps, uplink=10 * MBps
    )
    job = MulticastJob(
        job_id="j", src_dc="dc0", dst_dcs=("dc1", "dc2", "dc3"),
        total_bytes=blocks * MB - 12_345.5, block_size=MB,
    )
    job.bind(topo)
    return Simulation(topo, [job], make_strategy(strategy, seed=0), SimConfig(), seed=0)


def admission_calls(blocks: int, strategy: str) -> int:
    """Every call cProfile sees while ``Simulation(...)`` admits one job
    of ``blocks`` blocks."""
    profile = cProfile.Profile()
    profile.enable()
    _admit(blocks, strategy)
    profile.disable()
    return sum(calls for _cc, calls, *_rest in pstats.Stats(profile).stats.values())


@pytest.mark.parametrize("strategy", ["bds", "gingko"])
def test_admission_costs_the_same_calls_at_1e3_and_1e5_blocks(strategy):
    _admit(10, strategy)  # first-seen work: lazy imports, memos
    assert admission_calls(1_000, strategy) == admission_calls(100_000, strategy)


def test_the_matrix_holds_no_per_block_container():
    matrix = _admit(100_000, "bds").state.store.matrix
    assert matrix.num_blocks == 100_000 and matrix.spans == {"j": (0, 100_000)}
    for name in type(matrix).__slots__:
        value = getattr(matrix, name)
        if isinstance(value, (list, tuple, dict, set, frozenset)):
            assert len(value) < 100, name


def test_block_columns_refuse_rows_that_are_not_the_jobs_blocks():
    """A block's flat number is its matrix row only when the simulation's
    jobs are the matrix's spans, in order; another span first is refused
    rather than read as the wrong rows."""
    sim = _admit(10, "bds")
    (job,) = sim.jobs
    assert _BlockColumns(sim.jobs, sim.state.store).starts.tolist() == [0]
    store = PossessionIndex({s.server_id: s.dc for s in sim.topology.servers.values()})
    store.matrix.intern_job("other", 3)
    store.matrix.intern_job(job.job_id, job.num_blocks)
    with pytest.raises(ValueError):
        _BlockColumns(sim.jobs, store)


def test_the_golden_scenarios_build_no_block(golden_builds, monkeypatch):
    runs = [built for label, built in golden_builds.items() if label != "decided"]
    assert len(runs) == 23
    assert all(complete and blocks == 0 for complete, blocks, *_ in runs)
    built = oracles.count_calls(monkeypatch, Block, "__post_init__")
    MulticastJob("j", "dc0", ("dc1",), 3 * MB, MB).blocks[2]
    assert [block.index for block in built] == [2]  # the count sees a block read
