"""numpy calls per ``BDSRouter.route()`` on batches of ``diurnal_day``'s shape.

In the per-call regime — decides of tens of rows, as in ``diurnal_day``
(ROADMAP item 12) — a route's cost is its number of numpy calls far more
than its rows, so the budget is a count, which timing noise cannot blur:
a change that adds a call to the decide path fails here.

Counting rule (the counts in docs/PERF_LOG.md follow it): the route runs
under :mod:`cProfile`, and a call counts when the function called is
numpy's — a Python function defined in numpy's package (its
``*_dispatcher`` helpers excepted), or a C function or method whose
cProfile name mentions numpy — and its caller is not. Calls numpy makes
to itself do not count, and neither do operator ufuncs and indexing
(``a + b``, ``a[i]``), which cProfile does not see — with one
exception: a numpy function handed a Python list where it wants an
array method (``np.repeat(list, ...)``) converts it on numpy's
``_wrapit`` path, and that conversion counts as a call too, so the call
costs what the ``np.array(list).repeat(...)`` it stands for does. Each
count is of a second ``route()`` over the same view, so that first-seen
work (the cycle cache's route table) is not in it.
"""

from __future__ import annotations

import cProfile
import pstats

from repro.analysis.runner import make_strategy
from repro.core.decisions import SelectionBatch
from repro.core.routing import BDSRouter
from repro.core.scheduling import RarestFirstScheduler
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import MB, MBps


def _is_numpy(key) -> bool:
    filename, _line, name = key
    if filename == "~":  # a C function or method
        return "numpy" in name
    return "/numpy/" in filename.replace("\\", "/") and not name.endswith(
        "_dispatcher"
    )


def numpy_calls_of(call) -> int:
    """numpy calls made by ``call()``, by the rule of the module docstring."""
    profile = cProfile.Profile()
    profile.enable()
    call()
    profile.disable()
    calls = 0
    for key, (_cc, _nc, _tt, _ct, callers) in pstats.Stats(profile).stats.items():
        if _is_numpy(key):
            calls += sum(
                count[0]
                for caller, count in callers.items()
                if not _is_numpy(caller) or key[2] == "_wrapit"
            )
    return calls


def numpy_calls(view, batch) -> int:
    """numpy calls made by ``BDSRouter().route(view, batch)``, by the rule
    of the module docstring."""
    router = BDSRouter()
    router.route(view, batch)
    return numpy_calls_of(lambda: router.route(view, batch))


def _batch(blocks: int, cycles: int):
    """``diurnal_day``'s mesh (5 DCs x 2 servers, 50 MB/s WAN links, 25 MB/s
    NICs) and one job of ``blocks`` 16 MB blocks from dc0 to the other four
    DCs, ``cycles`` cycles in: the view and its selection."""
    topo = Topology.full_mesh(
        num_dcs=5, servers_per_dc=2, wan_capacity=50 * MBps, uplink=25 * MBps
    )
    job = MulticastJob(
        job_id="job", src_dc="dc0", dst_dcs=("dc1", "dc2", "dc3", "dc4"),
        total_bytes=blocks * 16 * MB - 12_345, block_size=16 * MB,
    )
    job.bind(topo)
    sim = Simulation(
        topo, [job], make_strategy("bds", seed=0),
        SimConfig(max_cycles=max(cycles, 1), stop_when_complete=False), seed=0,
    )
    if cycles:
        sim.run()
    view = sim.snapshot_view(cycles)
    return view, RarestFirstScheduler().select(view)


def _rows(batch: SelectionBatch, rows: slice) -> SelectionBatch:
    return SelectionBatch(
        batch.jobs, batch.gids[rows], batch.indices[rows], batch.dst_sids[rows],
        batch.job_slots[rows], batch.duplicates[rows], batch.slots[rows],
        batch.slot_places, batch.server_names,
    )


def test_a_mid_run_batch_of_56_rows():
    """One cycle in: bytes buffered at destinations (one sort of the
    partial-bytes store, one of the emitted rows), about one group per
    class as in ``diurnal_day``."""
    view, batch = _batch(15, 1)
    assert len(batch) == 56 and view.partial_bytes
    assert numpy_calls(view, batch) <= 40


def test_a_one_row_batch():
    view, batch = _batch(15, 1)
    assert numpy_calls(view, _rows(batch, slice(0, 1))) <= 40


def test_ten_times_the_rows_over_the_same_classes_cost_the_same_calls():
    """From a cold start every block is held by its source server only:
    14 blocks and 140 are the same eight (holder, destination) classes."""
    small, large = _batch(14, 0), _batch(140, 0)
    assert len(large[1]) == 10 * len(small[1]) == 560
    for view, batch in (small, large):
        classes = {
            (view.store.matrix.holder_words[gid].tobytes(), dst)
            for gid, dst in zip(batch.gids.tolist(), batch.dst_sids.tolist())
        }
        assert len(classes) == 8
    assert numpy_calls(*large) == numpy_calls(*small) <= 33
