"""The lens-based baselines against the scalar loops they replaced.

Every ``decide`` of a generated run is made twice — by the production
strategy, over :class:`~repro.baselines.base.JobPossession`, and by the
per-``store.has`` oracle in :mod:`tests.oracles` — and must agree in the
directives (element-wise, in order), in the generator state left behind
and in the neighbour/peer/relay memo. The run itself supplies the states:
possession as the simulator moves it, agents that fail and recover
(receivers, neighbours, relays, reflectors, the only holder of a block),
copies seeded ahead of time at destinations and in the source DC, jobs
with relay DCs, several jobs at once, more than 64 servers, block counts
on either side of a 64-column word, speculation overlays — with phantom
copies, and with none (the same possession in a copy of the matrix, under
the simulator's candidate table).

Mutations this file was checked to catch (each made in ``src/``, each
failing here): servers ordered by id instead of first appearance in
``missing``; ``directives`` pairs in sorted order; the ``up`` mask added
to Bullet's peers; Gingko's pool keeping the receiver, or failed
servers; one draw too many; the chain relay's window cut after the
upstream filter; the fan-out's cut before it; Akamai's and direct's
windows cut after the holder filter; Akamai's stripes ignored; relay
groups not skipped; ``sourced`` ignoring failed holders; a failed
destination kept; ``first_holder`` taking the last of its servers, or a
failed one; ``any_holder_words`` dropping its last chunk; ``origin``
reading its words lowest first, or counting failed holders. The own
mutants of the job-wide pass and of Bullet's and Gingko's column deals
are built and run below (:data:`MUTANTS`), each on the case that
reaches it: the corner case gives no Bullet receiver enough rows to
fill a bucket, so Bullet's deal's run on :func:`deal_case`, and
Gingko's on :func:`chunk_case`, in chunks smaller than a receiver. One
named for the job-wide pass is not a mutant: grouping servers by first
appearance across the whole job instead of within each chunk of DCs
orders the rows the same way, because no server belongs to two DCs.
"""

from __future__ import annotations

import inspect
import sys
import textwrap
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import (
    AkamaiStrategy,
    BulletStrategy,
    ChainStrategy,
    DirectStrategy,
    GingkoStrategy,
    base,
    gingko,
)
from repro.baselines.base import JobPossession
from repro.net.failures import FailureEvent, FailureSchedule
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.overlay.store import PossessionOverlay
from repro.utils.units import GBps, MB, MBps

from tests import oracles

STRATEGIES = {
    "gingko": (GingkoStrategy, oracles.gingko_decide),
    "bullet": (BulletStrategy, oracles.bullet_decide),
    "akamai": (AkamaiStrategy, oracles.akamai_decide),
    "chain": (ChainStrategy, oracles.chain_decide),
    "direct": (
        DirectStrategy,
        lambda view, _state, **kw: oracles.direct_decide(view, **kw),
    ),
}

PARAMS = {
    "gingko": st.fixed_dictionaries(
        {
            "view_size": st.integers(1, 5),
            "epoch_cycles": st.integers(1, 3),
            "fetch_parallelism": st.integers(1, 3),
            "blocks_per_request": st.integers(1, 6),
        }
    ),
    "bullet": st.fixed_dictionaries(
        {
            "ransub_size": st.integers(1, 5),
            "num_peers": st.integers(1, 4),
            "refresh_interval": st.integers(1, 3),
            "blocks_per_peer": st.integers(1, 6),
        }
    ),
    "akamai": st.fixed_dictionaries(
        {"reflectors_per_dc": st.integers(1, 2), "window": st.integers(1, 24)}
    ),
    "chain": st.fixed_dictionaries({"window": st.integers(1, 24)}),
    "direct": st.fixed_dictionaries({"window": st.integers(1, 40)}),
}


class Shadow:
    """Decides with the production strategy, checks it against the oracle."""

    uses_controller_rates = False
    respects_safety_threshold = False
    decisions_reusable = False

    def __init__(self, name, params, seed, speculate=None, inexact=False):
        production, oracle = STRATEGIES[name]
        seeded = {"seed": seed} if name in ("gingko", "bullet") else {}
        self.real = production(**params, **seeded)
        self.oracle = partial(oracle, **params)
        self.state = oracles.BaselineState(seed)
        self.speculate = speculate  # a Generator: overlay some decides
        self.inexact = inexact  # an overlay without phantoms on every other one
        self.decides = self.directives = 0

    def decide(self, view):
        if self.speculate is not None and self.speculate.random() < 0.5:
            view = view.replace(
                store=PossessionOverlay(view.store, *self._speculated(view))
            )
        elif self.inexact:
            nothing = np.empty(0, dtype=np.int64)
            view = view.replace(store=PossessionOverlay(view.store, nothing, nothing))
        got = self.real.decide(view)
        want = self.oracle(view, self.state)
        assert got == want
        rng = getattr(self.real, "_rng", None)
        if rng is not None:
            assert rng.bit_generator.state == self.state.rng.bit_generator.state
        assert self._memo() == self.state.memo
        self.decides += 1
        self.directives += len(got)
        return got

    def _speculated(self, view):
        """Two blocks per (job, destination DC), as id columns."""
        matrix = view.store.matrix
        pairs = [
            (
                matrix.server_ids[job.assigned_server(dc, job.blocks[i].block_id)],
                matrix.gid_of(job.blocks[i].block_id),
            )
            for job in view.jobs
            for dc in job.dst_dcs
            for i in self.speculate.choice(len(job.blocks), 2)
        ]
        return np.array(pairs, dtype=np.int64).reshape(-1, 2).T

    def _memo(self):
        """The production strategy's memo, in the oracle's (name) terms."""
        real = self.real
        if isinstance(real, (GingkoStrategy, BulletStrategy)):
            memo = real._neighbors if isinstance(real, GingkoStrategy) else real._peers
            names = sorted(self._topology.servers)
            return {
                (job_id, names[dst]): [names[s] for s in sids]
                for (job_id, dst), sids in memo.items()
            }
        if isinstance(real, AkamaiStrategy):
            return real._reflectors
        if isinstance(real, ChainStrategy):
            return real._relays
        return {}


@st.composite
def scenarios(draw):
    wide = draw(st.integers(0, 7)) == 0  # > 64 servers: a second holder word
    num_dcs = 3 if wide else draw(st.integers(2, 5))
    servers_per_dc = 22 if wide else draw(st.integers(1, 5))
    dcs = [f"dc{i}" for i in range(num_dcs)]
    jobs = []
    for j in range(draw(st.integers(1, 3))):
        order = draw(st.permutations(dcs))
        n_dst = draw(st.integers(1, num_dcs - 1))
        n_relay = draw(st.integers(0, num_dcs - 1 - n_dst))
        jobs.append(
            {
                "job_id": f"job{j}",
                "src_dc": order[0],
                "dst_dcs": tuple(order[1 : 1 + n_dst]),
                "relay_dcs": tuple(order[1 + n_dst : 1 + n_dst + n_relay]),
                "total_bytes": draw(
                    st.sampled_from([1, 3, 20, 63, 64, 65, 100, 129])
                ) * MB - draw(st.sampled_from([0, 4321])),
                "arrival_time": 3.0 * draw(st.integers(0, 3)) * (j > 0),
            }
        )
    servers = num_dcs * servers_per_dc
    windows = draw(
        st.lists(
            st.tuples(
                st.integers(0, servers - 1), st.integers(0, 6), st.integers(1, 5)
            ),
            max_size=4,
        )
    )
    seeded = draw(
        st.lists(
            st.tuples(
                st.integers(0, servers - 1),
                st.integers(0, len(jobs) - 1),
                st.lists(st.integers(0, 128), max_size=6),
            ),
            max_size=4,
        )
    )
    return {
        "num_dcs": num_dcs,
        "servers_per_dc": servers_per_dc,
        "uplink": draw(st.sampled_from([2, 5, 11])) * MBps,
        "jobs": jobs,
        "windows": windows,
        "seeded": seeded,
        "inexact": draw(st.booleans()),
        "speculate": draw(st.integers(0, 3)) == 0,
        "seed": draw(st.integers(0, 2**16)),
    }


def run_shadowed(name, params, scenario, max_cycles=10):
    topo = Topology.full_mesh(
        num_dcs=scenario["num_dcs"],
        servers_per_dc=scenario["servers_per_dc"],
        wan_capacity=1 * GBps,
        uplink=scenario["uplink"],
    )
    jobs = [MulticastJob(block_size=1 * MB, **spec) for spec in scenario["jobs"]]
    for job in jobs:
        job.bind(topo)
    names = sorted(topo.servers)
    events = []
    for server, start, length in scenario["windows"]:
        events.append(FailureEvent(start, "agent_fail", names[server]))
        events.append(FailureEvent(start + length, "agent_recover", names[server]))
    pre_seeded = {}
    for server, j, indices in scenario["seeded"]:
        blocks = jobs[j].blocks
        pre_seeded.setdefault(names[server], []).extend(
            blocks[i % len(blocks)] for i in indices
        )
    seed = scenario["seed"]
    shadow = Shadow(
        name, params, seed,
        speculate=np.random.default_rng(seed) if scenario["speculate"] else None,
        inexact=scenario["inexact"],
    )
    shadow._topology = topo
    sim = Simulation(
        topo, jobs, shadow,
        SimConfig(max_cycles=max_cycles),
        failures=FailureSchedule(events), pre_seeded=pre_seeded, seed=seed,
    )
    sim.run()
    return shadow


@pytest.mark.parametrize("name", sorted(STRATEGIES))
@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_lens_decide_equals_the_scalar_oracle(name, data):
    shadow = run_shadowed(name, data.draw(PARAMS[name]), data.draw(scenarios()))
    assert shadow.decides > 0


def corner_case(exact=True):
    """The cases the issue lists, pinned so no draw has to find them:
    66 servers, a relay-DC job next to a second job, 65- and 129-block
    files, a failed relay/reflector (first server of a destination DC), a
    failed source server (blocks without a healthy holder), a failed
    receiver, copies seeded at a destination and in the source DC. Not
    ``exact``: every decide reads an overlay, about half of them one
    with phantom copies."""
    return {
        "num_dcs": 3,
        "servers_per_dc": 22,
        "uplink": 1 * MBps,
        "jobs": [
            {
                "job_id": "a", "src_dc": "dc0", "dst_dcs": ("dc2",),
                "relay_dcs": ("dc1",), "total_bytes": 129 * MB - 4321,
                "arrival_time": 0.0,
            },
            {
                "job_id": "b", "src_dc": "dc1", "dst_dcs": ("dc0", "dc2"),
                "relay_dcs": (), "total_bytes": 65 * MB, "arrival_time": 3.0,
            },
        ],
        # sorted names: dc0-s0, dc0-s1, dc0-s10, …; 44 is dc2-s0 (relay and
        # reflector of dc2), 0 a source of job a, 50 a plain receiver.
        "windows": [(44, 1, 3), (0, 0, 4), (50, 2, 2)],
        "seeded": [(45, 0, [0, 1, 64, 128]), (3, 0, [5, 6, 7]), (2, 1, [0, 64])],
        "inexact": not exact,
        "speculate": not exact,
        "seed": 7,
    }


CORNER_PARAMS = {
    "gingko": {"view_size": 4, "epoch_cycles": 2},
    "bullet": {"ransub_size": 5, "num_peers": 3, "refresh_interval": 2},
    "akamai": {"reflectors_per_dc": 2, "window": 5},
    "chain": {"window": 5},
    "direct": {"window": 3},
}


@pytest.mark.parametrize("name", sorted(STRATEGIES))
@pytest.mark.parametrize("exact", [True, False])
def test_named_corner_cases(name, exact):
    shadow = run_shadowed(name, CORNER_PARAMS[name], corner_case(exact), max_cycles=8)
    assert shadow.decides >= 6 and shadow.directives > 0


def deal_case():
    """Bullet's deal past its first phase and window: two servers per DC,
    so a receiver lacks half the file, and copies of all, half and a
    third of it beside the striped source, so that a receiver's peers
    hold blocks in common and fill their buckets of three. One
    receiver fails for three cycles."""
    return {
        "num_dcs": 4,
        "servers_per_dc": 2,
        "uplink": 2 * MBps,
        "jobs": [
            {
                "job_id": "a", "src_dc": "dc0", "dst_dcs": ("dc1", "dc2"),
                "relay_dcs": ("dc3",), "total_bytes": 65 * MB,
                "arrival_time": 0.0,
            },
        ],
        # sorted names: dc0-s0, dc0-s1, dc1-s0, …; 6 and 7 are dc3's.
        "windows": [(2, 2, 3)],
        "seeded": [
            (6, 0, list(range(65))), (7, 0, list(range(0, 65, 2))),
            (3, 0, list(range(0, 65, 3))),
        ],
        "inexact": False,
        "speculate": False,
        "seed": 7,
    }


#: Bullet, its parameters and :func:`deal_case`.
DEAL = (
    "bullet",
    {"ransub_size": 5, "num_peers": 3, "refresh_interval": 2, "blocks_per_peer": 3},
    deal_case(),
)


def test_bullet_deal_case():
    shadow = run_shadowed(*DEAL, max_cycles=8)
    assert shadow.decides >= 6 and shadow.directives > 0


def chunk_case():
    """Gingko's deal over more than one chunk: three servers per DC and
    a 60-block file, so a receiver lacks 20 blocks, where two receivers
    in ``dc1`` start with three quarters of theirs. With chunks of
    :data:`GINGKO_CHUNK` rows, the first receiver is a chunk on its own,
    and the next two share one. A source server fails in the middle of
    the first epoch, while receivers still count it among their
    neighbours."""
    return {
        "num_dcs": 3,
        "servers_per_dc": 3,
        "uplink": 2 * MBps,
        "jobs": [
            {
                "job_id": "a", "src_dc": "dc0", "dst_dcs": ("dc1", "dc2"),
                "relay_dcs": (), "total_bytes": 60 * MB, "arrival_time": 0.0,
            },
        ],
        # sorted names: dc0-s0, dc0-s1, dc0-s2, dc1-s0, …; 4 and 5 are in dc1.
        "windows": [(1, 1, 3)],
        "seeded": [
            (4, 0, [i for i in range(60) if i % 4]),
            (5, 0, [i for i in range(60) if i % 4 != 1]),
        ],
        "inexact": False,
        "speculate": False,
        "seed": 7,
    }


#: Rows per chunk of Gingko's deal in :func:`chunk_case`.
GINGKO_CHUNK = 16

#: Gingko, its parameters and :func:`chunk_case`.
FETCH = (
    "gingko",
    {"view_size": 4, "epoch_cycles": 2, "fetch_parallelism": 3,
     "blocks_per_request": 3},
    chunk_case(),
)


def test_gingko_chunks_equal_the_scalar_oracle(monkeypatch):
    """A receiver with more rows than a chunk is dealt alone, two that
    fit are dealt together, and the directives, the stream and the
    neighbour memo are the oracle's, which knows no chunks."""
    rows = []  # per decide, each receiver's rows, in order

    def recorded(lens):
        seg, dst, idx = missing(lens)
        rows.append(np.diff(base.run_bounds(dst)).tolist())
        return seg, dst, idx

    missing = JobPossession.missing
    monkeypatch.setattr(JobPossession, "missing", recorded)
    monkeypatch.setattr(gingko, "CHUNK", GINGKO_CHUNK)
    shadow = run_shadowed(*FETCH, max_cycles=8)
    assert shadow.decides >= 6 and shadow.directives > 0
    assert rows[0][:3] == [20, 5, 5] and 5 + 5 <= GINGKO_CHUNK < 20


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_one_dc_per_chunk_equals_the_scalar_oracle(name, monkeypatch):
    """A job-wide pass tests and groups one DC (or relay, or reflector)
    per chunk when a chunk holds fewer pairs than a job has blocks."""
    monkeypatch.setattr(base, "CHUNK", 1)
    shadow = run_shadowed(name, CORNER_PARAMS[name], corner_case(), max_cycles=8)
    assert shadow.decides >= 6 and shadow.directives > 0


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_a_large_decide_stays_small(name):
    """1 000 servers × 20 000 blocks: the lens gathers what is asked about,
    it never unpacks servers × blocks (20 MB as bools), and a job-wide
    pass holds its answer and one chunk's temporaries, not all of them."""
    topo = Topology.full_mesh(
        num_dcs=10, servers_per_dc=100, wan_capacity=1 * GBps, uplink=20 * MBps
    )
    job = MulticastJob(
        job_id="big", src_dc="dc0", dst_dcs=("dc1", "dc2", "dc3"),
        total_bytes=20_000 * MB, block_size=1 * MB,
    )
    job.bind(topo)
    # Every destination server already holds a slice of the whole file:
    # 400 servers have data, and most neighbours have something to give.
    pre_seeded = {
        server.server_id: job.blocks[k % 11 :: 11]
        for dc in job.dst_dcs
        for k, server in enumerate(topo.servers_in(dc))
    }
    production, _oracle = STRATEGIES[name]
    strategy = production(seed=0) if name in ("gingko", "bullet") else production()
    sim = Simulation(topo, [job], strategy, SimConfig(), pre_seeded=pre_seeded)
    view = sim.snapshot_view()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        directives = strategy.decide(view)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(directives) > 280
    if name == "gingko":
        assert len(strategy._neighbors) == 300 and len(directives) > 300
    assert peak - before < 4 * 2**20


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_views_the_simulator_would_not_reach(name):
    """Possession frozen while agents fail around it, one view per cycle.

    Every source-DC server is failed in turn, mid-epoch, while copies of
    its blocks survive elsewhere: a Bullet peer chosen at cycle 0 is still
    asked after it failed (the simulator drops the directive, the baseline
    does not know), a Gingko neighbour is not; and ``direct`` cuts its
    window before it learns that an origin holder is gone.
    """
    topo = Topology.full_mesh(
        num_dcs=3, servers_per_dc=2, wan_capacity=1 * GBps, uplink=5 * MBps
    )
    job = MulticastJob(
        job_id="j", src_dc="dc0", dst_dcs=("dc1", "dc2"),
        total_bytes=8 * MB, block_size=1 * MB,
    )
    job.bind(topo)
    blocks = job.blocks
    pre_seeded = {"dc1-s0": blocks, "dc0-s1": [blocks[4], blocks[6]]}
    params = {
        "gingko": {"view_size": 3, "epoch_cycles": 5},
        "bullet": {"ransub_size": 5, "num_peers": 3, "refresh_interval": 5},
        "akamai": {"window": 2},
        "chain": {"window": 2},
        "direct": {"window": 2},
    }[name]
    shadow = Shadow(name, params, seed=3)
    shadow._topology = topo
    sim = Simulation(topo, [job], shadow, SimConfig(), pre_seeded=pre_seeded)
    failed_by_cycle = [
        set(), {"dc0-s0"}, {"dc0-s0", "dc2-s1"}, {"dc0-s1", "dc1-s0"}, {"dc2-s0"},
    ]
    emitted = [
        shadow.decide(sim.snapshot_view(cycle).replace(failed_agents=failed))
        for cycle, failed in enumerate(failed_by_cycle)
    ]
    assert all(emitted[:3])
    if name == "bullet":
        assert any(d.src_server == "dc0-s0" for d in emitted[1])
    if name == "direct":
        # dc2-s0 lacks 0, 2, 4, 6; with dc0-s0 down only 4 and 6 have an
        # origin holder, and both lie beyond the window.
        assert not any(d.dst_server == "dc2-s0" for d in emitted[1])


def test_origin_over_two_holder_words_with_a_failed_holder_in_each():
    """70 source-DC servers (two holder words), a failed holder in each
    word, copies beside them in both: ``origin`` is the lowest healthy
    holder, as ``first_holder`` over the source DC and the scalar oracle
    find it, and -1 where every source-DC holder failed."""
    topo = Topology.full_mesh(
        num_dcs=2, servers_per_dc=70, wan_capacity=1 * GBps, uplink=5 * MBps
    )
    job = MulticastJob(
        job_id="j", src_dc="dc0", dst_dcs=("dc1",),
        total_bytes=280 * MB, block_size=1 * MB,
    )
    job.bind(topo)
    names = sorted(topo.servers)  # ids 0-63 are word 0, 64-69 word 1
    blocks = job.blocks
    pre_seeded = {names[5]: blocks[::2], names[68]: blocks[1::4]}
    strategy = DirectStrategy()
    sim = Simulation(topo, [job], strategy, SimConfig(), pre_seeded=pre_seeded)
    view = sim.snapshot_view().replace(failed_agents={names[3], names[66]})
    lens = strategy.lens(view, job)
    in_src_dc = np.flatnonzero(np.char.startswith(np.array(names), "dc0-"))
    origin = lens.origin
    assert (origin == lens.first_holder(in_src_dc.tolist())).all()
    want = [oracles.origin_holder(view, job, block) for block in blocks]
    assert [names[s] if s >= 0 else None for s in origin.tolist()] == want
    assert {5, 68} <= set(origin.tolist()) and -1 in origin and 69 in origin


# -- mutants of the job-wide pass ------------------------------------------------


def mutant(cls, name, *edits):
    """``cls.name`` recompiled with each ``(old, new)`` edit applied once."""
    source = textwrap.dedent(inspect.getsource(getattr(cls, name)))
    for old, new in edits:
        assert source.count(old) == 1, f"{name} no longer contains {old!r}"
        source = source.replace(old, new)
    namespace = dict(vars(sys.modules[cls.__module__]))
    exec(compile(source, f"<mutant {cls.__name__}.{name}>", "exec"), namespace)
    return namespace[name]


_BOUNDS = "np.searchsorted(seg, range(0, len(assigned) + step, step))"

def corner(strategy):
    """``strategy``, its corner-case parameters and the corner case."""
    return strategy, CORNER_PARAMS[strategy], corner_case()


#: name -> ((strategy, parameters, the scenario that catches it), class,
#: method, edits)
MUTANTS = {
    # every chunk's server grouping starts one row late and ends one late
    "segment-bounds-shifted": (
        corner("direct"), JobPossession, "missing", [(_BOUNDS, f"({_BOUNDS} + 1)")]
    ),
    # a fan-out row names the relay of the DC before its own
    "relay-from-the-neighbouring-segment": (
        corner("chain"), ChainStrategy, "_fan_out",
        [("chain[seg[rows]]", "chain[seg[rows] - 1]")],
    ),
    # an edge row asks the reflectors of the DC before its own
    "reflector-from-the-neighbouring-segment": (
        corner("akamai"), AkamaiStrategy, "_reflectors_to_edges",
        [("ranks[seg[rows]]", "ranks[seg[rows] - 1]")],
    ),
    # every phase of Bullet's deal starts its rotation at the first peer
    "turn-reset-at-each-phase": (
        DEAL, BulletStrategy, "_partition_disjoint",
        [("(turn[rec] + before - before[start])", "(before - before[start])")],
    ),
    # the row that fills a bucket is dealt again in the next phase
    "filling-row-in-the-next-phase": (
        DEAL, BulletStrategy, "_partition_disjoint",
        [("pos[rec[fills]] = row[fills] + 1", "pos[rec[fills]] = row[fills]")],
    ),
    # a receiver's pairs come out in order of first block, not of peer
    "pairs-in-first-appearance-order": (
        DEAL, BulletStrategy, "_partition_disjoint",
        [("np.lexsort((rows, slots))", "np.argsort(rows)")],
    ),
    # a receiver its first window did not finish is dealt no further rows
    "no-further-window": (
        DEAL, BulletStrategy, "_partition_disjoint",
        [("(pos[live] < end[live])", "~np.isin(live, chunk)")],
    ),
    # a neighbour that failed mid-epoch is still asked
    "failed-neighbour-asked": (
        FETCH, GingkoStrategy, "_fetch",
        [("np.where(lens.up[table], table, receivers[:, None])", "table")],
    ),
    # a row goes to a neighbour asked only at a later row
    "sender-asked-later-takes-an-earlier-row": (
        FETCH, GingkoStrategy, "_fetch",
        [("(asked[rec, n] <= rows)", "(asked[rec, n] < never)")],
    ),
    # a chunk past the first reads the first chunk's picks
    "picks-of-the-first-chunk": (
        FETCH, GingkoStrategy, "_fetch",
        [("picks[lo + new, n]", "picks[new, n]")],
    ),
    # a receiver's first row is never its first draw point
    "first-row-not-fresh": (
        FETCH, GingkoStrategy, "_fetch",
        [("seen[starts] - fresh[starts] + 1", "seen[starts] + 1")],
    ),
    # a receiver's senders come out in neighbour order, not asked order
    "senders-in-neighbour-order": (
        FETCH, GingkoStrategy, "_fetch",
        [("rec * parallel + turn", "rec * width + sender[rec, turn]")],
    ),
    # a row goes to the first sender asked that holds it, not the first
    # of its neighbours
    "first-asked-holder": (
        FETCH, GingkoStrategy, "_fetch",
        [("took & (mine < best)", "took & (best == width)")],
    ),
    # a sender is asked for one block more than it may send
    "one-block-over-the-request": (
        FETCH, GingkoStrategy, "_fetch",
        [("self.blocks_per_request)", "self.blocks_per_request + 1)")],
    ),
}


def test_mutant_with_a_missing_edit_text_fails():
    """A stale edit is an error here, never a mutant that 'was caught'."""
    with pytest.raises(AssertionError, match="no longer contains"):
        mutant(JobPossession, "missing", ("for dc in self._groups:", "pass"))


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(name, monkeypatch):
    (strategy, params, scenario), cls, method, edits = MUTANTS[name]
    # Gingko's deal in the chunks of its corner test (nothing else reads
    # it), set before the mutant copies the module's names.
    monkeypatch.setattr(gingko, "CHUNK", GINGKO_CHUNK)
    function = mutant(cls, method, *edits)  # a stale edit fails here
    monkeypatch.setattr(cls, method, function)
    with pytest.raises(AssertionError):
        run_shadowed(strategy, params, scenario, max_cycles=8)
