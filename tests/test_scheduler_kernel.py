"""Equivalence suite for the array-native control plane.

The rarest-first kernel, the columnar router build, and the bitset
possession matrix must each be *bit-identical* to the scalar loops they
replaced (``tests/oracles.py``): same selections in the same order, same
directives, same answer to every store query.
These tests pin that contract over randomized topologies, jobs with
priorities and relays, failures, and selection caps.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.analysis.runner import make_strategy
from repro.core.decisions import SelectionBatch
from repro.core.routing import BDSRouter
from repro.core.scheduling import RarestFirstScheduler
from repro.core.speculation import speculate
from repro.net.failures import FailureEvent, FailureSchedule
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.overlay.store import PossessionIndex, PossessionOverlay
from repro.utils.units import MB, MBps

from tests import oracles


def _random_scenario(seed: int):
    """A randomized (topology, jobs, failures) triple.

    Varies DC/server counts, destination sets, priorities, and relay DCs;
    every other seed adds mid-run agent and link failures.
    """
    rng = random.Random(seed)
    num_dcs = rng.randint(3, 5)
    # Slow links relative to job sizes so that several cycles into a run
    # there is still plenty of pending work: equivalence tests on an
    # *empty* mid-run selection would be vacuous.
    topo = Topology.full_mesh(
        num_dcs=num_dcs,
        servers_per_dc=rng.randint(2, 4),
        wan_capacity=40 * MBps,
        uplink=5 * MBps,
    )
    dcs = [f"dc{i}" for i in range(num_dcs)]
    jobs = []
    for j in range(rng.randint(1, 3)):
        src = rng.choice(dcs)
        others = [d for d in dcs if d != src]
        rng.shuffle(others)
        num_dsts = rng.randint(1, len(others))
        dsts = tuple(sorted(others[:num_dsts]))
        leftovers = others[num_dsts:]
        relays = tuple(leftovers[:1]) if leftovers and rng.random() < 0.5 else ()
        job = MulticastJob(
            job_id=f"job{j}",
            src_dc=src,
            dst_dcs=dsts,
            relay_dcs=relays,
            total_bytes=rng.choice([48, 64, 96]) * MB,
            block_size=4 * MB,
            priority=rng.randint(0, 2),
        )
        job.bind(topo)
        jobs.append(job)
    failures = None
    if seed % 2:
        events = [
            FailureEvent(cycle=1, kind="agent_fail", target=f"{dcs[1]}-s0"),
            FailureEvent(cycle=2, kind="link_fail", target=(dcs[0], dcs[1])),
        ]
        failures = FailureSchedule(events)
    return topo, jobs, failures


NOTHING = np.empty(0, dtype=np.int64)


def _midrun_view(seed: int, cycles: int = 2):
    """A cluster view a few cycles into a simulation."""
    topo, jobs, failures = _random_scenario(seed)
    sim = Simulation(
        topology=topo,
        jobs=jobs,
        strategy=make_strategy("bds", seed=seed),
        config=SimConfig(max_cycles=cycles, stop_when_complete=False),
        failures=failures,
        seed=seed,
    )
    sim.run()
    return sim.snapshot_view()


class TestVectorizedSelectionEquivalence:
    """kernel ≡ kernel over an overlay copy ≡ the per-candidate oracle:
    content AND order."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("cap", [0, 7])
    def test_three_paths_identical(self, seed, cap):
        view = _midrun_view(seed)
        scheduler = RarestFirstScheduler(max_blocks_per_cycle=cap)

        selected = scheduler.select(view)
        assert isinstance(selected, SelectionBatch)

        # Same possession in an overlay's copy of the matrix (nothing
        # speculated), under the simulator's candidate table.
        overlay = view.replace(store=PossessionOverlay(view.store, NOTHING, NOTHING))
        assert overlay.store.matrix is not view.store.matrix
        assert scheduler.select(overlay) == selected

        view._candidates = None  # a hand-built view: it builds its own
        own = scheduler.select(view)
        assert isinstance(own, SelectionBatch)
        assert view.candidates.matrix is view.store.matrix

        legacy = oracles.select_rarest_first(view, scheduler)

        assert selected == own  # list equality: content AND order
        assert selected == legacy

    def test_relay_dc_across_two_holder_words(self):
        """80 servers: the relay DC's (sids 60–79) straddle two holder
        words, so "some server of the DC holds it" must OR the words, and
        the failed holders of a block must be counted in both."""
        topo = Topology.full_mesh(
            num_dcs=4, servers_per_dc=20, wan_capacity=40 * MBps, uplink=5 * MBps
        )
        job = MulticastJob(
            job_id="wide", src_dc="dc0", dst_dcs=("dc1", "dc2"),
            relay_dcs=("dc3",), total_bytes=640 * MB, block_size=4 * MB,
        )
        job.bind(topo)
        sim = Simulation(
            topology=topo, jobs=[job], strategy=make_strategy("bds", seed=0),
            config=SimConfig(max_cycles=3, stop_when_complete=False), seed=0,
        )
        sim.run()
        view = sim.snapshot_view()
        matrix = view.store.matrix
        relay = matrix.dc_ids["dc3"]
        words = matrix.holder_words[: matrix.num_blocks] & matrix.dc_mask[relay]
        # Relay copies already sit in each of the two words.
        assert (words[:, 0] != 0).any() and (words[:, 1] != 0).any()
        scheduler = RarestFirstScheduler()
        assert scheduler.select(view) == oracles.select_rarest_first(view, scheduler)
        # Fail both holders of a block held once in each word: only a
        # failed-holder count that reads both words leaves it unsourced.
        pair = next(
            held for held in map(matrix.holder_ids, range(matrix.num_blocks))
            if len(held) == 2 and held[0] < 64 <= held[1]
        )
        failed = {matrix.server_names[sid] for sid in pair}
        failing = view.replace(failed_agents=view.failed_agents | failed)
        selected = scheduler.select(failing)
        assert selected == oracles.select_rarest_first(failing, scheduler)
        assert selected != scheduler.select(view)

    @pytest.mark.parametrize("seed", range(4))
    def test_no_relays_mode_identical(self, seed):
        view = _midrun_view(seed)
        scheduler = RarestFirstScheduler(use_relays=False)
        selected = scheduler.select(view)
        assert isinstance(selected, SelectionBatch)
        assert selected == oracles.select_rarest_first(view, scheduler)

    def test_repeated_select_is_stable(self):
        # The kernel compacts candidate rows; that may not change what a
        # repeated select on the same view says.
        view = _midrun_view(2)
        scheduler = RarestFirstScheduler()
        first = scheduler.select(view)
        second = scheduler.select(view)
        assert first == second


class TestBatchedRouterEquivalence:
    """Columnar group build ≡ the per-selection pick and merge."""

    @pytest.mark.parametrize("seed", range(8))
    def test_directives_identical(self, seed):
        view = _midrun_view(seed)
        selections = RarestFirstScheduler().select(view)
        router = BDSRouter()
        batched, _ = router.route(view, selections)
        _commodities, scalar = oracles.route(view, list(selections), router)
        assert batched == scalar

    @pytest.mark.parametrize("merge", [True, False])
    def test_merge_ablation_identical(self, merge):
        view = _midrun_view(4)
        selections = RarestFirstScheduler().select(view)
        router = BDSRouter(merge_blocks=merge)
        batched, _ = router.route(view, selections)
        _commodities, scalar = oracles.route(view, list(selections), router)
        assert batched == scalar


def _twin_indices(topo: Topology, jobs):
    server_dc = {s.server_id: s.dc for s in topo.servers.values()}
    return (
        _interned(PossessionIndex(server_dc), jobs),
        oracles.DictPossessionIndex(server_dc),
    )


def _interned(index, jobs):
    """``index`` with the spans of ``jobs`` interned (a matrix-backed one)."""
    for job in jobs if hasattr(index, "matrix") else ():
        index.matrix.intern_job(job.job_id, job.num_blocks)
    return index


#: The production index and its oracle, which must obey the same contract
#: to be worth comparing against ("True" is the matrix-backed one).
BOTH_INDEXES = pytest.mark.parametrize(
    "index", [PossessionIndex, oracles.DictPossessionIndex], ids=["True", "False"]
)


def _assert_indices_agree(matrix_idx, dict_idx, jobs, servers):
    assert matrix_idx.deliveries == dict_idx.deliveries
    for job in jobs:
        for block in job.blocks:
            bid = block.block_id
            assert set(matrix_idx.holders(bid)) == set(dict_idx.holders(bid))
            # the matrix's incrementally kept rarity column
            assert oracles.duplicate_count(matrix_idx, bid) == len(
                dict_idx.holders(bid)
            )
            for dc in {dc for dc in (s.split("-")[0] for s in servers)}:
                assert oracles.dc_copy_count(
                    matrix_idx, dc, bid
                ) == dict_idx.dc_copy_count(dc, bid)
    for server in servers:
        assert oracles.blocks_on(matrix_idx, server) == set(
            dict_idx.blocks_on(server)
        )
        for job in jobs:
            for block in job.blocks:
                assert matrix_idx.has(server, block.block_id) == dict_idx.has(
                    server, block.block_id
                )
    assert (
        matrix_idx.origin_fraction_by_server()
        == dict_idx.origin_fraction_by_server()
    )


class TestPossessionIndexEquivalence:
    """The matrix-backed index ≡ the dict-of-sets oracle for every
    query, every step."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_mutation_sequences(self, seed):
        rng = random.Random(1000 + seed)
        topo, jobs, _failures = _random_scenario(seed)
        matrix_idx, dict_idx = _twin_indices(topo, jobs)
        servers = sorted(topo.servers)
        blocks = [b for job in jobs for b in job.blocks]

        # Initial seeding: every job's blocks onto its source DC servers.
        for job in jobs:
            src_servers = [
                s for s in servers if topo.servers[s].dc == job.src_dc
            ]
            for i, block in enumerate(job.blocks):
                holder = src_servers[i % len(src_servers)]
                matrix_idx.seed(holder, [block])
                dict_idx.seed(holder, [block])
        _assert_indices_agree(matrix_idx, dict_idx, jobs, servers)

        for step in range(30):
            op = rng.random()
            if op < 0.8:
                block = rng.choice(blocks)
                dst = rng.choice(servers)
                src_candidates = sorted(matrix_idx.holders(block.block_id))
                if not src_candidates:
                    continue
                src = rng.choice(src_candidates)
                origin = matrix_idx.dc_of(src)
                r1 = matrix_idx.record_delivery(
                    block, src, dst, float(step), origin
                )
                r2 = dict_idx.record_delivery(
                    block, src, dst, float(step), origin
                )
                assert (r1 is None) == (r2 is None)
            else:
                holder = rng.choice(servers)
                copies = rng.sample(blocks, 3)
                matrix_idx.seed(holder, copies)
                dict_idx.seed(holder, copies)
            _assert_indices_agree(matrix_idx, dict_idx, jobs, servers)

    @BOTH_INDEXES
    def test_unknown_names_behave(self, index):
        topo, jobs, _ = _random_scenario(0)
        server_dc = {s.server_id: s.dc for s in topo.servers.values()}
        idx = _interned(index(server_dc), jobs)
        assert idx.holders(("nope", 0)) == frozenset()
        assert oracles.duplicate_count(idx, ("nope", 0)) == 0
        assert not idx.has("no-such-server", jobs[0].blocks[0].block_id)
        with pytest.raises(KeyError):
            idx.seed("no-such-server", jobs[0].blocks[:1])


class TestEpochSemantics:
    """The store epoch the engine pins record is the number of copies
    placed: +1 per new copy, nothing for a duplicate, never less."""

    @BOTH_INDEXES
    def test_seed_and_delivery_bump_per_copy(self, index):
        topo, jobs, _ = _random_scenario(0)
        server_dc = {s.server_id: s.dc for s in topo.servers.values()}
        idx = _interned(index(server_dc), jobs)
        job = jobs[0]
        src = sorted(
            s for s in server_dc if server_dc[s] == job.src_dc
        )[0]
        dst = sorted(s for s in server_dc if server_dc[s] != job.src_dc)[0]

        def epoch():  # the matrix's ``dup`` column, holder count without one
            return sum(oracles.duplicate_count(idx, b.block_id) for b in job.blocks)

        idx.seed(src, job.blocks)
        assert epoch() == len(job.blocks)
        idx.seed(src, job.blocks)  # all duplicates: no bump
        assert epoch() == len(job.blocks)

        block = job.blocks[0]
        idx.record_delivery(block, src, dst, 0.0, job.src_dc)
        assert epoch() == len(job.blocks) + 1
        idx.record_delivery(block, src, dst, 1.0, job.src_dc)  # duplicate
        assert epoch() == len(job.blocks) + 1


class TestSpeculationFallback:
    """There is none: a speculated view is decided by the same kernels,
    over a copy of the matrix that holds the phantom copies too."""

    def test_speculated_store_is_not_exact(self):
        view = _midrun_view(0)
        scheduler = RarestFirstScheduler()
        selections = scheduler.select(view)
        directives, _ = BDSRouter().route(view, selections)
        sids, gids = speculate(view, directives, horizon_seconds=3.0)
        assert len(gids), "no speculatable directives in this scenario"
        overlay = view.replace(store=PossessionOverlay(view.store, sids, gids))
        # Not the live matrix, but a matrix: ids, table and cache are the
        # base view's, the phantom copies are set, the selection is a
        # batch, and it is the per-candidate scan's.
        matrix = overlay.store.matrix
        assert matrix is not view.store.matrix
        assert matrix.spans is view.store.matrix.spans
        assert overlay.candidates is view.candidates
        assert overlay._cache is view._cache
        assert matrix.test_many(sids, gids).all()
        assert not view.store.matrix.test_many(sids, gids).any()
        speculating = scheduler.select(overlay)
        assert isinstance(speculating, SelectionBatch)
        assert speculating != selections
        assert speculating == oracles.select_rarest_first(overlay, scheduler)
