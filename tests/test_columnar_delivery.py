"""A cycle's deliveries as columns: one store scatter, a columnar log.

``Simulation._apply_deliveries`` lands a cycle's completed transfers —
row numbers of the cycle's ``FlowColumns`` and their finish times, no
per-block object — with one ``PossessionIndex.record_deliveries`` call,
and books completions once per (job, server) and (job, DC) key;
``tests/oracles.apply_deliveries`` is the per-delivery loop it replaced.
Twin simulations fed the same random batches (repeats inside a batch,
copies on relay DCs and on non-assigned servers, pre-seeded copies) must
agree on possession, the delivery log, every missing count and every
completion, in booking order; four mutants of the batched path must be
told apart from it.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from repro.analysis.runner import make_strategy
from repro.net.simulator import Simulation
from repro.net.topology import Topology
from repro.overlay.blocks import Block
from repro.overlay.job import MulticastJob
from repro.overlay.store import DeliveryRecord, PossessionIndex
from repro.utils.units import MB

from tests import oracles
from tests.test_overlay import mutant

SEEDS = range(40)


def _twins(seed: int):
    """Two identical fresh simulations of a random small scenario."""
    rng = random.Random(seed)
    topo = Topology.full_mesh(
        num_dcs=4, servers_per_dc=3, wan_capacity=100 * MB, uplink=10 * MB
    )
    specs = []
    for j in range(rng.randint(1, 3)):
        dcs = [f"dc{i}" for i in range(4)]
        rng.shuffle(dcs)
        src, *rest = dcs
        wide = rng.randint(1, 3)
        specs.append(dict(
            job_id=f"j{j}", src_dc=src, dst_dcs=tuple(rest[:wide]),
            relay_dcs=tuple(rest[wide:wide + 1]),
            total_bytes=rng.randint(2, 12) * MB, block_size=1 * MB,
        ))
    seeded = {}
    for spec in specs:
        for index in range(spec["total_bytes"] // MB):
            if rng.random() < 0.2:
                server = rng.choice(sorted(topo.servers))
                seeded.setdefault(server, []).append(
                    Block(spec["job_id"], index, 1 * MB)
                )

    def build() -> Simulation:
        jobs = [MulticastJob(**spec) for spec in specs]
        return Simulation(
            topo, jobs, make_strategy("bds", seed=0), pre_seeded=seeded
        )

    return build(), build(), rng


def _batch(sim: Simulation, rng: random.Random):
    """One cycle's validated directives and the rows that completed."""
    servers = sorted(sim.topology.servers)
    store = sim.state.store
    directives = []
    for _ in range(rng.randint(3, 20)):
        job = rng.choice(sim.jobs)
        indices = [rng.randrange(job.num_blocks) for _ in range(rng.randint(1, 4))]
        dst = rng.choice(servers)
        if rng.random() < 0.7:  # mostly the blocks' assigned server
            dst = job.assigned_server(
                rng.choice(job.dst_dcs), job.blocks[indices[0]].block_id
            )
            indices = [
                i for i in range(job.num_blocks)
                if job.assigned_server(store.dc_of(dst), job.blocks[i].block_id)
                == dst and rng.random() < 0.7
            ] or indices[:1]
            rng.shuffle(indices)
        holders = sorted(store.holders(job.blocks[indices[0]].block_id) - {dst})
        if not holders:
            continue
        directives.append(
            oracles.from_indices(
                job.job_id, np.array(indices), rng.choice(holders), dst
            )
        )
    _valid, columns = sim._valid_directives(directives, set())
    total = columns.bounds[-1]
    rows = sorted(rng.sample(range(total), rng.randint(total // 2, total)))
    finish = [round(rng.uniform(0.0, 3.0), 1) for _ in rows]
    return columns, rows, finish


def _events(sim: Simulation, columns, rows, finish):
    """The batch as the oracle's ``(job_id, block, src, dst, when)`` events."""
    base = sim._block_columns().base
    names = sim.state.store.matrix.server_names
    events = []
    for row, when in zip(rows, finish):
        flat = int(columns.flat[row])
        job = max(
            (j for j in sim.jobs if base[j.job_id] <= flat),
            key=lambda j: base[j.job_id],
        )
        events.append((
            job.job_id, job.blocks[flat - base[job.job_id]],
            names[columns.src[row]], names[columns.dst[row]], when,
        ))
    return events


def _state(sim: Simulation):
    state = sim.state
    matrix = state.store.matrix
    return (
        matrix.holder_words.tobytes(), matrix.dup.tobytes(),
        list(state.store.deliveries),
        list(state.dc_missing.items()), list(state.server_missing.items()),
        list(state.dc_completion.items()), list(state.server_completion.items()),
        list(state.job_completion.items()),
    )


def _land(sim: Simulation, twin: Simulation, columns, rows, finish) -> bool:
    """Land one batch on ``sim`` and, as events, on ``twin`` through the
    oracle; do they agree afterwards?"""
    events = _events(sim, columns, rows, finish)
    try:
        sim._apply_deliveries(columns, rows, finish)
    except Exception:  # a mutant may fail in any way
        return False
    oracles.apply_deliveries(twin, events)
    return _state(sim) == _state(twin)


def _agree(seed: int, apply=None, rounds: int = 8, seen=None) -> bool:
    """Do the batched path (or ``apply``) and the oracle agree on ``seed``?"""
    sim, twin, rng = _twins(seed)
    if apply is not None:
        sim._apply_deliveries = apply.__get__(sim)
    for _ in range(rounds):
        columns, rows, finish = _batch(sim, rng)
        if not rows:
            continue
        if not _land(sim, twin, columns, rows, finish):
            return False
        if seen is not None:
            flat, dst = columns.flat[rows].tolist(), columns.dst[rows].tolist()
            seen["repeats"] += len(rows) - len(set(zip(flat, dst)))
    if seen is not None:
        seen["jobs done"] += len(sim.state.job_completion)
        store = sim.state.store
        seen["relay copies"] += sum(
            store.dc_of(r.dst_server) in sim._jobs_by_id[r.block_id[0]].relay_dcs
            for r in store.deliveries
        )
    return True


def test_the_batched_path_equals_the_per_delivery_loop():
    seen = dict.fromkeys(["repeats", "jobs done", "relay copies"], 0)
    for seed in SEEDS:
        assert _agree(seed, seen=seen), seed
    # The seeds reach every branch the bookkeeping has.
    assert all(seen.values()), seen


def _witness(apply=None) -> bool:
    """One batch in which a DC completes through two servers whose
    deliveries interleave (s0, s1, s1, s0): the DC's completion is its
    latest delivery, not its last server's."""
    topo = Topology.full_mesh(
        num_dcs=2, servers_per_dc=2, wan_capacity=100 * MB, uplink=10 * MB
    )

    def build() -> Simulation:
        job = MulticastJob("j", "dc0", ("dc1",), 4 * MB, block_size=1 * MB)
        return Simulation(topo, [job], make_strategy("bds", seed=0))

    sim, twin = build(), build()
    if apply is not None:
        sim._apply_deliveries = apply.__get__(sim)
    _valid, columns = sim._valid_directives(
        [
            oracles.from_indices("j", np.array(blocks), src, dst)
            for blocks, src, dst in [
                ([0], "dc0-s0", "dc1-s0"),
                ([1, 3], "dc0-s1", "dc1-s1"),
                ([2], "dc0-s0", "dc1-s0"),
            ]
        ],
        set(),
    )
    agree = _land(sim, twin, columns, [0, 1, 2, 3], [1.0, 2.0, 1.5, 2.5])
    return agree and sim.state.job_completion == {"j": 2.5}


def test_an_unedited_recompile_agrees():
    same = mutant(Simulation._apply_deliveries)
    assert _witness() and _witness(same)
    assert all(_agree(seed, same) for seed in SEEDS[:10])


MUTANTS = {
    # Book completions server keys first, DC keys after, not in walk order.
    "booking-order": [
        ("for at, is_dc, key in sorted(booked):", "for at, is_dc, key in booked:")
    ],
    # A key completes at its first counted delivery of the cycle.
    "first-delivery": [
        ("last = {key: at for at, key in enumerate(keys)}",
         "last = {key: at for at, key in reversed(list(enumerate(keys)))}")
    ],
    # A DC completes at its last server key's delivery, not its latest.
    "dc-last-key": [("tally[1] = max(tally[1], last[key])", "tally[1] = last[key]")],
    # Any copy in a destination DC counts, assigned server or not.
    "any-server": [
        ("cols.stripe_sids[cols.stripe_lo[dest] + slot] == dst",
         "dest < len(cols.stripe_lo) - 1")
    ],
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(name):
    broken = mutant(Simulation._apply_deliveries, *MUTANTS[name])
    assert not (_witness(broken) and all(_agree(seed, broken) for seed in SEEDS))


# -- the log --------------------------------------------------------------------


@pytest.fixture
def store() -> PossessionIndex:
    store = PossessionIndex({"a0": "A", "a1": "A", "b0": "B", "c0": "C"})
    store.matrix.intern_job("j", 4)
    return store


def _columns(store, events):
    return oracles.delivery_columns(store.matrix, events)


def test_the_log_reads_like_the_list_it_replaces(store):
    blocks = [Block("j", i, 1.0) for i in range(4)]
    store.seed("a0", blocks)
    store.record_delivery(blocks[0], "a0", "b0", 1.0, "A")
    store.record_deliveries(*_columns(store, [
        (blocks[1], "a0", "c0", 2.0, "A"),
        (blocks[0], "b0", "c0", 2.5, "A"),
        (blocks[1], "a0", "c0", 2.7, "A"),  # a repeat: lands nothing
    ]))
    want = [
        DeliveryRecord(("j", 0), "a0", "b0", 1.0, True),
        DeliveryRecord(("j", 1), "a0", "c0", 2.0, True),
        DeliveryRecord(("j", 0), "b0", "c0", 2.5, False),
    ]
    log = store.deliveries
    assert len(log) == 3 and log == want and list(log) == want
    assert log[0] == want[0] and log[-1] == want[-1] and log[1:] == want[1:]
    assert log != want[:2] and log != want[::-1]
    with pytest.raises(IndexError):
        log[3]
    gids, src, dst, times, from_origin = log.columns()
    assert gids.tolist() == [0, 1, 0] and times.tolist() == [1.0, 2.0, 2.5]
    assert src.tolist() == [0, 0, 2] and dst.tolist() == [2, 3, 3]
    assert from_origin.tolist() == [True, True, False]
    # Servers in order of their first delivery.
    assert list(store.origin_fraction_by_server().items()) == [
        ("b0", 1.0), ("c0", 0.5),
    ]


def test_a_batch_keeps_no_object_per_delivery():
    """100 000 deliveries in one batch hold five columns: well under the
    ≈ 200 bytes a ``DeliveryRecord`` object each would cost."""
    servers = {f"s{i:03d}": f"dc{i % 4}" for i in range(100)}
    store = PossessionIndex(servers)
    count = 100_000
    store.matrix.intern_job("j", count // 100)
    rng = np.random.default_rng(0)
    pair = rng.permutation(100 * (count // 100))[:count]
    columns = (
        pair % 100, pair // 100, (pair + 1) % 100, rng.random(count),
        np.zeros(count, dtype=np.int64),
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fresh = store.record_deliveries(*columns)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert fresh.all() and len(store.deliveries) == count
    assert grown < 40 * count
