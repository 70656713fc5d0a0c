"""The progress walk against the per-row loop it replaced.

``Simulation._progress_flows`` walks each directive's prefix only: whole
blocks while the budget lasts, then at most one row it stops in. It reads
the ``need`` column (size minus buffered bytes) that ``_flow_demands``
gathers at the cycle's start, and walks a cycle again, tracking each
key, only when walked rows repeat a (block, destination).
:func:`tests.oracles.progress_flows` is the loop it replaced: every row up
to the budget's end probes a ``(block_id, server)`` dict that the walk
updates as it goes. Equality here is exact: rows done, finish times,
bytes moved, the pairs that had a flow, and the partial-bytes store after
the cycle.

Covered: mid-run states (partial bytes left by earlier cycles) with more
planted on entry; a (block, destination) repeated within one directive
and across two; ``flow_setup_seconds > 0`` (ΔT/2 among them) and
``control_overhead_seconds > 0``; budgets that end exactly on a block
boundary, a microbyte short of a block, partway through one, and below
the walk's 1e-12 floor.

Two mutants of the walk fail here:

* "gather once, ignore repeats" — a walk that trusts the cycle-start
  ``need`` for every row, so a key's second row never sees the first
  one's progress — fails the explicit ``repeat`` examples;
* "drop the 1e-6 slack" — ``take < left`` where the walk has ``take <
  left - 1e-6``, so a block a microbyte short stays partial — fails the
  explicit examples with a ``slack`` budget.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests import oracles
from repro.analysis.runner import make_strategy
from repro.net.directive import TransferDirective
from repro.net.simulator import SimConfig, Simulation
from repro.net.topology import Topology
from repro.overlay.job import MulticastJob
from repro.utils.units import MB, MBps

CYCLE = 3.0
MODES = ("zero", "dust", "all", "boundary", "slack", "part")


def _midrun(seed: int, cycles: int, overhead: float, setup: float) -> Simulation:
    """A NIC-bound run ``cycles`` cycles in, with partial bytes live."""
    rng = random.Random(seed)
    num_dcs = rng.randint(2, 4)
    topo = Topology.full_mesh(
        num_dcs=num_dcs, servers_per_dc=rng.randint(1, 3),
        wan_capacity=40 * MBps, uplink=2 * MBps,
    )
    jobs = []
    for j in range(rng.randint(1, 2)):
        job = MulticastJob(
            job_id=f"job{j}",
            src_dc="dc0",
            dst_dcs=tuple(f"dc{i}" for i in range(1, num_dcs)),
            total_bytes=rng.choice([6, 11, 16]) * MB - rng.choice([0, 1, 98_765]),
            block_size=MB,
        )
        job.bind(topo)
        jobs.append(job)
    sim = Simulation(
        topology=topo,
        jobs=jobs,
        strategy=make_strategy("bds", seed=seed),
        config=SimConfig(
            cycle_seconds=CYCLE, max_cycles=max(cycles, 1),
            stop_when_complete=False, control_overhead_seconds=overhead,
            flow_setup_seconds=setup,
        ),
        seed=seed,
    )
    if cycles:
        sim.run()
    return sim


def _window(sim: Simulation, d: TransferDirective) -> float:
    cfg = sim.config
    window = cfg.cycle_seconds - cfg.control_overhead_seconds
    if (d.src_server, d.dst_server) not in sim.state.prev_pairs:
        window = max(0.0, window - cfg.flow_setup_seconds)
    return window


def _rate(mode: str, need, window: float, rng: random.Random) -> float:
    """A rate whose budget ends the way ``mode`` says within ``need``."""
    if mode == "zero" or window <= 0:
        return 0.0
    if mode == "dust":
        return 1e-13 / window
    if mode == "all":
        return 2 * sum(need) / window + 1.0
    k = rng.randrange(len(need))
    budget = sum(need[:k])
    if mode == "slack":
        budget += need[k] - 5e-7
    elif mode == "part":
        budget += need[k] * rng.choice([0.25, 0.5, 0.9])
    return budget / window


def _case(seed, cycles, overhead, setup, repeat, modes, plant):
    """A mid-run simulation, the cycle's validated directives with their
    row columns, and a rate per directive; partial bytes planted."""
    rng = random.Random(seed)
    sim = _midrun(seed, cycles, overhead, setup)
    view = sim.snapshot_view(cycles)
    directives = list(sim.strategy.decide(view))
    if directives and repeat in ("within", "both"):
        d = directives[0]  # its first block, twice in a row
        directives[0] = TransferDirective(
            d.job_id, d.block_ids[:1] + d.block_ids, d.src_server,
            d.dst_server, d.rate_cap,
        )
    if directives and repeat in ("across", "both"):
        directives.insert(1, directives[0])  # the same rows, once more
    valid, columns = sim._valid_directives(directives, set(view.failed_agents))
    partial = view.partial_bytes
    sizes = columns.sizes.tolist()
    planted = set()
    for row, key in enumerate(columns.keys.tolist()):
        forced = row == 0 and repeat != "none"
        if (forced or rng.random() < plant) and key not in planted:
            partial[key] = sizes[row] * rng.choice([0.125, 0.5, 0.75])
            planted.add(key)
    sim._flow_demands(columns)
    need, bounds = columns.need, columns.bounds
    rates = {}
    for i, d in enumerate(valid):
        mode = "all" if repeat != "none" and i < 2 else modes[i % len(modes)]
        rates[i] = _rate(
            mode, need[bounds[i] : bounds[i + 1]], _window(sim, d), rng
        )
    if valid and repeat in ("across", "both"):
        # The first directive stops halfway through its first row; its
        # copy walks on past that row.
        rates[0] = 0.5 * need[0] / _window(sim, valid[0])
    return sim, view, valid, columns, rates


def _pair_names(sim, pairs):
    """The walk's ``src * num_servers + dst`` pair keys as name pairs."""
    names = sim.state.store.matrix.server_names
    return {(names[pair // len(names)], names[pair % len(names)]) for pair in pairs}


def _assert_walk_is_the_loop(sim, view, valid, columns, rates, cycle):
    matrix = sim.state.store.matrix
    partial = oracles.partial_map(view)
    prev = _pair_names(sim, sim.state.prev_pairs)
    want = oracles.progress_flows(
        sim.config, cycle, valid, columns, rates,
        matrix.block_ids(np.arange(matrix.num_blocks)), partial, prev,
    )
    got = sim._progress_flows(cycle, valid, columns, rates)
    assert got == want[:3]
    assert _pair_names(sim, sim.state.prev_pairs) == want[3]
    assert oracles.partial_map(view) == partial
    return got


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cycles=st.integers(0, 3),
    overhead=st.sampled_from([0.0, 0.5, 1.0]),
    setup=st.sampled_from([0.0, 1.0, CYCLE / 2]),
    repeat=st.sampled_from(["none", "within", "across", "both"]),
    modes=st.lists(st.sampled_from(MODES), min_size=1, max_size=6),
    plant=st.sampled_from([0.0, 0.3]),
)
@example(seed=1, cycles=2, overhead=0.5, setup=1.0, repeat="within",
         modes=["all"], plant=0.0)
@example(seed=2, cycles=1, overhead=0.0, setup=CYCLE / 2, repeat="across",
         modes=["all"], plant=0.0)
@example(seed=3, cycles=2, overhead=1.0, setup=1.0, repeat="none",
         modes=["slack", "boundary", "part"], plant=0.3)
@example(seed=4, cycles=0, overhead=0.5, setup=0.0, repeat="both",
         modes=["slack", "dust", "zero"], plant=0.3)
def test_walk_equals_the_per_row_loop(seed, cycles, overhead, setup, repeat, modes, plant):
    sim, view, valid, columns, rates = _case(
        seed, cycles, overhead, setup, repeat, modes, plant
    )
    _assert_walk_is_the_loop(sim, view, valid, columns, rates, cycles)


def test_a_budget_ending_on_a_block_boundary_stops_there():
    """A new pair's window of 1 s and whole-byte blocks: the budget of
    two blocks is exact, and the walk finishes both and leaves the third
    alone."""
    sim = _midrun(2, 0, overhead=1.0, setup=1.0)  # dc0-s0 holds every block
    view = sim.snapshot_view(0)
    job = sim.jobs[0]
    blocks = tuple(b.block_id for b in job.blocks[:3])
    valid, columns = sim._valid_directives(
        [TransferDirective(job.job_id, blocks, "dc0-s0", "dc1-s0")], set()
    )
    sim._flow_demands(columns)
    need = columns.need
    assert _window(sim, valid[0]) == 1.0
    rate = need[0] + need[1]
    done = _assert_walk_is_the_loop(sim, view, valid, columns, {0: rate}, 0)[1]
    assert done == [0, 1]
    assert not view.partial_bytes


def test_partial_bytes_stay_inside_repro_net():
    """Only ``repro.net`` touches ``.partial`` (``RunState.partial``);
    every other module reads the store through
    ``ClusterView.partial_bytes``."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        if path.parent == src / "net":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            touched = isinstance(node, ast.Attribute) and node.attr == "partial"
            assert not touched, f"{path}:{node.lineno} touches .partial"
