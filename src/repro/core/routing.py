"""The routing step: path selection and bandwidth allocation (§4.4, §5.1).

Given the scheduling step's block selections, the router:

1. picks up to ``max_sources_per_group`` candidate source servers per block
   (spread across DCs for Type I/II path diversity);
2. **merges blocks** sharing (destination server, candidate source set) into
   one commodity — the §5.1 blocks-merging optimization that collapses
   10^5 blocks into a few hundred subtasks;
3. solves the max-throughput multi-commodity flow (Eq. 5 objective under
   the Eq. 1–3 capacity/volume constraints) with one of three backends:

   * ``greedy``  — rarity-ordered water-filling (fastest; the default);
   * ``fptas``   — Garg–Könemann ε-approximation (the paper's choice);
   * ``lp``      — exact LP via scipy/HiGHS (slowest; optimality yardstick);

4. converts per-path rates into rate-capped single-hop
   :class:`~repro.net.simulator.TransferDirective`s, splitting each merged
   group's blocks across its sources in proportion to the allocated rates.

Steps 1, 2 and 4 are columnar: selections arrive as the int columns of a
:class:`~repro.core.decisions.SelectionBatch`, are picked and merged as
array gathers, and leave as directives whose block lists are segments of
one per-cycle index array — no per-selection Python between the
scheduler kernel and the solver (:class:`_Grouping` is the hand-off).
Their work is proportional to merge groups, plus a few gathers and
three sorts per row — a lexsort into classes, a stable argsort into
(job, class, residue) representatives, whose picks are computed once
(:meth:`BDSRouter._pick_sources`), and an argsort into group order
after one lexsort of the representatives into groups. A group's send
order is two ranges of one gather; only a group dealt across several
flowing sources walks its blocks in Python.

Step 3 hands the solver parallel lists, not objects: per commodity its
group, its demand, and its candidate paths as tuples of resource numbers
from the :class:`~repro.net.cycle_cache.CycleCache`'s resource-id table.
The greedy water-fill (:func:`greedy_waterfill`) runs on exactly those;
the FPTAS and LP backends build their :class:`~repro.lp.mcf.Commodity`
list and :class:`~repro.lp.incidence.PathIncidence` from them inside
their own branch. Either way rates come back as one float row per
commodity, aligned with its sources.
"""

from __future__ import annotations

import time as _time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.decisions import SelectionBatch
from repro.lp.fptas import max_multicommodity_flow
from repro.lp.incidence import PathIncidence
from repro.lp.mcf import Commodity, solve_lp_incidence
from repro.net.cycle_cache import CycleCache, RoutingWarmStore
from repro.net.simulator import ClusterView, TransferDirective
from repro.overlay.job import MulticastJob
from repro.utils.validation import check_positive

GroupKey = Tuple[str, str, Tuple[str, ...]]  # (job, dst_server, sources)

#: (iterations, phases, warm_start) triple the solver backends report;
#: greedy/lp have no iteration structure so they report the zero triple.
SolverStats = Tuple[int, int, str]
_NO_SOLVER_STATS: SolverStats = (0, 0, "")

#: A solve's output: one float row per commodity, aligned with its paths
#: (0.0 where nothing flows), and the (commodity, path) slots that carry
#: flow in the order they first received any — the order the objective
#: has always folded the rates in.
Rates = List[List[float]]
TouchOrder = List[Tuple[int, int]]


def greedy_waterfill(
    demands: Sequence[float],
    paths: Sequence[Sequence[Sequence[int]]],
    residual: List[float],
    fair_rounds: int = 3,
) -> Tuple[Rates, TouchOrder]:
    """Round-robin water-filling in commodity order (rarity order).

    ``demands[c]`` is commodity ``c``'s rate demand (``inf``: uncapped),
    ``paths[c]`` its candidate paths as non-empty sequences of indices
    into ``residual``, the per-resource capacity left — consumed in
    place. A path crossing a resource without capacity has no room and
    is never chosen (the lenient rule: ``CycleCache.capacity_vector``
    fills ``residual`` with ``capacities.get(key, 0.0)``).

    Pure first-come-first-served greedy lets the first commodity drain
    a shared uplink and starves every destination behind it, so the
    allocation happens in two phases:

    1. ``fair_rounds`` round-robin passes where each commodity pushes at
       most ``room / remaining_commodities`` on its best residual path —
       an approximation of max-min sharing;
    2. a final pass in rarity order that hands out whatever is left.

    A path's room is the min over its resources; ties between paths
    break on the first maximum (lowest path index) and a push subtracts
    once per resource *occurrence*. Router commodities have at most
    ``max_sources_per_group`` paths of two to four resources, so the
    reductions are plain loops over ints — a numpy call per 3-element
    segment costs several times the loop — written out in both phases,
    as a call per visit would cost as much as the scan.
    """
    remaining = list(demands)
    rates: Rates = [[0.0] * len(candidates) for candidates in paths]
    order: TouchOrder = []

    active = [ci for ci, demand in enumerate(remaining) if demand > 1e-9]
    for _round in range(fair_rounds):
        if not active:
            break
        share = 1.0 / len(active)
        for ci in active:  # one quantum per visit
            candidates = paths[ci]
            best_pi, best_room, pi = -1, 0.0, 0
            for path in candidates:
                room = residual[path[0]]
                for i in path:
                    if residual[i] < room:
                        room = residual[i]
                if room > best_room:
                    best_room = room
                    best_pi = pi
                pi += 1
            if best_pi < 0 or best_room <= 1e-9:
                continue
            demand = remaining[ci]
            push = best_room * share
            if demand < push:
                push = demand
            if push <= 1e-9:
                continue
            row = rates[ci]
            if row[best_pi] == 0.0:
                order.append((ci, best_pi))
            row[best_pi] += push
            for i in candidates[best_pi]:
                residual[i] -= push
            remaining[ci] = demand - push
        active = [ci for ci in active if remaining[ci] > 1e-9]
    for ci, demand in enumerate(remaining):
        candidates = paths[ci]
        while demand > 1e-9:
            best_pi, best_room, pi = -1, 0.0, 0
            for path in candidates:
                room = residual[path[0]]
                for i in path:
                    if residual[i] < room:
                        room = residual[i]
                if room > best_room:
                    best_room = room
                    best_pi = pi
                pi += 1
            if best_pi < 0 or best_room <= 1e-9:
                break
            push = best_room if demand >= best_room else demand
            if push <= 1e-9:
                break
            row = rates[ci]
            if row[best_pi] == 0.0:
                order.append((ci, best_pi))
            row[best_pi] += push
            for i in candidates[best_pi]:
                residual[i] -= push
            demand -= push
    return rates, order


def _run_heads(column: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    """Where a run of equal rows starts, over columns read in order."""
    is_head = np.empty(len(column), dtype=bool)
    is_head[0] = True
    is_head[1:] = column[1:] != column[:-1]
    for column in rest:
        is_head[1:] |= column[1:] != column[:-1]
    return is_head


@np.errstate(over="ignore")  # an infinite product saturates like any other
def _periods(moduli: np.ndarray, rotation: np.ndarray, bound: int) -> np.ndarray:
    """Per row: the product of its ``moduli`` (at least 1) and ``rotation``, saturated.

    The product is a multiple of every operand, so indices equal modulo
    it are equal modulo each. (The lcm is smaller where operands share
    factors, at an int64 gcd per operand.) It is capped at ``bound``,
    past every block index, so ``i % bound == i``, and never wraps.
    Below the cap (at most 2**53) the float product is exact: every
    partial product is an integer no larger than the whole.
    """
    product = np.multiply.reduce(np.maximum(moduli, 1), axis=1, dtype=float)
    return np.minimum(product * rotation, bound).astype(np.int64)


@dataclass
class _Grouping:
    """Selections merged into commodity groups, as index segments.

    Groups are in first-appearance order (commodity order is the greedy
    solver's rarity order); rows ``bounds[g]:bounds[g + 1]`` are group
    ``g``'s selections in selection order.
    """

    keys: List[GroupKey]
    jobs: List[MulticastJob]
    dst_servers: List[str]
    bounds: List[int]
    #: Per row: job-relative block index, block size, and bytes already
    #: buffered at the destination (``None``: nothing is buffered anywhere).
    indices: np.ndarray
    sizes: np.ndarray
    buffered: Optional[np.ndarray]


@dataclass
class RoutingDiagnostics:
    """Routing-step telemetry for the scalability figures (11a, 13a).

    ``iterations``/``phases``/``warm_start`` describe the FPTAS solve
    (zero/empty for the greedy and LP backends): flow-push count, Fleischer
    phase count, and how the solve started — ``"cold"``, ``"warm"``,
    ``"reuse"``, or ``"cold-fallback"`` (see
    :class:`repro.lp.fptas.FPTASResult`).
    """

    backend: str
    num_selections: int
    num_commodities: int
    objective: float  # total allocated bytes/second
    runtime: float
    iterations: int = 0
    phases: int = 0
    warm_start: str = ""


class BDSRouter:
    """Implements the routing half of BDS's decoupled control logic."""

    def __init__(
        self,
        backend: str = "greedy",
        epsilon: float = 0.1,
        max_sources_per_group: int = 3,
        merge_blocks: bool = True,
    ) -> None:
        if backend not in ("greedy", "fptas", "lp"):
            raise ValueError(f"unknown routing backend {backend!r}")
        check_positive("epsilon", epsilon)
        check_positive("max_sources_per_group", max_sources_per_group)
        self.backend = backend
        self.epsilon = epsilon
        self.max_sources_per_group = max_sources_per_group
        self.merge_blocks = merge_blocks
        self._warm = RoutingWarmStore()

    # -- public API -------------------------------------------------------

    def route(
        self,
        view: ClusterView,
        selections: SelectionBatch,
    ) -> Tuple[List[TransferDirective], RoutingDiagnostics]:
        """Allocate paths and rates for the scheduled blocks.

        The selection (what :meth:`RarestFirstScheduler.select
        <repro.core.scheduling.RarestFirstScheduler.select>` returns) is
        read as its columns, against the possession matrix of ``view``'s
        store: the source-candidate picks and the §5.1 merge are array
        gathers and server names are only materialized once per final
        group.
        """
        started = _time.perf_counter()
        if not selections:
            return [], RoutingDiagnostics(
                backend=self.backend,
                num_selections=0,
                num_commodities=0,
                objective=0.0,
                runtime=_time.perf_counter() - started,
            )

        if not isinstance(selections, SelectionBatch):
            raise TypeError(
                "route() reads the columns of a SelectionBatch (what "
                f"RarestFirstScheduler.select returns), not a {type(selections).__name__}"
            )
        cache = view._cache
        grouping = self._group_columns(view, selections, cache)
        members, demands, paths = self._build_commodities(view, grouping, cache)
        if not members:
            return [], RoutingDiagnostics(
                backend=self.backend,
                num_selections=len(selections),
                num_commodities=0,
                objective=0.0,
                runtime=_time.perf_counter() - started,
            )

        if self.backend == "greedy":
            rates, order = greedy_waterfill(
                demands, paths, cache.capacity_vector(view.bulk_capacities)
            )
            solver = _NO_SOLVER_STATS
        else:
            rates, order, solver = self._solve_incidence(
                view, grouping, members, demands, paths, cache.res_keys
            )
        directives = self._to_directives(grouping, members, rates)
        return directives, RoutingDiagnostics(
            backend=self.backend,
            num_selections=len(selections),
            num_commodities=len(members),
            objective=sum([rates[ci][pi] for ci, pi in order]),
            runtime=_time.perf_counter() - started,
            iterations=solver[0],
            phases=solver[1],
            warm_start=solver[2],
        )

    # -- step 1 & 2: source candidates and merging -------------------------------

    def _pick_sources(
        self, view: ClusterView, batch: SelectionBatch, cache: CycleCache
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per representative, its group key: ``(key, first, rows, rep)``.

        Up to ``max_sources_per_group`` diverse sources per row: a
        usable holder in the destination's own DC first (cheap intra-DC
        copy), then one from each other DC in sorted order from a
        block-dependent offset, each rotated by block index — so
        consecutive blocks favour different source DCs and different
        holders of one DC (Type I/II path diversity). A holder is usable
        when it is not the destination, not a failed agent, and not
        partitioned away from the destination (§5.3).

        A row's picks depend on its class — (usable-holder set,
        destination) — and on its block index ``i`` only through ``i %
        count`` of each DC's usable holders and ``i % rotation`` (the
        number of other DCs), so ``i`` and ``i + P`` pick alike for any
        common multiple ``P`` of the rotation and every count — the
        class's period, here their product. The picks are
        therefore computed once per *representative*, one per distinct
        (class, job slot, ``i % P``), and gathered back to the rows:

        * a row's holder set is one gather of the matrix's
          ``holder_words`` (failed agents masked out), and equal
          (words, destination) rows are one class — one lexsort, stable,
          so that each class keeps its rows in row order;
        * per class, usable holders (those with a path to the
          destination, per the cache's ``reach`` table — probed through
          ``view.flow_resources`` the first time a pair is seen) are
          laid out DC by DC in ascending server id — interning order is
          name order, so these are name-sorted holder lists;
        * ``P`` saturates, never wraps (:func:`_periods`): it is capped
          at one past the largest block index, where ``i % P`` is ``i``
          itself; representatives are the runs of one stable argsort of
          the class-ordered rows' packed (class, slot, residue) keys, so
          that a run's head is its lowest row;
        * a representative's picks are modular gathers into its class's
          lists: ``local[i % len]`` first, then the other DCs from
          offset ``i % len(other_dcs)`` (one ``searchsorted`` into their
          running count), ``servers[i % len]`` of each.

        DC buckets are disjoint, so a pick can never repeat an earlier
        one. Returns ``key[r]``, representative ``r``'s (job slot,
        destination, picks -1 padded) as one int64 row; ``first[r]``,
        its lowest row; every row, representative by representative and
        in row order within each (``rows``); and the representative of
        each of those (``rep``). Work is per class and per
        representative, plus a few gathers and two sorts per row.
        """
        matrix = view.store.matrix
        num_dcs = len(matrix.dc_names)
        dc_order = matrix.dc_order
        picks = min(self.max_sources_per_group, num_dcs)

        words = matrix.holder_words[batch.gids]
        if view.failed_agents:
            up = np.full(words.shape[1], ~np.uint64(0))
            for server in view.failed_agents:
                sid = matrix.server_ids.get(server)
                if sid is not None:
                    up[sid >> 6] &= ~np.uint64(1 << (sid & 63))
            words &= up
        # Classes: runs of equal (words, destination) in lexsorted order.
        # Rows stay in this order until the representatives are found.
        columns = (batch.dst_sids, *words.T)
        order = np.lexsort(columns)
        is_head = _run_heads(*[column[order] for column in columns])
        cls = is_head.cumsum() - 1
        heads = order[is_head]
        class_dst = batch.dst_sids[heads]

        # Per class, over ``dc_order`` (each DC's servers one contiguous,
        # ascending-id run): held x reach — 1 usable, 0 not held or no
        # path, -1 not probed yet.
        held = (words[heads][:, matrix.dc_words] & matrix.dc_bits) != 0
        reach = cache.reach_table(view.topology.epoch, view.failed_links, dc_order)
        state = held * reach[class_dst]
        if np.minimum.reduce(state, axis=None) < 0:
            names = matrix.server_names
            which, column = np.nonzero(state < 0)
            for to, at in dict.fromkeys(  # probed in class order, once each
                zip(class_dst[which].tolist(), column.tolist())
            ):
                src = names[dc_order[at]]
                reach[to, at] = view.flow_resources(src, names[to]) is not None
            state = held * reach[class_dst]
        usable = state > 0

        # Per (class, DC), flat ``class * num_dcs + dc``: how many usable
        # holders, and where their list ends in ``holders`` — padded by
        # one entry, so that a representative without a pick in some
        # column gathers harmlessly. ``rank`` counts the other DCs (those
        # with a usable holder, not the destination's) over that layout:
        # ``before[c]`` of them belong to earlier classes.
        count = np.add.reduceat(usable, matrix.dc_starts, axis=1, dtype=np.int64)
        ends = count.cumsum()
        holders = np.zeros(ends[-1] + 1, dtype=np.int64)
        holders[:-1] = dc_order[usable.nonzero()[1]]
        local = cls[is_head] * num_dcs + matrix.server_dc_ids[class_dst]
        other = count > 0
        has_local = other.flat[local]
        other.flat[local] = False
        rank = other.cumsum()
        before = rank[::num_dcs] - other[:, 0]
        others = rank[num_dcs - 1 :: num_dcs] - before
        rotation = np.maximum(others, 1)

        # Representatives: runs of equal (class, slot, i % period) in one
        # stable argsort of the class-ordered rows.
        bound = max([len(job.blocks) for job in batch.jobs])
        period = _periods(count, rotation, bound)
        index = batch.indices[order]
        rep_key = (cls * len(batch.jobs) + batch.job_slots[order]) * bound + (
            index % period[cls]
        )
        by_rep = rep_key.argsort(kind="stable")
        is_head = _run_heads(rep_key[by_rep])
        head = by_rep[is_head]
        first = order[head]

        # Per representative (as columns, to broadcast against the pick
        # columns): column k picks in the local DC where the class has a
        # usable holder there (turn -1), else in the (k - has_local)-th
        # DC of the rotation over the other DCs from offset i. The search
        # leaves out the last running count, so that a turn past every
        # other DC stays in range; such a turn is masked out.
        row = cls[head, None]
        at = index[head, None]
        turn = np.arange(picks) - has_local[row]
        rotated = rank[:-1].searchsorted(
            before[row] + (at + turn) % rotation[row], side="right"
        )
        flat = np.where(turn < 0, local[row], rotated)
        key = np.empty((len(head), picks + 2), dtype=np.int64)
        key[:, 0] = batch.job_slots[first]
        key[:, 1] = batch.dst_sids[first]
        size = count.flat[flat]
        key[:, 2:] = np.where(
            turn < others[row], holders[ends[flat] - size + at % np.maximum(size, 1)], -1
        )
        return key, first, order[by_rep], is_head.cumsum() - 1

    def _group_columns(
        self, view: ClusterView, batch: SelectionBatch, cache: CycleCache
    ) -> _Grouping:
        """Pick and merge (§5.1) the batch's rows as index segments.

        Selections sharing (job, destination server, picked sources)
        are one group — or, with merging disabled, every selection is
        its own (the merging ablation). Groups are formed over the
        :meth:`_pick_sources` representatives (rows of one
        representative share all three) and numbered by first
        appearance, their members in selection order: one lexsort of
        the representatives on (key row as one sort key, lowest row),
        whose runs give each its group's lowest row (scattered back by
        representative), then one argsort of the rows on (that lead,
        row).
        """
        names = view.store.matrix.server_names
        jobs = batch.jobs
        key, first, rows, rep = self._pick_sources(view, batch, cache)
        n = len(rows)
        # Each row's lead is its group's lowest row, plus ``n`` when the
        # group has no usable source, so that such groups sort last.
        low = first + n * (key[:, 2] < 0)
        if self.merge_blocks:
            # One sort key per representative: the key row packed into an
            # int64 (picks, -1 included, as digits base ``radix``), or the
            # row as one opaque record when the packing would not fit.
            radix = len(names) + 1
            if len(jobs) * radix ** key.shape[1] < 2**63:
                record = key @ [radix**k for k in range(key.shape[1] - 1, -1, -1)]
            else:
                record = key.view(f"V{key.itemsize * key.shape[1]}")[:, 0]
            by_group = np.lexsort((low, record))
            is_head = _run_heads(record[by_group])
            lead = np.empty_like(low)
            lead[by_group] = low[by_group[is_head]][is_head.cumsum() - 1]
            lead = lead[rep]
        else:
            lead = rows + (low - first)[rep]
        by_lead = (lead * n + rows).argsort()
        order = rows[by_lead]
        starts = _run_heads(lead[by_lead]).nonzero()[0]

        keys: List[GroupKey] = []
        group_jobs: List[MulticastJob] = []
        dst_servers: List[str] = []
        merged = self.merge_blocks
        records = key[rep[by_lead[starts]]].tolist()
        starts = starts.tolist() + [n]
        for start, row in zip(starts, records):
            if row[2] < 0:
                break  # the groups without a usable source, and their rows
            job = jobs[row[0]]
            dst_server = names[row[1]]
            keys.append(
                (
                    job.job_id,
                    dst_server if merged else f"{dst_server}#{order[start]}",
                    tuple([names[s] for s in row[2:] if s >= 0]),
                )
            )
            group_jobs.append(job)
            dst_servers.append(dst_server)
        bounds = starts[: len(keys) + 1]
        order = order[: bounds[-1]]

        index = batch.indices[order]
        if len(jobs) == 1:
            sizes = jobs[0].block_sizes()[index]
        else:
            offsets = np.cumsum([0] + [len(job.blocks) for job in jobs[:-1]])
            sizes = np.concatenate([job.block_sizes() for job in jobs])[
                offsets[batch.job_slots[order]] + index
            ]
        partial = view.partial_bytes
        buffered = (
            partial.gather(partial.key(batch.gids[order], batch.dst_sids[order]))
            if partial
            else None
        )
        return _Grouping(
            keys=keys,
            jobs=group_jobs,
            dst_servers=dst_servers,
            bounds=bounds,
            indices=index,
            sizes=sizes,
            buffered=buffered,
        )

    # -- step 3: commodity construction and solving -------------------------------

    def _build_commodities(
        self, view: ClusterView, grouping: _Grouping, cache: CycleCache
    ) -> Tuple[List[int], List[float], List[Tuple[Tuple[int, ...], ...]]]:
        """One commodity per group with bytes left, as parallel lists.

        Per commodity: which group it is, its demand (bytes/s), and one
        path per candidate source as resource numbers of ``cache``'s
        resource-id table (probed through ``view.flow_resources`` the
        first time a pair is seen).

        A group's demand folds its rows' ``size - buffered`` with the
        builtin ``sum`` in selection order — the operands are gathered
        as arrays, the reduction is the one the demand has always had
        (numpy's pairwise sum rounds differently, and demands decide
        rates, which decide fingerprinted bytes).
        """
        members: List[int] = []
        demands: List[float] = []
        paths: List[Tuple[Tuple[int, ...], ...]] = []
        dt = view.cycle_seconds
        sizes, buffered, bounds = grouping.sizes, grouping.buffered, grouping.bounds
        operands = (sizes if buffered is None else sizes - buffered).tolist()
        cache.validate_paths(view.topology.epoch, view.failed_links)
        path_ids = cache.path_ids
        for g, key in enumerate(grouping.keys):
            remaining = sum(operands[bounds[g] : bounds[g + 1]])
            if remaining <= 0:
                continue
            dst_server = grouping.dst_servers[g]
            # Candidate sources are pre-filtered for routability, so every
            # source has a failure-aware path here.
            candidates = []
            for src in key[2]:
                pair = (src, dst_server)
                path = path_ids.get(pair)
                if path is None:
                    path = cache.intern_path(
                        pair, view.flow_resources(src, dst_server)
                    )
                candidates.append(path)
            if not all(candidates):
                continue  # a link failed between grouping and routing
            members.append(g)
            demands.append(remaining / dt)
            paths.append(tuple(candidates))
        return members, demands, paths

    def _solve_incidence(
        self,
        view: ClusterView,
        grouping: _Grouping,
        members: List[int],
        demands: List[float],
        paths: List[Tuple[Tuple[int, ...], ...]],
        res_keys: Sequence,
    ) -> Tuple[Rates, TouchOrder, SolverStats]:
        """The FPTAS and exact-LP backends, over one compiled incidence.

        Both want named :class:`~repro.lp.mcf.Commodity` objects with
        resource-key paths; they are built here, for these backends
        only. Lenient mode: a resource missing from the capacity map
        counts as zero capacity, which makes the paths crossing it
        unusable.
        """
        commodities = [
            Commodity(
                name=grouping.keys[g],
                paths=tuple(
                    tuple([res_keys[i] for i in path]) for path in candidates
                ),
                demand=demand,
            )
            for g, demand, candidates in zip(members, demands, paths)
        ]
        incidence = PathIncidence.build(
            commodities, view.bulk_capacities, strict=False
        )
        if self.backend == "lp":
            result = solve_lp_incidence(incidence)
            solver = _NO_SOLVER_STATS
        else:
            # FPTAS with cross-cycle warm start: offer last cycle's solver
            # state while (topology epoch, failure set) is unchanged. The
            # solver re-verifies capacities/ε itself and certifies the
            # warm solve against its dual bound, so this can only help,
            # never hurt.
            warm = self._warm.validate(view.topology.epoch, view.failed_links)
            result = max_multicommodity_flow(
                commodities,
                view.bulk_capacities,
                epsilon=self.epsilon,
                warm=warm,
                incidence=incidence,
            )
            if result.warm_state is not None:
                self._warm.store(
                    view.topology.epoch, view.failed_links, result.warm_state
                )
            solver = (result.iterations, result.phases, result.warm_start)
        commodity_of = {c.name: ci for ci, c in enumerate(commodities)}
        rates: Rates = [[0.0] * len(candidates) for candidates in paths]
        order: TouchOrder = []
        for (name, pi), rate in result.path_flows.items():
            ci = commodity_of[name]
            rates[ci][pi] = rate
            order.append((ci, pi))
        return rates, order, solver

    # -- step 4: rates -> directives ----------------------------------------------

    @staticmethod
    def _to_directives(
        grouping: _Grouping, members: List[int], rates: Rates
    ) -> List[TransferDirective]:
        """Split each merged group's blocks across its allocated sources.

        The send order of every group with a flowing source is one
        gather of the index column:

        * stagger block order per destination (Fig. 1's circled send
          order): different destinations start at different offsets, so
          they accumulate *disjoint* prefixes and can then serve each
          other over bottleneck-disjoint paths. Without this, every
          destination receives the same blocks in the same order and the
          overlay has nothing to exchange. Rotated by ``shift`` (crc32
          of the destination modulo its size), a group is the two row
          ranges ``[lo + shift, hi)`` and ``[lo, lo + shift)``: the
          gather is one ``arange`` plus each range's offset;
        * half-received blocks go first, so their buffered bytes are not
          stranded by the rotation — one stable sort on (group, not
          half-received);
        * blocks are dealt to sources in proportion to each source's
          share of the group's total rate, preserving that order. A
          group with one flowing source — most of them, on bulk
          transfers — hands it its whole segment; only the others run
          the (inherently sequential) deal in Python.
        """
        bounds = grouping.bounds
        dst_servers = grouping.dst_servers
        keys = grouping.keys
        stagger: Dict[str, int] = {}
        # Per group with a flowing source: (group, output segment, flowing
        # sources, their rates). Per rotated range: its length and the
        # offset from output position to row.
        groups: List[tuple] = []
        lengths: List[int] = []
        offsets: List[int] = []
        at = 0
        for g, row in zip(members, rates):
            flowing = []
            flows = []
            for src, rate in zip(keys[g][2], row):
                if rate > 1e-9:
                    flowing.append(src)
                    flows.append(rate)
            if not flowing:
                continue
            lo = bounds[g]
            size = bounds[g + 1] - lo
            dst_server = dst_servers[g]
            crc = stagger.get(dst_server)
            if crc is None:
                crc = stagger[dst_server] = zlib.crc32(dst_server.encode())
            shift = crc % size
            lengths += (size - shift, shift)
            offsets += (lo + shift - at, lo + shift - at - size)
            groups.append((g, at, at + size, flowing, flows))
            at += size
        if not groups:
            return []
        take = np.arange(at) + np.array(offsets).repeat(lengths)
        if grouping.buffered is not None:
            # Sorted on (2 x group ordinal, not half-received).
            segment = (np.arange(len(lengths)) & -2).repeat(lengths)
            take = take[
                (segment + (grouping.buffered[take] <= 0)).argsort(kind="stable")
            ]
        column = grouping.indices[take]
        listed = None  # ``column`` as ints, once some group is dealt

        directives: List[TransferDirective] = []
        build = TransferDirective.from_segment
        for g, lo, hi, flowing, flows in groups:
            job_id = keys[g][0]
            dst_server = dst_servers[g]
            if len(flowing) == 1:
                # The spare-rate formula below collapses to the rate
                # itself: spare is exactly 0.0.
                directives.append(
                    build(job_id, column, lo, hi, flowing[0], dst_server, flows[0])
                )
                continue
            # Deal blocks to sources by descending byte deficit (ties to
            # the earlier source). Sizes are read off the blocks, not the
            # float column: builtin ``sum`` folds ints and floats
            # differently. The dealt order is written over the segment.
            if listed is None:
                listed = column.tolist()
            order = listed[lo:hi]
            blocks = grouping.jobs[g].blocks
            sizes = [blocks[i].size for i in order]
            total_rate = sum(flows)
            total_bytes = sum(sizes)
            budgets = [rate / total_rate * total_bytes for rate in flows]
            parts: List[List[int]] = [[] for _ in flows]
            for i, size in zip(order, sizes):
                to = budgets.index(max(budgets))
                parts[to].append(i)
                budgets[to] -= size
            column[lo:hi] = [i for part in parts for i in part]
            # A group with fewer blocks than flowing paths leaves some
            # sources empty; hand their rate to the sources that did get
            # blocks, or small block remainders drain geometrically and
            # never finish. The simulator re-clips to capacity, so the
            # reshuffled rate cannot oversubscribe any link.
            used_rate = sum([rate for rate, part in zip(flows, parts) if part])
            spare = total_rate - used_rate
            for src, rate, part in zip(flowing, flows, parts):
                if part:
                    share = rate + (
                        spare * rate / used_rate if used_rate > 0 else 0.0
                    )
                    directives.append(build(
                        job_id, column, lo, lo + len(part), src, dst_server, share
                    ))
                    lo += len(part)
        return directives
