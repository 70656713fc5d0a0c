"""Fleischer-phase FPTAS for maximum multi-commodity flow.

The paper (§4.4) cites Fleischer's improved fully-polynomial-time
approximation schemes [17] to obtain an ε-optimal solution of the routing
LP in near real-time. This module implements that phase-based variant of
the Garg–Könemann multiplicative-weights scheme, specialised to *explicit
path sets* (BDS enumerates candidate overlay paths up-front, so the
shortest-path oracle reduces to an argmin over each commodity's path
list):

* **Phases, not global argmins.** Garg–Könemann's textbook loop finds the
  globally lightest path every iteration — an O(paths) Python scan. Fleischer
  showed it suffices to route along any path within ``(1+ε)`` of the global
  minimum, so the solve proceeds in phases with length threshold
  ``δ(1+ε)^k``: within a phase, each commodity is drained until its own
  lightest path crosses the threshold.
* **A lazy heap of per-commodity best lengths.** Resource lengths only
  grow, so a commodity's cached best-path length is a *lower bound* —
  commodities whose cached bound already exceeds the phase threshold are
  skipped without recomputation, and the heap re-validates entries only
  when popped. The oracle therefore re-evaluates only commodities whose
  paths were actually touched (their bound went stale below threshold).
* **A scalar push loop, shaped like its callers.** Every caller sends
  router-shaped instances: :class:`~repro.core.routing.BDSRouter` at most
  ``max_sources_per_group`` = 3 paths per commodity, each uplink / WAN /
  downlink plus the virtual demand resource; the routing benchmark 2–3
  paths × 3; the test generators ≤ 5 paths × ≤ 4. On segments that small
  one numpy call costs more than the whole reduction, so the loop keeps
  lengths in a Python list, finds a commodity's lightest path with a
  ≤ 3-way compare of ≤ 4-term sums, and multiplies ≤ 4 entries per push
  by growth factors computed once per instance as one array expression.
  Measured on the perf ledger's ``routing_backends`` workload (325 097
  pushes, ``lp.fptas_s`` 3.34 s → 0.70 s): 10.3 µs per push with an
  ``np.add.reduceat`` + ``np.argmin`` oracle and fancy-index updates,
  2.1 µs with this loop — same pushes, same floats. Whole-instance work
  (set-up, feasibility scaling, re-clip, dual certificate) stays on the
  :class:`~repro.lp.incidence.PathIncidence` arrays. The replaced loop is
  kept as a test oracle (``tests/oracles.py``) and the two are
  property-tested bit-equal, because push counts are chaotic in the
  instance: one differently rounded length is a different solve.
* **Cross-cycle warm starts.** The solver can resume from a previous
  solve's final resource lengths and raw path flows
  (:class:`FPTASWarmState`) when the resource universe, capacities, and ε
  are unchanged — the common steady-state cycle where only demands moved.
  The carried lengths/flows pair is kept internally consistent (the prior
  δ and capacity normalization are pinned), so feasibility scaling still
  holds; optimality is enforced a posteriori: every warm solve computes
  the Garg–Könemann dual bound ``D/α`` from its final lengths and falls
  back to a cold solve unless the flow provably clears the ``(1−ε)³``
  guarantee. Identical inputs short-circuit to the cached solution
  verbatim, so warm and cold solves of the same instance are bit-identical.

Demand caps are handled by the standard reduction: each commodity gets a
private virtual resource of capacity ``demand`` appended to all its paths.

Guarantee: the returned flow is feasible and at least ``(1 - ε)³`` of the
optimum (we additionally re-clip numerically so feasibility is exact).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.lp.incidence import PathIncidence
from repro.lp.mcf import Commodity
from repro.net.topology import ResourceKey
from repro.utils.validation import check_positive


@dataclass
class FPTASWarmState:
    """Carry-over solver state from one solve to the next.

    Valid to resume from only while ε, the resource universe (same keys,
    same interning order), and every capacity are unchanged — demands may
    move freely. ``delta`` and ``cap_scale`` are pinned from the original
    cold solve so the carried lengths/flows pair stays consistent with
    the multiplicative-weights invariant ``ℓ(r) = δ/c(r)·Π(1+ε·f/c(r))``.
    """

    epsilon: float
    delta: float
    cap_scale: float
    res_sig: Tuple[ResourceKey, ...]
    caps_scaled: np.ndarray
    lengths: np.ndarray  # final lengths of the real resources
    # commodity name -> {original path index: raw (unscaled) flow}
    flows: Dict[Hashable, Dict[int, float]]
    paths_by_name: Dict[Hashable, Tuple[Tuple[ResourceKey, ...], ...]]
    # per-name demand in *scaled* units (inf = uncapped) — the identical-
    # input fast path compares these to detect a verbatim repeat.
    demands_by_name: Dict[Hashable, float]
    # Cached outputs for the identical-input fast path.
    result_path_flows: Dict[Tuple[Hashable, int], float] = field(
        default_factory=dict
    )
    result_objective: float = 0.0
    result_dual_bound: float = math.inf


@dataclass
class FPTASResult:
    """Outcome of the approximation: flows, objective, and solve telemetry.

    ``warm_start`` is one of ``"cold"`` (no usable carry-over state),
    ``"warm"`` (resumed from a previous solve and certified), ``"reuse"``
    (identical input — cached solution returned verbatim), or
    ``"cold-fallback"`` (a warm attempt failed its optimality certificate
    and the instance was re-solved from scratch). ``dual_bound`` is the
    Garg–Könemann dual value ``D/α`` — a certified upper bound on the
    optimum, letting callers check the ε-guarantee without an exact LP.
    """

    objective: float
    path_flows: Dict[Tuple[Hashable, int], float]
    iterations: int
    epsilon: float
    phases: int = 0
    warm_start: str = "cold"
    dual_bound: float = math.inf
    warm_state: Optional[FPTASWarmState] = field(default=None, repr=False)


def _compute_cap_scale(
    commodities: Sequence[Commodity], capacities: Mapping[ResourceKey, float]
) -> float:
    """Unit normalization so the smallest positive capacity becomes 1.

    Garg–Könemann's initial length ``δ/c(e)`` must stay below 1 on every
    usable edge, and raw byte units mix 1e-6-byte demand remainders with
    1e9-byte/s links.
    """
    positive = [c for c in capacities.values() if c > 0]
    demands_positive = [
        c.demand for c in commodities if c.demand is not None and c.demand > 0
    ]
    scale = min(positive + demands_positive) if (positive or demands_positive) else 1.0
    return scale if scale > 0 else 1.0


class _Instance:
    """The extended (demand-reduced) instance in solver-internal units.

    Appends one virtual resource per demand-capped commodity to all of
    its usable paths via a single vectorized ``np.insert``.
    """

    def __init__(
        self, inc: PathIncidence, cap_scale: float
    ) -> None:
        self.inc = inc
        self.cap_scale = cap_scale
        self.num_real = inc.num_resources
        caps_s = inc.caps / cap_scale
        with np.errstate(divide="ignore", invalid="ignore"):
            dem_s = inc.demands / cap_scale  # inf stays inf
        capped = np.isfinite(inc.demands)
        self.capped_cis = np.flatnonzero(capped)
        virt_of_ci = np.full(inc.num_commodities, -1, dtype=np.intp)
        virt_of_ci[self.capped_cis] = self.num_real + np.arange(
            len(self.capped_cis), dtype=np.intp
        )
        path_capped = capped[inc.path_commodity]
        ins_pos = (inc.path_starts + inc.path_lens)[path_capped]
        ins_val = virt_of_ci[inc.path_commodity[path_capped]]
        self.flat = np.insert(inc.flat_res, ins_pos, ins_val)
        self.lens = inc.path_lens + path_capped
        self.starts = np.zeros(len(self.lens), dtype=np.intp)
        if len(self.lens):
            np.cumsum(self.lens[:-1], out=self.starts[1:])
        self.caps = np.concatenate([caps_s, dem_s[self.capped_cis]])
        self.min_cap = np.minimum(
            inc.path_min_cap / cap_scale,
            np.where(path_capped, dem_s[inc.path_commodity], np.inf),
        )
        # Resources actually on a usable path (the dual-bound support).
        self.used_res = np.unique(self.flat) if len(self.flat) else self.flat

    def initial_lengths(self, delta: float) -> np.ndarray:
        positive = self.caps > 0
        lengths = np.zeros(len(self.caps), dtype=np.float64)
        lengths[positive] = delta / self.caps[positive]
        return lengths

    def path_lengths(self, lengths: np.ndarray) -> np.ndarray:
        return np.add.reduceat(lengths[self.flat], self.starts)


def _run_fleischer(
    ext: _Instance,
    epsilon: float,
    delta: float,
    lengths: np.ndarray,
    raw: np.ndarray,
    max_iterations: Optional[int],
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """The phase loop: drains commodities below a rising length threshold.

    Mutates ``lengths``/``raw`` in place and returns them with the push
    and phase counts. Deterministic: the heap breaks length ties on the
    commodity index and each commodity drains its own first-lightest path.
    """
    m = len(ext.used_res)
    limit = (
        int(10 * m * math.log(m + 2) / (epsilon**2) + 1000)
        if max_iterations is None
        else max_iterations
    )
    one_plus = 1.0 + epsilon
    log_one_plus = math.log(one_plus)

    # Scalar working set, built with O(1) numpy calls: lengths and raw flows
    # as lists; per path its resources split (first, others) for the oracle
    # and paired with their growth factors for a push, which multiplies each
    # resource once per crossing, in path order.
    length = lengths.tolist()
    pushed = raw.tolist()
    bottleneck = ext.min_cap.tolist()
    flat = ext.flat.tolist()
    growth = (
        1.0 + np.repeat(epsilon * ext.min_cap, ext.lens) / ext.caps[ext.flat]
    ).tolist()
    spans = [(s, s + n) for s, n in zip(ext.starts.tolist(), ext.lens.tolist())]
    steps = [list(zip(flat[s:e], growth[s:e])) for s, e in spans]
    split = [(pid, flat[s], flat[s + 1 : e]) for pid, (s, e) in enumerate(spans)]
    by_commodity = [split[lo:hi] for lo, hi in ext.inc.commodity_path_range]

    def lightest(candidates):
        # A path's length folds as np.add.reduceat folds a segment of up to
        # 8 terms: the first term plus a left fold of the others (0.0 + x is
        # exact) — with explicit +, never builtin sum(), which is compensated
        # from Python 3.12. That keeps solves bit-equal to the reduceat
        # oracle in tests/oracles.py; longer paths (numpy goes pairwise, no
        # caller builds them) keep this one rule. Ties go to the lowest path
        # id, as argmin breaks them.
        best, best_pid = math.inf, -1
        for pid, first, others in candidates:
            acc = 0.0
            for r in others:
                acc += length[r]
            plen = length[first] + acc
            if plen < best:
                best, best_pid = plen, pid
        return best, best_pid

    # Seed the lazy heap with each commodity's exact best length.
    heap: List[Tuple[float, int]] = []
    for ci, candidates in enumerate(by_commodity):
        if candidates:
            best, _pid = lightest(candidates)
            if best < 1.0:
                heap.append((best, ci))
    heapq.heapify(heap)

    iterations = 0
    phases = 0
    threshold = delta * one_plus
    while heap and iterations < limit:
        top = heap[0][0]
        if threshold <= top:
            # Fast-forward across empty phases: jump straight to the first
            # threshold above the (lower-bound) lightest commodity.
            k = math.floor(math.log(top / delta) / log_one_plus) + 1
            threshold = delta * one_plus**k
            while threshold <= top:  # float-rounding guard
                threshold *= one_plus
        t_cur = min(threshold, 1.0)
        phases += 1
        while heap and heap[0][0] < t_cur and iterations < limit:
            _cached, ci = heapq.heappop(heap)
            candidates = by_commodity[ci]
            best, pid = lightest(candidates)
            while best < t_cur and iterations < limit:
                pushed[pid] += bottleneck[pid]
                for r, factor in steps[pid]:
                    length[r] *= factor
                iterations += 1
                best, pid = lightest(candidates)
            if best < 1.0:
                heapq.heappush(heap, (best, ci))
    lengths[:] = length
    raw[:] = pushed
    return lengths, raw, iterations, phases


def _finalize(
    ext: _Instance,
    epsilon: float,
    delta: float,
    lengths: np.ndarray,
    raw: np.ndarray,
) -> Tuple[Dict[Tuple[Hashable, int], float], np.ndarray, float]:
    """Scale to feasibility, re-clip numerically, compute the dual bound."""
    scale = math.log((1.0 + epsilon) / delta) / math.log(1.0 + epsilon)
    flows = raw / scale

    # Numerical re-clip: uniform shrink per oversubscribed resource.
    usage = np.bincount(
        ext.flat, weights=np.repeat(flows, ext.lens), minlength=len(ext.caps)
    )
    over = (usage > ext.caps) & (ext.caps > 0)
    if over.any():
        shrink = np.ones(len(ext.caps), dtype=np.float64)
        shrink[over] = ext.caps[over] / usage[over]
        flows = flows * np.minimum.reduceat(shrink[ext.flat], ext.starts)

    # Garg–Könemann dual certificate: lengths normalized by the lightest
    # path are a feasible dual, so D/α bounds the optimum from above.
    all_plens = ext.path_lengths(lengths)
    alpha = float(all_plens.min())
    dual = float(
        np.dot(lengths[ext.used_res], ext.caps[ext.used_res])
    )
    dual_bound = (dual / alpha) * ext.cap_scale if alpha > 0 else math.inf

    path_flows = ext.inc.flows_to_path_map(flows, scale=ext.cap_scale)
    return path_flows, flows, dual_bound


def _build_warm_state(
    ext: _Instance,
    epsilon: float,
    delta: float,
    lengths: np.ndarray,
    raw: np.ndarray,
    path_flows: Dict[Tuple[Hashable, int], float],
    objective: float,
    dual_bound: float,
) -> Optional[FPTASWarmState]:
    inc = ext.inc
    names = [c.name for c in inc.commodities]
    if len(set(names)) != len(names):
        return None  # ambiguous carry-over targets; skip warm state
    flows_by_name: Dict[Hashable, Dict[int, float]] = {}
    for pid in np.flatnonzero(raw > 0.0):
        ci = int(inc.path_commodity[pid])
        flows_by_name.setdefault(names[ci], {})[
            int(inc.path_orig_index[pid])
        ] = float(raw[pid])
    with np.errstate(divide="ignore", invalid="ignore"):
        dem_s = inc.demands / ext.cap_scale
    return FPTASWarmState(
        epsilon=epsilon,
        delta=delta,
        cap_scale=ext.cap_scale,
        res_sig=inc.resource_signature(),
        caps_scaled=(inc.caps / ext.cap_scale).copy(),
        lengths=lengths[: ext.num_real].copy(),
        flows=flows_by_name,
        paths_by_name={c.name: c.paths for c in inc.commodities},
        demands_by_name={
            c.name: float(dem_s[ci]) for ci, c in enumerate(inc.commodities)
        },
        result_path_flows=dict(path_flows),
        result_objective=objective,
        result_dual_bound=dual_bound,
    )


def _warm_compatible(
    warm: FPTASWarmState, inc: PathIncidence, epsilon: float
) -> bool:
    """Same ε, same resource universe, same capacities — demands free."""
    if warm.epsilon != epsilon:
        return False
    if warm.res_sig != inc.resource_signature():
        return False
    return bool(np.array_equal(warm.caps_scaled, inc.caps / warm.cap_scale))


def _is_identical_input(warm: FPTASWarmState, inc: PathIncidence) -> bool:
    """Verbatim repeat of the previous instance (demands included)?"""
    if len(warm.paths_by_name) != inc.num_commodities:
        return False
    with np.errstate(divide="ignore", invalid="ignore"):
        dem_s = inc.demands / warm.cap_scale
    for ci, commodity in enumerate(inc.commodities):
        if warm.paths_by_name.get(commodity.name) != commodity.paths:
            return False
        if warm.demands_by_name.get(commodity.name) != float(dem_s[ci]):
            return False
    return True


def _carried_raw(warm: FPTASWarmState, inc: PathIncidence) -> np.ndarray:
    """Map the previous solve's raw flows onto the current usable paths."""
    raw = np.zeros(inc.num_paths, dtype=np.float64)
    for ci, commodity in enumerate(inc.commodities):
        prev = warm.flows.get(commodity.name)
        if not prev:
            continue
        if warm.paths_by_name.get(commodity.name) != commodity.paths:
            continue  # candidate set changed; start this commodity fresh
        lo, hi = inc.commodity_path_range[ci]
        for pid in range(lo, hi):
            raw[pid] = prev.get(int(inc.path_orig_index[pid]), 0.0)
    return raw


def max_multicommodity_flow(
    commodities: Sequence[Commodity],
    capacities: Mapping[ResourceKey, float],
    epsilon: float = 0.1,
    max_iterations: Optional[int] = None,
    warm: Optional[FPTASWarmState] = None,
    incidence: Optional[PathIncidence] = None,
) -> FPTASResult:
    """ε-approximate maximum total multicommodity flow over explicit paths.

    ``warm`` resumes from a previous solve's :attr:`FPTASResult.warm_state`
    when compatible (see :class:`FPTASWarmState`); incompatible or
    uncertifiable warm state silently degrades to a cold solve, so the
    ``(1−ε)³`` guarantee holds unconditionally. ``incidence`` supplies a
    pre-built :class:`~repro.lp.incidence.PathIncidence` (the router
    shares one across backends); when omitted one is compiled here, with
    strict unknown-resource checking. ``max_iterations`` stops each solve
    attempt after that many pushes — the truncated flow is still feasible,
    the guarantee no longer holds; ``None`` (only ``None``) means the
    theoretical bound ``10·m·ln(m+2)/ε² + 1000``.
    """
    check_positive("epsilon", epsilon)
    if epsilon >= 1:
        raise ValueError("epsilon must be < 1")
    if not commodities:
        raise ValueError("need at least one commodity")
    inc = incidence
    if inc is None:
        inc = PathIncidence.build(commodities, capacities, strict=True)

    if inc.num_paths == 0:
        return FPTASResult(
            objective=0.0,
            path_flows={},
            iterations=0,
            epsilon=epsilon,
            dual_bound=0.0,
        )

    warm_ok = warm is not None and _warm_compatible(warm, inc, epsilon)
    if warm_ok and _is_identical_input(warm, inc):
        # Bit-identical fast path: same instance, same answer.
        return FPTASResult(
            objective=warm.result_objective,
            path_flows=dict(warm.result_path_flows),
            iterations=0,
            epsilon=epsilon,
            phases=0,
            warm_start="reuse",
            dual_bound=warm.result_dual_bound,
            warm_state=warm,
        )

    attempts: List[str] = []
    if warm_ok:
        attempts.append("warm")
    attempts.append("cold")

    for mode in attempts:
        if mode == "warm":
            cap_scale = warm.cap_scale
            delta = warm.delta
            ext = _Instance(inc, cap_scale)
            lengths = ext.initial_lengths(delta)
            lengths[: ext.num_real] = warm.lengths
            raw = _carried_raw(warm, inc)
        else:
            cap_scale = _compute_cap_scale(commodities, capacities)
            ext = _Instance(inc, cap_scale)
            m = len(ext.used_res)
            delta = (1 + epsilon) * ((1 + epsilon) * m) ** (-1.0 / epsilon)
            lengths = ext.initial_lengths(delta)
            raw = np.zeros(inc.num_paths, dtype=np.float64)

        lengths, raw, iterations, phases = _run_fleischer(
            ext, epsilon, delta, lengths, raw, max_iterations
        )
        path_flows, flows, dual_bound = _finalize(
            ext, epsilon, delta, lengths, raw
        )
        objective = sum(path_flows.values())

        if mode == "warm":
            # A-posteriori optimality certificate: accept the warm solve
            # only if its flow provably clears the (1−ε)³ guarantee
            # against its own dual bound; otherwise re-solve cold.
            guarantee = (1.0 - epsilon) ** 3 * dual_bound
            if not (objective >= guarantee * (1.0 - 1e-9)):
                continue
            label = "warm"
        else:
            label = "cold" if len(attempts) == 1 else "cold-fallback"

        state = _build_warm_state(
            ext, epsilon, delta, lengths, raw, path_flows, objective, dual_bound
        )
        return FPTASResult(
            objective=objective,
            path_flows=path_flows,
            iterations=iterations,
            epsilon=epsilon,
            phases=phases,
            warm_start=label,
            dual_bound=dual_bound,
            warm_state=state,
        )
    raise AssertionError("unreachable: cold mode always returns")
