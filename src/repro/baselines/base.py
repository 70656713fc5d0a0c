"""The strategy interface every overlay scheme implements.

A strategy looks at the per-cycle :class:`~repro.net.simulator.ClusterView`
and returns :class:`~repro.net.simulator.TransferDirective`s. Three class
attributes describe how the simulator should treat its flows:

* ``uses_controller_rates`` — the strategy assigns explicit per-flow rates
  (BDS); otherwise flows contend max-min fairly like ordinary TCP.
* ``respects_safety_threshold`` — the strategy keeps bulk traffic under the
  §5.2 safety threshold; decentralized baselines do not, which is exactly
  what produces the Fig. 6 interference incidents.
* ``decisions_reusable`` — the engine may skip cycles in which no job is
  active: on a view without jobs ``decide`` returns nothing, draws no
  randomness and changes nothing a later ``decide`` reads, whatever the
  cycle number. Opt-in per strategy; one that must see every cycle
  (including through an ``on_cycle_complete`` hook) leaves this False.

Baselines read possession only through :class:`JobPossession`, the lens
:meth:`OverlayStrategy.lens` cuts out of the global arrays for one job;
a baseline's "local view" is whichever slices of it the baseline asks for.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.candidates import CandidateTable
from repro.net.simulator import ClusterView, TransferDirective
from repro.overlay.job import MulticastJob

Rows = Tuple[np.ndarray, ...]


def run_bounds(keys: np.ndarray) -> np.ndarray:
    """``[0, …, len(keys)]``: where each run of equal, adjacent keys starts."""
    return np.concatenate(
        ([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1, [len(keys)])
    )


def head(dst: np.ndarray, idx: np.ndarray, window: int) -> Rows:
    """The first ``window`` rows of every run of equal ``dst``."""
    bounds = run_bounds(dst)
    first = np.arange(len(dst)) - np.repeat(bounds[:-1], np.diff(bounds)) < window
    return dst[first], idx[first]


def _grouped(keys: np.ndarray) -> np.ndarray:
    """Stable row order putting equal keys together, in first-seen order."""
    _keys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return np.argsort(first[inverse], kind="stable")


def draw(rng: np.random.Generator, pool: np.ndarray, size: int) -> np.ndarray:
    """Up to ``size`` of ``pool`` without replacement, in drawn order."""
    if not len(pool):
        return pool  # nothing to draw from: the stream is left alone
    return pool[rng.choice(len(pool), size=min(size, len(pool)), replace=False)]


class JobPossession:
    """Who holds which block of one job, as one cycle's view sees it.

    Servers are integer ids (``names[sid]``, ``sid_of[name]``; ascending id
    is ascending name, ``up[sid]`` is false for failed agents) and blocks
    job-relative indices. Nothing is servers × blocks: every answer is a
    gather over the packed matrix for just the rows and columns asked about.
    """

    def __init__(
        self, view: ClusterView, job: MulticastJob, table: CandidateTable
    ) -> None:
        self.job = job
        self._matrix = matrix = view.store.matrix
        self.names = matrix.server_names
        self.sid_of = matrix.server_ids
        groups = table.groups_by_job[job.job_id]
        self._groups = [g for g in groups if not g.is_relay]
        self._gids = groups[0].gids
        failed = [self.sid_of[s] for s in view.failed_agents if s in self.sid_of]
        self.up = np.ones(len(self.names), dtype=bool)
        self.up[failed] = False
        # Healthy copies per block: the cluster-wide count minus what
        # failed agents hold, the way the scheduler kernel derives it.
        lost = sum(self.has(sid).astype(np.int64) for sid in failed)
        self._sourced = matrix.dup[self._gids] - lost > 0

    def has(self, sids, idx=slice(None)) -> np.ndarray:
        """Does server ``sids`` hold block ``idx``? Broadcasts like ``a[i, j]``."""
        return self._matrix.test_many(sids, self._gids[idx])

    def missing(self) -> Iterator[Tuple[str, np.ndarray, np.ndarray]]:
        """Per destination DC with work left: ``(dc, dst, idx)`` rows.

        A row is a block its assigned server lacks, while that server is
        up and some healthy server holds the block. Rows are grouped by
        server, servers in order of first appearance, blocks ascending.
        """
        for group in self._groups:
            assigned = group.dst_sids
            idx = np.flatnonzero(
                self._sourced & self.up[assigned] & ~self.has(assigned)
            )
            if idx.size:
                idx = idx[_grouped(assigned[idx])]
                yield group.dc, assigned[idx], idx

    def missing_by_server(self) -> Iterator[Tuple[int, np.ndarray]]:
        """:meth:`missing`, one ``(server, its missing blocks)`` at a time."""
        for _dc, dst, idx in self.missing():
            bounds = run_bounds(dst).tolist()
            servers = dst[bounds[:-1]].tolist()
            for server, lo, hi in zip(servers, bounds, bounds[1:]):
                yield server, idx[lo:hi]

    def holders(self, idx=slice(None)) -> np.ndarray:
        """Healthy servers holding at least one of the blocks, ascending."""
        sids = self._matrix.any_holder_ids(self._gids[idx])
        return sids[self.up[sids]]

    def holder_lists(
        self, sids: np.ndarray, idx: np.ndarray
    ) -> Iterator[Tuple[int, List[int]]]:
        """``(block, positions in sids of its holders)``, ascending block,
        for every block of ``idx`` that some server of ``sids`` holds."""
        col, who = np.nonzero(self.has(sids, idx[:, None]))
        if col.size:
            bounds = run_bounds(col).tolist()
            blocks = idx[col[bounds[:-1]]].tolist()
            who = who.tolist()
            for block, lo, hi in zip(blocks, bounds, bounds[1:]):
                yield block, who[lo:hi]

    def first_holder(self, sids: Sequence[int], idx=slice(None)) -> np.ndarray:
        """Per block: the first of ``sids`` that is up and holds it, or -1."""
        src = np.full(self._gids[idx].shape, -1)
        for sid in reversed(sids):
            if self.up[sid]:
                src[self.has(sid, idx)] = sid
        return src

    @cached_property
    def origin(self) -> np.ndarray:
        """Per block: its healthy source-DC holder of lowest id, or -1."""
        matrix = self._matrix
        in_src_dc = matrix.server_dc_ids == matrix.dc_ids[self.job.src_dc]
        return self.first_holder(np.flatnonzero(in_src_dc).tolist())

    def directive(self, dst: int, src: int, blocks) -> TransferDirective:
        """Send ``blocks`` (job-relative indices) from ``src`` to ``dst``."""
        column = np.asarray(blocks, dtype=np.int64)
        return TransferDirective.from_indices(
            self.job.job_id, column, self.names[src], self.names[dst]
        )

    def directives(self, rows: Sequence[Rows]) -> List[TransferDirective]:
        """One directive per (destination, source) pair of ``rows``.

        ``rows`` are ``(dst, src, idx)`` column triples (a scalar stands
        for a constant column), taken in the order given; a row whose
        ``src`` is negative has no sender and is dropped. Pairs come out
        in order of first appearance, each with its blocks in row order
        (callers list them ascending).
        """
        if not rows:
            return []
        rows = [np.broadcast_arrays(*triple) for triple in rows]
        dst, src, idx = (np.concatenate(column) for column in zip(*rows))
        sent = np.flatnonzero(src >= 0)
        pair = (dst * len(self.names) + src)[sent]
        if not pair.size:
            return []
        order = _grouped(pair)
        column, pair = idx[sent[order]], pair[order]
        bounds = run_bounds(pair).tolist()
        ends = np.divmod(pair[bounds[:-1]], len(self.names))
        names, job_id = self.names, self.job.job_id
        return [
            TransferDirective.from_segment(job_id, column, lo, hi, names[s], names[d])
            for lo, hi, d, s in zip(bounds, bounds[1:], *map(np.ndarray.tolist, ends))
        ]


class OverlayStrategy(ABC):
    """Base class for all overlay multicast strategies."""

    uses_controller_rates: bool = False
    respects_safety_threshold: bool = False
    decisions_reusable: bool = False

    #: Candidate arrays this strategy built itself, for views that carry
    #: none (hand-built views, the fallback under shard-local state).
    _table: Optional[CandidateTable] = None

    @abstractmethod
    def decide(self, view: ClusterView) -> List[TransferDirective]:
        """Return this cycle's transfer directives."""

    def lens(self, view: ClusterView, job: MulticastJob) -> JobPossession:
        """``job``'s possession in ``view``, over the view's candidate
        arrays where it carries them."""
        table = view._candidates
        if table is None:
            matrix = view.store.matrix
            table = self._table
            if table is None or table.matrix is not matrix:
                table = self._table = CandidateTable([], matrix)
        table.ensure_job(job)  # a no-op on a table that knows the job
        return JobPossession(view, job, table)
