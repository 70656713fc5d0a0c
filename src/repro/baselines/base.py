"""The strategy interface every overlay scheme implements.

A strategy looks at the per-cycle :class:`~repro.net.view.ClusterView`
and returns its transfer directives: a
:class:`~repro.net.directive.DirectiveBatch` of columns (every strategy
here), or a list of :class:`~repro.net.directive.TransferDirective`
objects, which the simulator packs into one. Three class
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
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.net.candidates import CandidateTable
from repro.net.directive import DirectiveBatch, TransferDirective
from repro.net.view import ClusterView
from repro.overlay.job import MulticastJob
from repro.overlay.store import set_bits

Rows = Tuple[np.ndarray, ...]

#: (server or DC, block) pairs one chunk of a job-wide pass tests at once.
CHUNK = 8192


def run_bounds(keys: np.ndarray) -> np.ndarray:
    """``[0, …, len(keys)]``: where each run of equal, adjacent keys starts."""
    return np.concatenate(
        ([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1, [len(keys)])
    )


def head(keys: np.ndarray, window: int) -> np.ndarray:
    """Which rows are among the first ``window`` of their run of equal keys.

    Each run adds one at its start and takes it back ``window`` rows on
    (or at its end), so the mask is a running sum of one byte per row.
    """
    bounds = run_bounds(keys)
    step = np.zeros(len(keys) + 1, dtype=np.int8)
    step[bounds[:-1]] = 1
    step[np.minimum(bounds[:-1] + window, bounds[1:])] -= 1
    return np.cumsum(step[:-1], dtype=np.int8).view(bool)


def first_true(mask: np.ndarray, window: int) -> Rows:
    """``(row, col)`` of the first ``window`` true cells of each row of
    ``mask``, row by row."""
    row, col = np.nonzero(mask)
    keep = head(row, window)
    return row[keep], col[keep]


def _first_seen(keys: np.ndarray, size: int) -> np.ndarray:
    """Stable row order putting equal keys together, in first-seen order.

    ``keys`` are ints in ``[0, size)``. Each key's first row comes from
    one scatter, and the rows are sorted by it as the narrowest unsigned
    ints that hold a row number, which numpy sorts stably in linear time.
    """
    first = np.full(size, len(keys))
    np.minimum.at(first, keys, np.arange(len(keys)))
    return np.argsort(
        first[keys].astype(np.min_scalar_type(len(keys))), kind="stable"
    )


def _grouped(keys: np.ndarray) -> np.ndarray:
    """:func:`_first_seen` for keys of any range: ``np.unique`` names
    each key's first row."""
    _unique, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return np.argsort(
        first[inverse].astype(np.min_scalar_type(len(keys))), kind="stable"
    )


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
        # The destination DCs' rows: a job's groups list them first.
        self._assigned = table.assigned[job.job_id][: len(job.dst_dcs)]
        self._gids = table.groups_by_job[job.job_id][0].gids
        # Rows (servers or DCs) per chunk of a pass over all blocks.
        self._step = max(1, CHUNK // len(self._gids))
        self._failed = failed = [
            self.sid_of[s] for s in view.failed_agents if s in self.sid_of
        ]
        self.up = np.ones(len(self.names), dtype=bool)
        self.up[failed] = False
        # Healthy copies per block: the cluster-wide count minus what
        # failed agents hold, the way the scheduler kernel derives it.
        lost = matrix.held_among(self._gids, failed) if failed else 0
        self._sourced = matrix.dup[self._gids] - lost > 0

    def has(self, sids, idx=slice(None)) -> np.ndarray:
        """Does server ``sids`` hold block ``idx``? Broadcasts like ``a[i, j]``."""
        return self._matrix.test_many(sids, self._gids[idx])

    def holds(self, sids: np.ndarray) -> np.ndarray:
        """:meth:`has` over every block, as a rows × blocks matrix.

        ``sids`` is a column of servers (rows × 1) or a server per block
        (rows × blocks). Rows are tested a chunk at a time: as many as
        make at most :data:`CHUNK` pairs, or one when one is more.
        """
        held = np.empty((len(sids), len(self._gids)), dtype=bool)
        step = self._step
        for lo in range(0, len(sids), step):
            held[lo : lo + step] = self.has(sids[lo : lo + step])
        return held

    def missing(self) -> Rows:
        """Every destination server's missing blocks: ``(seg, dst, idx)``.

        A row is a block its assigned server lacks, while that server is
        up and some healthy server holds the block; ``seg`` is the
        server's DC as its position in ``job.dst_dcs``. Rows run DC by DC,
        in that order; within a DC they are grouped by server, servers in
        order of first appearance, blocks ascending.

        Possession is tested, and rows grouped, one chunk of whole DCs at
        a time (a DC's servers are its own, so grouping a chunk by server
        keeps that order). Beside the answer and a byte per (DC, block)
        pair, a call's temporaries are :data:`CHUNK` pairs' worth, or one
        DC's when that is more.
        """
        assigned = self._assigned
        live = self._sourced & self.up[assigned] & ~self.holds(assigned)
        seg, idx = np.nonzero(live)
        dst = assigned[seg, idx]
        step = self._step
        bounds = np.searchsorted(seg, range(0, len(assigned) + step, step)).tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            order = _first_seen(dst[lo:hi], len(self.names)) + lo
            seg[lo:hi], dst[lo:hi], idx[lo:hi] = seg[order], dst[order], idx[order]
        return seg, dst, idx

    def holders(self) -> np.ndarray:
        """Healthy servers holding at least one block of the job, ascending."""
        (sids,) = self.holders_by_run(slice(None), [0, len(self._gids)], [0])
        return sids

    def holders_by_run(
        self, idx: np.ndarray, bounds: Sequence[int], runs: Iterable[int]
    ) -> Iterator[np.ndarray]:
        """:meth:`holders` of ``idx[bounds[k]:bounds[k + 1]]`` for each
        ``k`` of ``runs``, in that order. The holder rows of every run are
        OR-reduced at once; a run's are unpacked when it is reached."""
        words = self._matrix.any_holder_words(self._gids[idx], bounds)
        for k in runs:
            sids = set_bits(words[k])
            yield sids[self.up[sids]]

    def first_holder(self, sids: Sequence, idx=slice(None)) -> np.ndarray:
        """Per block: the first of ``sids`` that is up and holds it, or -1.

        An entry of ``sids`` is a server id, or a column of them aligned
        with ``idx`` in which -1 stands for no server.
        """
        src = np.full(self._gids[idx].shape, -1)
        for sid in reversed(sids):
            src = np.where((sid >= 0) & self.up[sid] & self.has(sid, idx), sid, src)
        return src

    @cached_property
    def origin(self) -> np.ndarray:
        """Per block: its healthy source-DC holder of lowest id, or -1.

        Each holder word is masked to the healthy source-DC servers, and
        the words are read from the highest to the lowest, so the lowest
        set bit of the lowest non-zero word is what is left: its
        position is the popcount of the bits below it.
        """
        matrix = self._matrix
        mask = matrix.dc_mask[matrix.dc_ids[self.job.src_dc]]
        mask = mask & ~matrix.mask_of(self._failed)
        src = np.full(len(self._gids), -1)
        for word in np.flatnonzero(mask)[::-1].tolist():
            held = matrix.holder_words[self._gids, word] & mask[word]
            low = np.bitwise_count((held & -held) - np.uint64(1))
            src = np.where(held != 0, low + np.int64(64 * word), src)
        return src

    def directives(self, rows: Sequence[Rows]) -> DirectiveBatch:
        """One directive per (destination, source) pair of ``rows``.

        ``rows`` are ``(dst, src, idx)`` column triples, taken in the order
        given; a row whose ``src`` is negative has no sender and is
        dropped. Pairs come out in order of first appearance, each with
        its blocks in row order (callers list them ascending), as one
        uncapped batch over the matrix's server ids. Rows that arrive
        grouped (each pair one run, as Bullet's and Gingko's deals emit
        them) are already in that order: only the runs' keys are
        checked for a repeat, to tell.
        """
        dst, src, idx = (np.concatenate(column) for column in zip(*rows))
        sent = np.flatnonzero(src >= 0)
        pair = (dst * len(self.names) + src)[sent]
        if not pair.size:
            return DirectiveBatch(idx[:0], [0], [], [], [], [], self.names)
        bounds = run_bounds(pair)
        keys = pair[bounds[:-1]].tolist()
        if len(set(keys)) == len(keys):
            column = idx[sent]
        else:
            order = _grouped(pair)
            column, pair = idx[sent[order]], pair[order]
            bounds = run_bounds(pair)
            keys = pair[bounds[:-1]].tolist()
        width, count = len(self.names), len(keys)
        return DirectiveBatch(
            column, bounds.tolist(), [self.job.job_id] * count,
            [key % width for key in keys], [key // width for key in keys],
            [None] * count, self.names,
        )


class OverlayStrategy(ABC):
    """Base class for all overlay multicast strategies."""

    uses_controller_rates: bool = False
    respects_safety_threshold: bool = False
    decisions_reusable: bool = False

    #: Candidate arrays this strategy built itself, for views that carry
    #: none (hand-built views, the fallback under shard-local state).
    _table: Optional[CandidateTable] = None

    @abstractmethod
    def decide(self, view: ClusterView) -> Sequence[TransferDirective]:
        """Return this cycle's transfer directives: a
        :class:`~repro.net.directive.DirectiveBatch`, or a list of
        objects."""

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
