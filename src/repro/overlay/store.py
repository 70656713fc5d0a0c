"""The possession index: who holds which blocks, cluster-wide.

This is the controller's "global view of data delivery status" (§3).
Besides membership queries it maintains the aggregates the scheduling and
evaluation logic needs:

* per-block duplicate counts (for rarest-first scheduling, §4.3);
* per-DC possession (for completion detection);
* delivery provenance (whether each delivered block came from the origin DC
  or from an overlay path — the Fig. 13c measurement), as the columns of
  a :class:`DeliveryLog`.

The state lives in a :class:`PossessionMatrix` of packed ``uint64``
bitset rows (blocks × servers, one row of holders per block) with
interned integer ids for servers, DCs, and blocks. Duplicate counts are
maintained incrementally alongside the bits, so rarity is a single array
gather and the vectorized scheduler can mask/sort whole candidate sets
without touching Python objects; :class:`PossessionIndex` is the name-keyed
facade over it. The dict-of-sets bookkeeping the matrix replaced is the
test oracle ``DictPossessionIndex`` (same facade).

Possession only grows: copies are seeded or delivered and never dropped
(disk loss enters a simulation as *agent* failure).
"""

from __future__ import annotations

import copy
from bisect import bisect_left, bisect_right
from collections import abc
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    AbstractSet,
    Sequence,
    Tuple,
)

import numpy as np

from repro.overlay.blocks import Block

BlockId = Tuple[str, int]


@dataclass(frozen=True)
class DeliveryRecord:
    """Provenance of one block delivery."""

    block_id: BlockId
    src_server: str
    dst_server: str
    time: float
    from_origin_dc: bool


#: The immutable empty returned for unknown blocks. It used to be a
#: module-level *mutable* set: one stray caller mutation would have
#: poisoned every future query for every index in the process. A frozen
#: one makes that class of bug structurally impossible.
_EMPTY_HOLDERS: FrozenSet[str] = frozenset()

_SHIFTS = np.arange(64, dtype=np.uint64)
#: ``_BITS[i]`` is the ``uint64`` word with only bit ``i`` set.
_BITS = np.uint64(1) << _SHIFTS
_SIGNED_BITS = _BITS.view(np.int64)  # the same words, as ``_holder_flat`` reads them


class PossessionMatrix:
    """Packed blocks × servers possession bitset with interned integer ids.

    The id interning contract:

    * **servers** are interned once at construction, in ascending name
      order — so ascending server id equals lexicographic server-name
      order, and unpacking a holder row yields holders already sorted
      the way the router's candidate-source logic sorts names;
    * **DCs** are interned once at construction, also in sorted-name
      order (DC-id comparisons reproduce DC-name comparisons);
    * **blocks** are interned per job, as one span: :meth:`intern_job`
      gives a job's ``n`` blocks the rows ``base .. base + n - 1`` after
      every span before it (``spans[job_id] == (base, n)``), so block
      ``i``'s row is ``base + i`` and no per-block table exists. A job's
      span is allocated once and keeps its rows for the lifetime of the
      matrix. The row space starts empty and grows to fit each new
      span, at least doubling; existing rows are copied, ids never move.

    ``holder_words`` is the one possession layout: row ``g`` packs the
    servers holding block ``g``, 64 per ``uint64`` word (server ``s`` in
    word ``s >> 6``, bit ``s & 63``). A (server, block) test is one
    gather, a block's whole holder set is one row — the router classes
    selections by it — and the holders among a set of servers are a
    masked popcount of the words those servers sit in (:meth:`held_among`).
    ``dup[g]`` (cluster-wide copy count — the §4.3 rarity measure) is
    maintained incrementally on every bit flip, so it always equals the
    popcount of row ``g``; the equivalence tests assert this invariant
    directly. ``dc_mask[d]`` packs DC ``d``'s servers as a ``holder_words``
    row, so "some server of DC ``d`` holds block ``g``" is
    ``(holder_words[g] & dc_mask[d]).any()``.
    """

    __slots__ = (
        "server_names",
        "server_ids",
        "dc_names",
        "dc_ids",
        "server_dc_ids",
        "dc_order",
        "dc_starts",
        "dc_words",
        "dc_bits",
        "dc_mask",
        "holder_words",
        "dup",
        "spans",
        "num_blocks",
        "_capacity",
        "_holder_flat",
    )

    def __init__(self, server_dc: Mapping[str, str]) -> None:
        names = sorted(server_dc)
        self.server_names: List[str] = names
        self.server_ids: Dict[str, int] = {n: i for i, n in enumerate(names)}
        self.dc_names: List[str] = sorted(set(server_dc.values()))
        self.dc_ids: Dict[str, int] = {d: i for i, d in enumerate(self.dc_names)}
        self.server_dc_ids = np.array(
            [self.dc_ids[server_dc[n]] for n in names], dtype=np.int64
        )
        # Server ids grouped by DC (ascending DC id, ascending server id
        # within) and each DC's first position in that order: the row
        # permutation under which "holders by DC" is a segmented reduce.
        self.dc_order = np.argsort(self.server_dc_ids, kind="stable")
        self.dc_starts = np.searchsorted(
            self.server_dc_ids[self.dc_order], np.arange(len(self.dc_names))
        )
        # Each one's word and bit (as a mask) in a ``holder_words`` row.
        self.dc_words = self.dc_order >> 6
        self.dc_bits = np.uint64(1) << (self.dc_order & 63).astype(np.uint64)
        num_servers = len(names)
        self.dc_mask = np.zeros(
            (len(self.dc_names), (num_servers + 63) >> 6), dtype=np.uint64
        )
        sids = np.arange(num_servers)
        np.bitwise_or.at(
            self.dc_mask, (self.server_dc_ids, sids >> 6), _BITS[sids & 63]
        )
        capacity = 0  # block rows: each span grows them (see intern_job)
        self._capacity = capacity
        self.holder_words = np.zeros(
            (capacity, (num_servers + 63) >> 6), dtype=np.uint64
        )
        self._holder_flat = self.holder_words.reshape(-1).view(np.int64)
        # The popcount of each holder row, kept beside it: counting it
        # per candidate row instead gathers servers/64 words a row (a
        # 2.5 MB transient for a 20 000-block job over 1 000 servers).
        self.dup = np.zeros(capacity, dtype=np.int64)
        self.spans: Dict[str, Tuple[int, int]] = {}
        self.num_blocks = 0  # rows spanned

    # -- interning ---------------------------------------------------------

    @property
    def num_servers(self) -> int:
        return len(self.server_names)

    def intern_job(self, job_id: str, num_blocks: int) -> int:
        """The first row of the job's span, allocating ``num_blocks``
        rows on first sight."""
        base, count = self.spans.setdefault(job_id, (self.num_blocks, num_blocks))
        if count != num_blocks:
            raise ValueError(f"job {job_id!r} already spans {count} blocks")
        if base == self.num_blocks:
            self.num_blocks += num_blocks
            if self.num_blocks > self._capacity:
                self._grow(self.num_blocks)
        return base

    def gid_of(self, block_id: BlockId) -> Optional[int]:
        """The block's row id, or ``None`` if its job has no span here."""
        job_id, index = block_id
        base, count = self.spans.get(job_id, (0, 0))
        return base + index if 0 <= index < count else None

    def block_ids(self, gids: np.ndarray) -> List[BlockId]:
        """The ``(job id, index)`` of each row of ``gids``."""
        bases = np.array([base for base, _count in self.spans.values()])
        slot = bases.searchsorted(gids, side="right") - 1
        jobs = list(self.spans)
        return list(zip([jobs[j] for j in slot.tolist()], (gids - bases[slot]).tolist()))

    def _grow(self, needed: int) -> None:
        capacity = max(self._capacity * 2, needed)
        holder_words = np.zeros(
            (capacity, self.holder_words.shape[1]), dtype=np.uint64
        )
        holder_words[: self._capacity] = self.holder_words
        self.holder_words = holder_words
        self._holder_flat = holder_words.reshape(-1).view(np.int64)
        dup = np.zeros(capacity, dtype=np.int64)
        dup[: self._capacity] = self.dup
        self.dup = dup
        self._capacity = capacity

    # -- updates -----------------------------------------------------------

    def set_many(self, sid: int, gids: Iterable[int]) -> None:
        """Give server ``sid`` a batch of blocks.

        The batched form keeps large initial seedings (10^6-block jobs)
        out of per-bit Python loops: the server's holder-word column is
        tested for the blocks it lacks with one gather, OR-updated, and
        the duplicate counter advances with one fancy ``+=``. Both
        updates are buffered, so a block listed twice still gains one
        copy.
        """
        if isinstance(gids, np.ndarray):
            arr = gids.astype(np.int64, copy=False)
        else:
            arr = np.asarray(list(gids), dtype=np.int64)
        word, mask = sid >> 6, _BITS[sid & 63]
        new_gids = arr[(self.holder_words[arr, word] & mask) == 0]
        self.holder_words[new_gids, word] |= mask
        self.dup[new_gids] += 1

    def record_deliveries(self, sids: np.ndarray, gids: np.ndarray) -> np.ndarray:
        """Set possession bits for parallel (server, block) arrays.

        One cycle's deliveries, which may span many destination servers.
        Returns a boolean mask of which pairs were *newly* set; pairs
        already held — or repeated within the batch, where only the
        first occurrence wins — come back ``False``, exactly as setting
        them one at a time would report. The bits land with one
        ``bitwise_or.at`` scatter (repeated words are safe) and the
        duplicate counter advances with an ``add.at`` scatter-add
        (repeated rows accumulate). A cycle's batch is often a dozen
        rows, so the work is counted in array calls, not elements.
        A server id past the last server raises ``IndexError`` before
        anything lands: its bit would otherwise be a row's padding.
        """
        if len(sids) and sids.max() >= self.num_servers:
            raise IndexError("destination server id out of range")
        words = gids * self.holder_words.shape[1] + (sids >> 6)
        bit = sids & 63
        masks = _SIGNED_BITS[bit]
        fresh = (self._holder_flat[words] & masks) == 0
        # First-occurrence dedupe inside the batch: two deliveries of the
        # same (server, block) pair in one cycle must register as one new
        # bit plus one duplicate, in that order. Repeats are rare; a set
        # of the pairs (word, bit) tells whether there are any.
        pair = ((words << 6) + bit).tolist()
        if len(set(pair)) < len(pair):
            seen = set()
            for k, key in enumerate(pair):
                if key in seen:
                    fresh[k] = False
                seen.add(key)
        if not fresh.all():
            gids, words, masks = gids[fresh], words[fresh], masks[fresh]
        if len(gids):
            np.bitwise_or.at(self._holder_flat, words, masks)
            np.add.at(self.dup, gids, 1)
        return fresh

    def overlay(self, sids: np.ndarray, gids: np.ndarray) -> "PossessionMatrix":
        """A twin of this matrix that also holds the ``(sids, gids)`` copies.

        The possession arrays are copied, so nothing written to the twin
        reaches this matrix; the interning tables are shared, so the
        twin's ids are this matrix's ids — and it must intern nothing.
        """
        twin = copy.copy(self)
        twin.holder_words = self.holder_words.copy()
        twin._holder_flat = twin.holder_words.reshape(-1).view(np.int64)
        twin.dup = self.dup.copy()
        twin.record_deliveries(sids, gids)
        return twin

    # -- batched queries (the vectorized control-plane surface) ------------

    def holder_ids(self, gid: int) -> np.ndarray:
        """Server ids holding the block, ascending (== sorted by name)."""
        return set_bits(self.holder_words[gid])

    def any_holder_words(self, gids: np.ndarray, bounds: Sequence[int]) -> np.ndarray:
        """Per run ``gids[bounds[k]:bounds[k + 1]]`` of blocks, the servers
        holding at least one of them, packed like a holder row: runs ×
        words. Runs are not empty (unless ``gids`` is).

        The holder rows are OR-reduced by one segmented reduce per chunk
        of as many rows as make 8 192 words, so a call's temporaries are
        64 kB (or one row) beside its answer.
        """
        words = self.holder_words.shape[1]
        bounds = list(bounds)
        any_of = np.zeros((len(bounds) - 1, words), dtype=np.uint64)
        step = max(1, 8192 // words)
        for lo in range(0, bounds[-1], step):
            hi = min(lo + step, bounds[-1])
            first = bisect_right(bounds, lo) - 1
            last = bisect_left(bounds, hi)
            # Where each run starts in the chunk: the first is under way.
            cuts = [0] + [start - lo for start in bounds[first + 1 : last]]
            any_of[first:last] |= np.bitwise_or.reduceat(
                self.holder_words[gids[lo:hi]], cuts, axis=0
            )
        return any_of

    def mask_of(self, sids) -> np.ndarray:
        """The holder row whose set bits are the servers ``sids``."""
        sids = np.asarray(sids, dtype=np.int64)
        mask = np.zeros(self.holder_words.shape[1], dtype=np.uint64)
        np.bitwise_or.at(mask, sids >> 6, _BITS[sids & 63])
        return mask

    def test_many(self, sids, gids):
        """Does server ``sids`` hold block ``gids``? Scalars or arrays,
        broadcast like ``a[i, j]``. A call of 256 or more pairs whose
        ``sids`` is an int64 array of the broadcast shape holds two 8-byte
        temporaries per pair, not three: its flat word index is reused
        for the bit masks and the AND is in place. Smaller calls take the
        direct expression, 2–3 µs faster at a dozen pairs (the 256 is
        where the two cross; docs/PERF_LOG.md)."""
        if (
            not isinstance(sids, np.ndarray) or sids.size < 256
            or sids.dtype != np.int64 or sids.shape != np.broadcast(sids, gids).shape
        ):
            return self.holder_words[gids, sids >> 6] & _BITS[sids & 63] != 0
        index = sids >> 6
        index += gids * self.holder_words.shape[1]
        words = self._holder_flat[index]
        words &= np.left_shift(1, np.bitwise_and(sids, 63, out=index), out=index)
        return words != 0

    def test_transfers(
        self, src: np.ndarray, dst: np.ndarray, gids: np.ndarray
    ) -> np.ndarray:
        """Per (source, destination, block) row: source holds ∧ destination lacks."""
        return self.test_many(src, gids) & ~self.test_many(dst, gids)

    def held_among(self, gids: np.ndarray, sids) -> np.ndarray:
        """Per block of ``gids``, how many of the distinct servers ``sids``
        hold it: one masked gather and popcount per holder word that
        contains a server of ``sids``."""
        mask = self.mask_of(sids)
        held = np.zeros(len(gids), dtype=np.int64)
        for word in np.flatnonzero(mask).tolist():
            held += np.bitwise_count(self.holder_words[gids, word] & mask[word])
        return held

    # -- telemetry ---------------------------------------------------------

    def state_bytes(self) -> int:
        """Bytes held by the possession arrays (``holder_words`` + ``dup``).

        The dominant, capacity-proportional memory of the matrix; the
        only other table, ``spans``, holds one entry per job.
        """
        return int(self.holder_words.nbytes + self.dup.nbytes)


def set_bits(words: np.ndarray) -> np.ndarray:
    """The positions of the set bits of a packed word row, ascending."""
    return np.flatnonzero((words[:, None] >> _SHIFTS) & np.uint64(1))


class DeliveryLog(abc.Sequence):
    """A store's delivery provenance: one row per delivery that placed a
    new copy, in landing order.

    The rows are five parallel columns in the matrix's id space — block
    id, source server, destination server, finish time, and whether
    the source sat in the job's origin DC — appended one batch per
    :meth:`PossessionIndex.record_deliveries` call and joined on first
    read (:meth:`columns`). The log is a sequence of
    :class:`DeliveryRecord` (``len``, index, slice, iteration, ``==``
    against a list) whose records are built only when read as such.
    """

    __slots__ = ("_matrix", "_parts", "_len")

    def __init__(self, matrix: PossessionMatrix) -> None:
        self._matrix = matrix
        self._parts: List[Tuple[np.ndarray, ...]] = []
        self._len = 0

    def append(
        self,
        gids: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        times: np.ndarray,
        from_origin: np.ndarray,
    ) -> None:
        """Append a batch of rows; the arrays are kept, not copied."""
        self._parts.append((gids, src, dst, times, from_origin))
        self._len += len(gids)

    def columns(self) -> Tuple[np.ndarray, ...]:
        """``(gids, src, dst, times, from_origin)`` over every row."""
        parts = self._parts
        if not parts:
            none = np.empty(0, dtype=np.int64)
            return none, none, none, np.empty(0), np.empty(0, dtype=bool)
        if len(parts) > 1:
            self._parts = parts = [tuple(np.concatenate(c) for c in zip(*parts))]
        return parts[0]

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[DeliveryRecord]:
        gids, *rest = self.columns()
        servers = self._matrix.server_names
        for block_id, src, dst, time, origin in zip(
            self._matrix.block_ids(gids), *(column.tolist() for column in rest)
        ):
            yield DeliveryRecord(block_id, servers[src], servers[dst], time, origin)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self[i] for i in range(*item.indices(self._len))]
        index = item + self._len if item < 0 else item
        if not 0 <= index < self._len:
            raise IndexError("delivery index out of range")
        gid, src, dst, time, origin = (c[index].item() for c in self.columns())
        servers = self._matrix.server_names
        (block_id,) = self._matrix.block_ids(np.array([gid]))
        return DeliveryRecord(block_id, servers[src], servers[dst], time, origin)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, DeliveryLog)):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"DeliveryLog({list(self)!r})"


class PossessionReader:
    """The name-keyed queries over a :attr:`matrix`, shared by the live
    :class:`PossessionIndex` and the read-only :class:`PossessionOverlay`."""

    matrix: PossessionMatrix
    #: server id -> DC name; fixed for the lifetime of the index.
    _server_dc: Dict[str, str]

    def dc_of(self, server_id: str) -> str:
        return self._server_dc[server_id]

    def has(self, server_id: str, block_id: BlockId) -> bool:
        matrix = self.matrix
        gid = matrix.gid_of(block_id)
        if gid is None:
            return False
        sid = matrix.server_ids.get(server_id)
        if sid is None:
            return False
        return bool(matrix.test_many(sid, gid))

    def holders(self, block_id: BlockId) -> AbstractSet[str]:
        """Servers currently holding the block, as a fresh ``frozenset``
        decoded from the block's holder row (a shared empty one for unknown
        blocks)."""
        matrix = self.matrix
        gid = matrix.gid_of(block_id)
        if gid is None:
            return _EMPTY_HOLDERS
        names = matrix.server_names
        return frozenset(names[i] for i in matrix.holder_ids(gid))

    def state_bytes(self) -> int:
        """Bytes of possession state held by this index: the exact array
        footprint (:meth:`PossessionMatrix.state_bytes`)."""
        return self.matrix.state_bytes()


class PossessionIndex(PossessionReader):
    """Tracks block possession per server with O(1) updates and lookups.

    The index is a thin facade over its :attr:`matrix`; the hot
    control-plane paths bypass the facade and operate on the matrix
    arrays directly (see :mod:`repro.core.scheduling`). A simulation
    holds exactly one: the single controller, every controller shard and
    every baseline read this index (or a speculated
    :class:`PossessionOverlay` of it), never a copy. Its
    :attr:`deliveries` log is columnar, in the matrix's ids.
    """

    def __init__(self, server_dc: Mapping[str, str]) -> None:
        self._server_dc = dict(server_dc)
        self.matrix = PossessionMatrix(self._server_dc)
        self.deliveries = DeliveryLog(self.matrix)

    # -- updates --------------------------------------------------------------

    def _sid(self, server_id: str) -> int:
        try:
            return self.matrix.server_ids[server_id]
        except KeyError:
            raise KeyError(f"unknown server {server_id!r}") from None

    def _gid(self, block_id: BlockId) -> int:
        gid = self.matrix.gid_of(block_id)
        if gid is None:
            raise KeyError(f"block {block_id!r} is in no interned job")
        return gid

    def seed(self, server_id: str, blocks: Iterable[Block]) -> None:
        """Place initial copies (no delivery records; they were never sent)
        of blocks whose jobs are interned."""
        sid = self._sid(server_id)
        self.matrix.set_many(sid, [self._gid(block.block_id) for block in blocks])

    def record_delivery(
        self,
        block: Block,
        src_server: str,
        dst_server: str,
        time: float,
        origin_dc: str,
    ) -> Optional[DeliveryRecord]:
        """Register one completed transfer of ``block`` to ``dst_server``:
        a one-row :meth:`record_deliveries`, by name.

        Returns the provenance record, or ``None`` if the destination
        already held the block (duplicate delivery is a no-op).
        """
        matrix = self.matrix
        fresh = self.record_deliveries(
            np.array([self._sid(dst_server)]),
            np.array([self._gid(block.block_id)]),
            np.array([self._sid(src_server)]),
            np.array([time], dtype=np.float64),
            np.array([matrix.dc_ids.get(origin_dc, -1)]),
        )
        if not fresh[0]:
            return None
        return DeliveryRecord(
            block.block_id, src_server, dst_server, time,
            self.dc_of(src_server) == origin_dc,
        )

    def record_deliveries(
        self,
        dst: np.ndarray,
        gids: np.ndarray,
        src: np.ndarray,
        times: np.ndarray,
        origin_dcs: np.ndarray,
    ) -> np.ndarray:
        """Land a batch of completed transfers, given as parallel columns.

        Row ``k`` moved block ``gids[k]`` from server ``src[k]`` to
        server ``dst[k]``, finishing at ``times[k]``; ``origin_dcs[k]`` is
        the DC id of its job's origin. Ids are the matrix's, and every
        block is already interned. Possession lands with one
        :meth:`PossessionMatrix.record_deliveries` scatter; the rows that
        placed a new copy append to :attr:`deliveries` in row order, their
        provenance one gather. Returns that boolean mask: a row whose
        destination already held the block, or that repeats an earlier
        row's (destination, block) pair, lands nothing — what
        :meth:`record_delivery` row by row reports as ``None``. A
        destination id past the last server raises ``IndexError`` before
        anything lands.
        """
        matrix = self.matrix
        fresh = matrix.record_deliveries(dst, gids)
        if not fresh.all():
            dst, gids, src = dst[fresh], gids[fresh], src[fresh]
            times, origin_dcs = times[fresh], origin_dcs[fresh]
        if len(gids):
            self.deliveries.append(
                gids, src, dst, times, matrix.server_dc_ids[src] == origin_dcs
            )
        return fresh

    # -- evaluation helpers -----------------------------------------------------

    def origin_fraction_by_server(self) -> Dict[str, float]:
        """Per destination server: fraction of deliveries from the origin DC.

        The Fig. 13c statistic, in order of each server's first delivery.
        Servers that never received anything are omitted.
        """
        _gids, _src, dst, _times, from_origin = self.deliveries.columns()
        totals = np.bincount(dst)
        hits = np.bincount(dst[from_origin], minlength=len(totals))
        servers, first = np.unique(dst, return_index=True)
        names = self.matrix.server_names
        return {
            names[s]: int(hits[s]) / int(totals[s])
            for s in servers[np.argsort(first)].tolist()
        }


class PossessionOverlay(PossessionReader):
    """A possession index as it will read once some copies have landed.

    §5.1's speculated delivery status: ``base``'s possession plus the
    ``(sids, gids)`` copies (server and block ids of ``base``'s
    matrix), answered from a :meth:`PossessionMatrix.overlay` twin. Read
    only — no updates, no delivery log — and ``base`` is
    untouched.
    """

    def __init__(
        self, base: PossessionReader, sids: np.ndarray, gids: np.ndarray
    ) -> None:
        self._server_dc = base._server_dc
        self.matrix = base.matrix.overlay(sids, gids)
