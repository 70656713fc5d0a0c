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
bitset rows (servers × blocks) with interned integer ids for servers,
DCs, and blocks. Duplicate counts and per-DC copy counts are maintained
incrementally alongside the bits, so rarity is a single array gather and
the vectorized scheduler can mask/sort whole candidate sets without
touching Python objects; :class:`PossessionIndex` is the name-keyed
facade over it. The dict-of-sets bookkeeping the matrix replaced is the
test oracle ``DictPossessionIndex`` (same facade).

Possession only grows: copies are seeded or delivered and never dropped
(disk loss enters a simulation as *agent* failure).
"""

from __future__ import annotations

import copy
import sys
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


#: Immutable empties returned for unknown blocks/servers. These used to be
#: module-level *mutable* sets: one stray caller mutation would have
#: poisoned every future query for every index in the process. Frozen
#: variants make that class of bug structurally impossible.
_EMPTY_HOLDERS: FrozenSet[str] = frozenset()
_EMPTY_BLOCKS: FrozenSet[BlockId] = frozenset()

#: ``_BITS[i]`` is the ``uint64`` word with only bit ``i`` set.
_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)


class PossessionMatrix:
    """Packed servers × blocks possession bitset with interned integer ids.

    The id interning contract:

    * **servers** are interned once at construction, in ascending name
      order — so ascending server id equals lexicographic server-name
      order, and ``np.nonzero`` over a bit column yields holders already
      sorted the way the router's candidate-source logic sorts names;
    * **DCs** are interned once at construction, also in sorted-name
      order (DC-id comparisons reproduce DC-name comparisons);
    * **blocks** are interned on first touch (seed, delivery, or an
      explicit :meth:`intern`) and keep their column for the lifetime of
      the matrix. The column space starts at 1 024 and grows
      geometrically (capacity doubles, rounded to whole 64-bit words);
      existing bits are copied, ids never move.

    Row ``s`` packs the blocks server ``s`` holds, 64 block columns per
    ``uint64`` word (block ``g`` lives in word ``g >> 6``, bit ``g & 63``).
    ``holder_words`` is the same relation transposed — row ``g`` packs the
    servers holding block ``g`` (server ``s`` in word ``s >> 6``, bit
    ``s & 63``) — so a block's whole holder set is one gather; the router
    classes selections by it.
    ``dup[g]`` (cluster-wide copy count — the §4.3 rarity measure) and
    ``dc_counts[d, g]`` (copies inside DC ``d``) are maintained
    incrementally on every bit flip, so they always equal the popcount of
    the corresponding column (resp. the column restricted to the DC's
    rows); the equivalence tests assert this invariant directly.
    """

    __slots__ = (
        "server_names",
        "server_ids",
        "dc_names",
        "dc_ids",
        "server_dc_ids",
        "server_dc_list",
        "dc_order",
        "dc_starts",
        "dc_words",
        "dc_bits",
        "bits",
        "holder_words",
        "dup",
        "dc_counts",
        "block_gids",
        "block_names",
        "_capacity",
        "_words",
        "_flat",
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
        self.server_dc_list: List[int] = self.server_dc_ids.tolist()
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
        capacity = 1024  # block columns: 16 whole uint64 words
        self._capacity = capacity
        self._words = capacity >> 6
        num_servers = len(names)
        self.bits = np.zeros((num_servers, self._words), dtype=np.uint64)
        self._flat = self.bits.reshape(-1)
        self.holder_words = np.zeros(
            (capacity, (num_servers + 63) >> 6), dtype=np.uint64
        )
        self._holder_flat = self.holder_words.reshape(-1)
        self.dup = np.zeros(capacity, dtype=np.int64)
        self.dc_counts = np.zeros(
            (len(self.dc_names), capacity), dtype=np.int64
        )
        self.block_gids: Dict[BlockId, int] = {}
        self.block_names: List[BlockId] = []

    # -- interning ---------------------------------------------------------

    @property
    def num_servers(self) -> int:
        return len(self.server_names)

    @property
    def num_blocks(self) -> int:
        return len(self.block_names)

    def intern(self, block_id: BlockId) -> int:
        """The block's column id, allocating one on first sight."""
        gid = self.block_gids.get(block_id)
        if gid is None:
            gid = len(self.block_names)
            if gid >= self._capacity:
                self._grow(gid + 1)
            self.block_gids[block_id] = gid
            self.block_names.append(block_id)
        return gid

    def gid_of(self, block_id: BlockId) -> Optional[int]:
        """The block's column id, or ``None`` if never interned."""
        return self.block_gids.get(block_id)

    def _grow(self, needed: int) -> None:
        capacity = max(self._capacity * 2, (needed + 63) & ~63)
        capacity = (capacity + 63) & ~63
        words = capacity >> 6
        bits = np.zeros((self.bits.shape[0], words), dtype=np.uint64)
        bits[:, : self._words] = self.bits
        self.bits = bits
        self._flat = bits.reshape(-1)
        holder_words = np.zeros(
            (capacity, self.holder_words.shape[1]), dtype=np.uint64
        )
        holder_words[: self._capacity] = self.holder_words
        self.holder_words = holder_words
        self._holder_flat = holder_words.reshape(-1)
        dup = np.zeros(capacity, dtype=np.int64)
        dup[: self._capacity] = self.dup
        self.dup = dup
        dc_counts = np.zeros((self.dc_counts.shape[0], capacity), dtype=np.int64)
        dc_counts[:, : self._capacity] = self.dc_counts
        self.dc_counts = dc_counts
        self._capacity = capacity
        self._words = words

    # -- single-bit updates/queries ---------------------------------------

    def test_bit(self, sid: int, gid: int) -> bool:
        """Does server ``sid`` hold block column ``gid``?"""
        word = self._flat.item(sid * self._words + (gid >> 6))
        return bool((word >> (gid & 63)) & 1)

    def set_many(self, sid: int, gids: Iterable[int]) -> None:
        """Set a batch of bits on one row.

        The batched form keeps large initial seedings (10^6-block jobs)
        out of per-bit Python loops: previously-unset columns are found
        with one gather, the row is OR-updated wordwise, and the
        duplicate/DC counters advance with unique fancy indexing.
        """
        if isinstance(gids, np.ndarray):
            arr = gids.astype(np.int64, copy=False)
        else:
            arr = np.asarray(list(gids), dtype=np.int64)
        unique = np.unique(arr)
        if unique.size == 0:
            return
        row = self.bits[sid]
        words = unique >> 6
        masks = np.uint64(1) << (unique & 63).astype(np.uint64)
        fresh = (row[words] & masks) == 0
        new_gids = unique[fresh]
        if new_gids.size == 0:
            return
        # bitwise_or.at handles repeated word indices (several new blocks
        # landing in the same 64-column word) where fancy |= would not.
        np.bitwise_or.at(row, words[fresh], masks[fresh])
        self.holder_words[new_gids, sid >> 6] |= np.uint64(1 << (sid & 63))
        self.dup[new_gids] += 1
        self.dc_counts[self.server_dc_list[sid]][new_gids] += 1

    def record_deliveries(self, sids: np.ndarray, gids: np.ndarray) -> np.ndarray:
        """Set possession bits for parallel (server, block) arrays.

        One cycle's deliveries, which may span many destination rows.
        Returns a boolean mask of which pairs were *newly* set; pairs
        already held — or repeated within the batch, where only the
        first occurrence wins — come back ``False``, exactly as setting
        them one at a time would report. The bits land with one
        ``bitwise_or.at`` scatter (repeated words are safe) and the
        duplicate/DC counters advance with ``add.at`` scatter-adds
        (repeated columns accumulate). A cycle's batch is often a dozen
        rows, so the work is counted in array calls, not elements.
        """
        words = sids * self._words + (gids >> 6)
        bit = gids & 63
        masks = _BITS[bit]
        fresh = (self._flat[words] & masks) == 0
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
            sids, gids = sids[fresh], gids[fresh]
            words, masks = words[fresh], masks[fresh]
        if len(gids):
            np.bitwise_or.at(self._flat, words, masks)
            np.bitwise_or.at(
                self._holder_flat,
                gids * self.holder_words.shape[1] + (sids >> 6),
                _BITS[sids & 63],
            )
            np.add.at(self.dup, gids, 1)
            np.add.at(self.dc_counts, (self.server_dc_ids[sids], gids), 1)
        return fresh

    def overlay(self, sids: np.ndarray, gids: np.ndarray) -> "PossessionMatrix":
        """A twin of this matrix that also holds the ``(sids, gids)`` copies.

        The four possession arrays are copied, so nothing written to the
        twin reaches this matrix; the interning tables are shared, so the
        twin's ids are this matrix's ids — and it must intern nothing.
        """
        twin = copy.copy(self)
        twin.bits = self.bits.copy()
        twin._flat = twin.bits.reshape(-1)
        twin.holder_words = self.holder_words.copy()
        twin._holder_flat = twin.holder_words.reshape(-1)
        twin.dup = self.dup.copy()
        twin.dc_counts = self.dc_counts.copy()
        twin.record_deliveries(sids, gids)
        return twin

    # -- batched queries (the vectorized control-plane surface) ------------

    def holder_ids(self, gid: int) -> np.ndarray:
        """Server ids holding the block, ascending (== sorted by name)."""
        column = self.bits[:, gid >> 6]
        mask = np.uint64(1 << (gid & 63))
        return np.nonzero(column & mask)[0]

    def any_holder_ids(self, gids: np.ndarray) -> np.ndarray:
        """Server ids holding at least one of the blocks, ascending.

        The holder words are OR-reduced 4 096 blocks at a time, so the
        temporary is 512 bytes × servers however many blocks are asked
        about.
        """
        any_of = np.zeros(self.holder_words.shape[1], dtype=np.uint64)
        for lo in range(0, len(gids), 4096):
            any_of |= np.bitwise_or.reduce(
                self.holder_words[gids[lo : lo + 4096]], axis=0
            )
        bit = np.arange(64, dtype=np.uint64)
        return np.flatnonzero((any_of[:, None] >> bit) & np.uint64(1))

    def row_gids(self, sid: int) -> np.ndarray:
        """Block columns set on one server row, ascending."""
        row = self.bits[sid]
        if not row.any():
            return np.empty(0, dtype=np.int64)
        if sys.byteorder == "big":  # pragma: no cover - x86/arm are little
            row = row.byteswap()
        flags = np.unpackbits(row.view(np.uint8), bitorder="little")
        return np.nonzero(flags)[0].astype(np.int64)

    def test_many(self, sids: np.ndarray, gids: np.ndarray) -> np.ndarray:
        """Boolean possession gather for parallel (server, block) arrays."""
        words = self.bits[sids, gids >> 6]
        return (words >> (gids & 63).astype(np.uint64)) & np.uint64(1) != 0

    def test_transfers(
        self, src: np.ndarray, dst: np.ndarray, gids: np.ndarray
    ) -> np.ndarray:
        """Per (source, destination, block) row: source holds ∧ destination lacks."""
        words = gids >> 6
        bits = self.bits
        wanted = bits[src, words] & ~bits[dst, words]
        return (wanted >> (gids & 63).astype(np.uint64)) & np.uint64(1) != 0

    def test_row_many(self, sid: int, gids: np.ndarray) -> np.ndarray:
        """Boolean possession gather for one server over many blocks."""
        row = self.bits[sid]
        words = row[gids >> 6]
        return (words >> (gids & 63).astype(np.uint64)) & np.uint64(1) != 0

    # -- telemetry ---------------------------------------------------------

    def state_bytes(self) -> int:
        """Bytes held by the possession arrays (both bitsets + dup + dc_counts).

        The dominant, capacity-proportional memory of the matrix
        (interning dicts are excluded; they are O(blocks) pointers).
        """
        return int(
            self.bits.nbytes
            + self.holder_words.nbytes
            + self.dup.nbytes
            + self.dc_counts.nbytes
        )


class DeliveryLog(abc.Sequence):
    """A store's delivery provenance: one row per delivery that placed a
    new copy, in landing order.

    The rows are five parallel columns in the matrix's id space — block
    column, source server, destination server, finish time, and whether
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
        blocks = self._matrix.block_names
        servers = self._matrix.server_names
        for gid, src, dst, time, origin in zip(
            *(column.tolist() for column in self.columns())
        ):
            yield DeliveryRecord(blocks[gid], servers[src], servers[dst], time, origin)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self[i] for i in range(*item.indices(self._len))]
        index = item + self._len if item < 0 else item
        if not 0 <= index < self._len:
            raise IndexError("delivery index out of range")
        gid, src, dst, time, origin = (c[index].item() for c in self.columns())
        servers = self._matrix.server_names
        return DeliveryRecord(
            self._matrix.block_names[gid], servers[src], servers[dst], time, origin
        )

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
        gid = matrix.block_gids.get(block_id)
        if gid is None:
            return False
        sid = matrix.server_ids.get(server_id)
        if sid is None:
            return False
        return matrix.test_bit(sid, gid)

    def holders(self, block_id: BlockId) -> AbstractSet[str]:
        """Servers currently holding the block, as a fresh ``frozenset``
        decoded from the bit column (a shared empty one for unknown
        blocks)."""
        matrix = self.matrix
        gid = matrix.block_gids.get(block_id)
        if gid is None:
            return _EMPTY_HOLDERS
        names = matrix.server_names
        return frozenset(names[i] for i in matrix.holder_ids(gid))

    def duplicate_count(self, block_id: BlockId) -> int:
        """Number of copies cluster-wide (the §4.3 rarity measure)."""
        gid = self.matrix.block_gids.get(block_id)
        return int(self.matrix.dup[gid]) if gid is not None else 0

    def blocks_on(self, server_id: str) -> AbstractSet[BlockId]:
        """Blocks held by one server, as a fresh ``frozenset`` decoded
        from the server's bit row."""
        matrix = self.matrix
        sid = matrix.server_ids.get(server_id)
        if sid is None:
            return _EMPTY_BLOCKS
        names = matrix.block_names
        return frozenset(names[g] for g in matrix.row_gids(sid))

    def dc_has_block(self, dc: str, block_id: BlockId) -> bool:
        return self.dc_copy_count(dc, block_id) > 0

    def dc_copy_count(self, dc: str, block_id: BlockId) -> int:
        matrix = self.matrix
        gid = matrix.block_gids.get(block_id)
        if gid is None:
            return 0
        did = matrix.dc_ids.get(dc)
        if did is None:
            return 0
        return int(matrix.dc_counts[did, gid])

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

    def seed(self, server_id: str, blocks: Iterable[Block]) -> None:
        """Place initial copies (no delivery records; they were never sent)."""
        matrix = self.matrix
        sid = self._sid(server_id)
        matrix.set_many(sid, [matrix.intern(block.block_id) for block in blocks])

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
            np.array([matrix.intern(block.block_id)]),
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

        Row ``k`` moved block column ``gids[k]`` from server ``src[k]`` to
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
    ``(sids, gids)`` copies (server and block column ids of ``base``'s
    matrix), answered from a :meth:`PossessionMatrix.overlay` twin. Read
    only — no updates, no delivery log — and ``base`` is
    untouched.
    """

    def __init__(
        self, base: PossessionReader, sids: np.ndarray, gids: np.ndarray
    ) -> None:
        self._server_dc = base._server_dc
        self.matrix = base.matrix.overlay(sids, gids)
