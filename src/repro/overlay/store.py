"""The possession index: who holds which blocks, cluster-wide.

This is the controller's "global view of data delivery status" (§3).
Besides membership queries it maintains the aggregates the scheduling and
evaluation logic needs:

* per-block duplicate counts (for rarest-first scheduling, §4.3);
* per-DC possession (for completion detection);
* delivery provenance (whether each delivered block came from the origin DC
  or from an overlay path — the Fig. 13c measurement).

The state lives in a :class:`PossessionMatrix` of packed ``uint64``
bitset rows (servers × blocks) with interned integer ids for servers,
DCs, and blocks. Duplicate counts and per-DC copy counts are maintained
incrementally alongside the bits, so rarity is a single array gather and
the vectorized scheduler can mask/sort whole candidate sets without
touching Python objects; :class:`PossessionIndex` is the name-keyed
facade over it. The dict-of-sets bookkeeping the matrix replaced is the
test oracle ``DictPossessionIndex`` (same facade).

Epoch arithmetic: every *new* possession (seed or delivery) bumps
``epoch`` by one, and ``drop_server`` bumps it once per call (not once
per dropped block — see the method docstring).
"""

from __future__ import annotations

import copy
import sys
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
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


#: Immutable empties returned for unknown blocks/servers. These used to be
#: module-level *mutable* sets: one stray caller mutation would have
#: poisoned every future query for every index in the process. Frozen
#: variants make that class of bug structurally impossible.
_EMPTY_HOLDERS: FrozenSet[str] = frozenset()
_EMPTY_BLOCKS: FrozenSet[BlockId] = frozenset()


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
      the matrix. The column space grows geometrically (capacity doubles,
      rounded to whole 64-bit words); existing bits are copied, ids never
      move.

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

    def __init__(
        self, server_dc: Mapping[str, str], block_capacity: int = 1024
    ) -> None:
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
        capacity = max(64, block_capacity)
        capacity = (capacity + 63) & ~63  # whole uint64 words
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

    def intern_block_range(self, job_id: str, count: int) -> int:
        """Intern blocks ``(job_id, 0..count-1)`` as consecutive columns.

        Returns the first column id, so callers can address the whole
        job with ``base + block_index`` arrays instead of per-block dict
        lookups. If block 0 is already interned the existing base is
        returned — the caller contract is that the *same* bulk call
        interned the full range then (shard mirrors intern each job
        exactly once, before any of its possession bits land), so the
        range is contiguous by construction.
        """
        base = self.block_gids.get((job_id, 0))
        if base is not None:
            return base
        base = len(self.block_names)
        if base + count > self._capacity:
            self._grow(base + count)
        # Bulk-register the range: one tuple list shared by the dict and
        # the name table keeps a 10^6-block job out of a per-block Python
        # loop (the mirror cold path runs inside the controller's decide
        # wall, unlike the simulator's build-at-init interning).
        new_ids = [(job_id, index) for index in range(count)]
        self.block_gids.update(zip(new_ids, range(base, base + count)))
        self.block_names.extend(new_ids)
        return base

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

    def set_bit(self, sid: int, gid: int) -> bool:
        """Set one possession bit; returns ``True`` if it was newly set."""
        i = sid * self._words + (gid >> 6)
        word = self._flat.item(i)
        mask = 1 << (gid & 63)
        if word & mask:
            return False
        self._flat[i] = word | mask
        j = gid * self.holder_words.shape[1] + (sid >> 6)
        self._holder_flat[j] = self._holder_flat.item(j) | (1 << (sid & 63))
        self.dup[gid] += 1
        self.dc_counts[self.server_dc_list[sid], gid] += 1
        return True

    def set_many(self, sid: int, gids: Iterable[int]) -> int:
        """Set a batch of bits on one row; returns how many were new.

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
            return 0
        row = self.bits[sid]
        words = unique >> 6
        masks = np.uint64(1) << (unique & 63).astype(np.uint64)
        fresh = (row[words] & masks) == 0
        new_gids = unique[fresh]
        if new_gids.size == 0:
            return 0
        # bitwise_or.at handles repeated word indices (several new blocks
        # landing in the same 64-column word) where fancy |= would not.
        np.bitwise_or.at(row, words[fresh], masks[fresh])
        self.holder_words[new_gids, sid >> 6] |= np.uint64(1 << (sid & 63))
        self.dup[new_gids] += 1
        self.dc_counts[self.server_dc_list[sid]][new_gids] += 1
        return int(new_gids.size)

    def record_deliveries(self, sids: np.ndarray, gids: np.ndarray) -> np.ndarray:
        """Set possession bits for parallel (server, block) arrays.

        The batched counterpart of per-pair :meth:`set_bit` for one
        cycle's deliveries, which may span many destination rows. Returns
        a boolean mask of which pairs were *newly* set; pairs already
        held — or repeated within the batch, where only the first
        occurrence wins — come back ``False``, exactly as a sequential
        ``set_bit`` loop would report. The bits land with one
        ``bitwise_or.at`` scatter (repeated words are safe) and the
        duplicate/DC counters advance with ``add.at`` scatter-adds
        (repeated columns accumulate).
        """
        fresh = ~self.test_many(sids, gids)
        if fresh.any():
            # First-occurrence dedupe inside the batch: two deliveries of
            # the same (server, block) pair in one cycle must register as
            # one new bit plus one duplicate, in that order.
            pair = sids * np.int64(self._capacity) + gids
            _vals, first = np.unique(pair, return_index=True)
            is_first = np.zeros(len(pair), dtype=bool)
            is_first[first] = True
            fresh &= is_first
            rows = sids[fresh]
            cols = gids[fresh]
            flat_idx = rows * self._words + (cols >> 6)
            masks = np.uint64(1) << (cols & 63).astype(np.uint64)
            np.bitwise_or.at(self._flat, flat_idx, masks)
            np.bitwise_or.at(
                self.holder_words,
                (cols, rows >> 6),
                np.uint64(1) << (rows & 63).astype(np.uint64),
            )
            np.add.at(self.dup, cols, 1)
            np.add.at(self.dc_counts, (self.server_dc_ids[rows], cols), 1)
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

    def clear_row(self, sid: int) -> int:
        """Drop every block on one server; returns how many were held."""
        held = self.row_gids(sid)
        if held.size == 0:
            return 0
        self.dup[held] -= 1
        self.dc_counts[self.server_dc_list[sid]][held] -= 1
        self.bits[sid, :] = 0
        self.holder_words[held, sid >> 6] &= ~np.uint64(1 << (sid & 63))
        return int(held.size)

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

    def dc_covered_many(self, dc_gids: np.ndarray, gids: np.ndarray) -> np.ndarray:
        """Per-(DC, block) "does the DC hold any copy" gather."""
        return self.dc_counts[dc_gids, gids] > 0

    # -- telemetry ---------------------------------------------------------

    def state_bytes(self) -> int:
        """Bytes held by the possession arrays (both bitsets + dup + dc_counts).

        The dominant, capacity-proportional memory of the matrix — the
        per-shard footprint the sharded control plane's telemetry tracks
        (interning dicts are excluded; they are O(blocks) pointers).
        """
        return int(
            self.bits.nbytes
            + self.holder_words.nbytes
            + self.dup.nbytes
            + self.dc_counts.nbytes
        )


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

    ``epoch`` counts mutation *events*: one bump per newly-placed copy
    (seed or delivery) and one bump per effective ``drop_server`` call.
    Readers test it for equality: any possession change bumps it.

    The index is a thin facade over its :attr:`matrix`; the hot
    control-plane paths bypass the facade and operate on the matrix
    arrays directly (see :mod:`repro.core.scheduling`).
    """

    def __init__(
        self, server_dc: Mapping[str, str], block_capacity: int = 1024
    ) -> None:
        self._server_dc = dict(server_dc)
        self.deliveries: List[DeliveryRecord] = []
        self.epoch: int = 0
        # ``block_capacity`` sizes the matrix's initial column space.
        # Shard mirrors pass their partition's block count so a 1/k
        # partition holds ~1/k of the arrays instead of being quantized
        # up by the default floor + power-of-two growth.
        self.matrix = PossessionMatrix(
            self._server_dc, block_capacity=block_capacity
        )

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
        gids = [matrix.intern(block.block_id) for block in blocks]
        self.epoch += matrix.set_many(sid, gids)

    def seed_gids(self, server_id: str, gids: "np.ndarray") -> None:
        """Bulk :meth:`seed` by pre-interned column ids.

        The shard mirrors' fast ingest path: a whole (server, job) batch
        of initial copies lands in one :meth:`PossessionMatrix.set_many`
        call instead of per-block facade hops. Same idempotence and
        epoch bookkeeping as :meth:`seed`.
        """
        self.epoch += self.matrix.set_many(self._sid(server_id), gids)

    def record_delivery(
        self,
        block: Block,
        src_server: str,
        dst_server: str,
        time: float,
        origin_dc: str,
    ) -> Optional[DeliveryRecord]:
        """Register a completed transfer of ``block`` to ``dst_server``.

        Returns the provenance record, or ``None`` if the destination
        already held the block (duplicate delivery is a no-op).
        """
        matrix = self.matrix
        sid = self._sid(dst_server)
        if not matrix.set_bit(sid, matrix.intern(block.block_id)):
            return None
        self.epoch += 1
        record = DeliveryRecord(
            block_id=block.block_id,
            src_server=src_server,
            dst_server=dst_server,
            time=time,
            from_origin_dc=self.dc_of(src_server) == origin_dc,
        )
        self.deliveries.append(record)
        return record

    def record_deliveries(
        self,
        events: Sequence[Tuple[Block, str, str, float, str]],
    ) -> List[Optional[DeliveryRecord]]:
        """Batch :meth:`record_delivery`: one grouped possession pass.

        ``events`` is a sequence of ``(block, src_server, dst_server,
        time, origin_dc)`` tuples — the same arguments, applied in order.
        Returns a list aligned with ``events``: the fresh
        :class:`DeliveryRecord` per new possession, ``None`` for
        duplicates (a destination that already held the block, or a later
        repeat of the same pair within the batch). Provenance records
        append in event order and the epoch advances once per new copy —
        byte-identical bookkeeping to the sequential loop.

        Destination servers are resolved (and unknown ones rejected)
        *before* any bit lands, so a bad event fails the whole batch
        instead of a prefix — the one deliberate divergence from looping
        :meth:`record_delivery`, which would apply events preceding the
        bad one.
        """
        matrix = self.matrix
        n = len(events)
        out: List[Optional[DeliveryRecord]] = [None] * n
        if n == 0:
            return out
        sids = np.empty(n, dtype=np.int64)
        gids = np.empty(n, dtype=np.int64)
        server_ids = matrix.server_ids
        gid_map = matrix.block_gids
        intern = matrix.intern
        for k, (block, _src, dst, _when, _origin) in enumerate(events):
            sid = server_ids.get(dst)
            if sid is None:
                raise KeyError(f"unknown server {dst!r}")
            sids[k] = sid
            bid = block.block_id
            gid = gid_map.get(bid)
            gids[k] = intern(bid) if gid is None else gid
        fresh = matrix.record_deliveries(sids, gids)
        count = int(np.count_nonzero(fresh))
        if count == 0:
            return out
        self.epoch += count
        server_dc = self._server_dc
        append = self.deliveries.append
        for k in np.flatnonzero(fresh):
            block, src, dst, when, origin = events[k]
            record = DeliveryRecord(
                block_id=block.block_id,
                src_server=src,
                dst_server=dst,
                time=when,
                from_origin_dc=server_dc[src] == origin,
            )
            out[k] = record
            append(record)
        return out

    def drop_server(self, server_id: str) -> None:
        """Remove all copies on a failed server (disk loss).

        Bumps the epoch **once per call** (when anything was actually
        dropped), not once per dropped block: a disk-loss event is one
        state transition, and epoch-delta consumers (anything comparing
        ``epoch`` across reads to estimate churn) should see it as one
        invalidation, not thousands. Equality tests see a change either
        way.
        """
        sid = self.matrix.server_ids.get(server_id)
        if sid is not None and self.matrix.clear_row(sid):
            self.epoch += 1

    # -- evaluation helpers -----------------------------------------------------

    def origin_fraction_by_server(self) -> Dict[str, float]:
        """Per destination server: fraction of deliveries from the origin DC.

        The Fig. 13c statistic. Servers that never received anything are
        omitted.
        """
        totals: Dict[str, int] = {}
        from_origin: Dict[str, int] = {}
        for record in self.deliveries:
            totals[record.dst_server] = totals.get(record.dst_server, 0) + 1
            if record.from_origin_dc:
                from_origin[record.dst_server] = (
                    from_origin.get(record.dst_server, 0) + 1
                )
        return {
            server: from_origin.get(server, 0) / count
            for server, count in totals.items()
        }


class PossessionOverlay(PossessionReader):
    """A possession index as it will read once some copies have landed.

    §5.1's speculated delivery status: ``base``'s possession plus the
    ``(sids, gids)`` copies (server and block column ids of ``base``'s
    matrix), answered from a :meth:`PossessionMatrix.overlay` twin. Read
    only — no updates, no delivery log, no epoch — and ``base`` is
    untouched.
    """

    def __init__(
        self, base: PossessionReader, sids: np.ndarray, gids: np.ndarray
    ) -> None:
        self._server_dc = base._server_dc
        self.matrix = base.matrix.overlay(sids, gids)
