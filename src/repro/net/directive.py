"""What the controller pushes to the agents each cycle (§5.1, Fig. 8).

A :class:`TransferDirective` orders one single-hop block transfer; a
:class:`DirectiveBatch` is one decide's directives as columns.
"""

from __future__ import annotations

import itertools
from collections import abc
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.overlay.store import PossessionMatrix

BlockId = Tuple[str, int]


class TransferDirective:
    """One single-hop transfer order: send blocks of ``job_id`` from src to dst.

    ``rate_cap`` (bytes/s) is set by centralized strategies (BDS) and left
    ``None`` by decentralized ones, whose flows then share bandwidth
    max-min fairly. Blocks are transferred in the listed order, resuming any
    partial progress the destination already accumulated.

    The block list is held one way: as **job-relative block indices**,
    ``block_indices`` — the segment ``column[lo:hi]`` of an int array the
    router cuts all of a cycle's directives from (:meth:`from_segment`),
    and what the simulator gathers possession and sizes with. Indices do
    not depend on how a possession matrix numbers its block columns. The
    constructor takes ``(job_id, index)``
    ids and converts them at once; an id of another job is a
    ``ValueError``. ``block_ids`` is the id tuple, derived on first read
    and cached.
    """

    __slots__ = (
        "job_id",
        "src_server",
        "dst_server",
        "rate_cap",
        "_column",
        "_lo",
        "_hi",
        "_block_ids",
    )

    def __init__(
        self,
        job_id: str,
        block_ids: Sequence[BlockId],
        src_server: str,
        dst_server: str,
        rate_cap: Optional[float] = None,
    ) -> None:
        block_ids = tuple(block_ids)
        foreign = [bid for bid in block_ids if bid[0] != job_id]
        if foreign:
            raise ValueError(
                f"a directive of job {job_id!r} names blocks of other jobs: "
                f"{foreign!r}"
            )
        column = np.array([bid[1] for bid in block_ids], dtype=np.int64)
        self._init(job_id, column, 0, len(column), src_server, dst_server, rate_cap)

    @classmethod
    def from_segment(
        cls,
        job_id: str,
        column: np.ndarray,
        lo: int,
        hi: int,
        src_server: str,
        dst_server: str,
        rate_cap: Optional[float] = None,
    ) -> "TransferDirective":
        """A directive over blocks ``(job_id, i) for i in column[lo:hi]``.

        ``column`` must be a 1-D int64 array. It is kept by reference and
        never written: the router cuts all of a cycle's directives from
        one column, and a (column, lo, hi) triple is smaller than a view.
        """
        self = object.__new__(cls)
        self._init(job_id, column, lo, hi, src_server, dst_server, rate_cap)
        return self

    def _init(self, job_id, column, lo, hi, src_server, dst_server, rate_cap):
        if hi <= lo:
            raise ValueError("a directive needs at least one block")
        if src_server == dst_server:
            raise ValueError("directive endpoints must differ")
        if rate_cap is not None and rate_cap < 0:
            raise ValueError("rate_cap must be >= 0")
        _set_job_id(self, job_id)
        _set_src_server(self, src_server)
        _set_dst_server(self, dst_server)
        _set_rate_cap(self, rate_cap)
        _set_column(self, column)
        _set_lo(self, lo)
        _set_hi(self, hi)
        _set_block_ids(self, None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def block_ids(self) -> Tuple[BlockId, ...]:
        ids = self._block_ids
        if ids is None:
            job_id = self.job_id
            ids = tuple((job_id, i) for i in self.block_indices.tolist())
            _set_block_ids(self, ids)
        return ids

    @property
    def block_indices(self) -> np.ndarray:
        return self._column[self._lo : self._hi]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TransferDirective:
            return NotImplemented
        return (
            self.job_id == other.job_id
            and self.src_server == other.src_server
            and self.dst_server == other.dst_server
            and self.rate_cap == other.rate_cap
            and np.array_equal(self.block_indices, other.block_indices)
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.job_id,
                self.block_ids,
                self.src_server,
                self.dst_server,
                self.rate_cap,
            )
        )

    def __repr__(self) -> str:
        return (
            f"TransferDirective(job_id={self.job_id!r}, "
            f"block_ids={self.block_ids!r}, src_server={self.src_server!r}, "
            f"dst_server={self.dst_server!r}, rate_cap={self.rate_cap!r})"
        )


# The slots' own setters fill a directive past the frozen ``__setattr__``,
# without ``object.__setattr__``'s lookup of the name.
(_set_job_id, _set_src_server, _set_dst_server, _set_rate_cap, _set_column,
 _set_lo, _set_hi, _set_block_ids) = (
    TransferDirective.__dict__[name].__set__ for name in TransferDirective.__slots__)


@dataclass(eq=False, repr=False)
class DirectiveBatch(abc.Sequence):
    """One decide's directives as columns: a ``Sequence[TransferDirective]``.

    Directive ``i`` sends the blocks ``column[bounds[i]:bounds[i + 1]]``
    (job-relative indices, one int64 column for the whole batch, rows
    directive-major) of job ``job_ids[i]`` from server id ``src[i]`` to
    server id ``dst[i]`` at ``caps[i]`` (``None``: uncapped). Ids index
    ``names``, the possession matrix's ``server_names`` — extended by
    :meth:`pack` with any name the matrix lacks, which validation then
    rejects. The router and every baseline emit one; the sharded
    controller concatenates and reconciles them; the simulator
    validates, routes and clips them as columns.
    :class:`TransferDirective` objects are built (once, all rows) only
    when something indexes, iterates or compares the batch.
    """

    column: np.ndarray
    bounds: List[int]
    job_ids: List[str]
    src: List[int]
    dst: List[int]
    caps: List[Optional[float]]
    names: Sequence[str]
    _objects: Optional[List[TransferDirective]] = None

    @classmethod
    def pack(
        cls, directives: Iterable[TransferDirective], matrix: PossessionMatrix
    ) -> "DirectiveBatch":
        """``directives`` in ``matrix``'s server ids; a batch already in
        them is returned as is. Objects (a hand-written strategy's, the
        joint-LP router's) are kept, as the batch's materialized form."""
        names = matrix.server_names
        if isinstance(directives, DirectiveBatch) and directives.names is names:
            return directives
        objects = list(directives)
        ids = dict(matrix.server_ids)
        src = [ids.setdefault(d.src_server, len(ids)) for d in objects]
        dst = [ids.setdefault(d.dst_server, len(ids)) for d in objects]
        parts = [d.block_indices for d in objects]
        return cls(
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64),
            [0, *itertools.accumulate(len(part) for part in parts)],
            [d.job_id for d in objects],
            src,
            dst,
            [d.rate_cap for d in objects],
            names if len(ids) == len(names) else list(ids),
            objects,
        )

    @classmethod
    def concat(
        cls, parts: Sequence[Sequence[TransferDirective]], matrix: PossessionMatrix
    ) -> "DirectiveBatch":
        """The directives of ``parts`` in order, as one batch (the one
        non-empty part itself)."""
        parts = [cls.pack(part, matrix) for part in parts if len(part)]
        if len(parts) <= 1:
            return parts[0] if parts else cls.pack((), matrix)
        bounds = [0]
        for part in parts:
            shift = bounds[-1]
            bounds += [b + shift for b in part.bounds[1:]]
        return cls(
            np.concatenate([part.column for part in parts]),
            bounds,
            [j for part in parts for j in part.job_ids],
            [s for part in parts for s in part.src],
            [t for part in parts for t in part.dst],
            [c for part in parts for c in part.caps],
            parts[0].names,
        )

    def keep(
        self, flags: Sequence[bool], column: Optional[np.ndarray] = None,
        bounds: Optional[List[int]] = None,
    ) -> "DirectiveBatch":
        """The directives whose flag is set, over their rows ``column``
        cut at ``bounds`` (by default, all of their rows)."""
        if column is None:
            flags = np.asarray(flags, dtype=bool)  # an empty list too
            lens = np.diff(self.bounds)
            column = self.column[np.repeat(flags, lens)]
            bounds = [0, *itertools.accumulate(lens[flags].tolist())]
        return DirectiveBatch(column, bounds, *(
            list(itertools.compress(values, flags))
            for values in (self.job_ids, self.src, self.dst, self.caps)
        ), self.names)

    def __len__(self) -> int:
        return len(self.job_ids)

    def _materialized(self) -> List[TransferDirective]:
        if self._objects is None:
            names, column, bounds = self.names, self.column, self.bounds
            self._objects = [
                TransferDirective.from_segment(
                    job_id, column, bounds[i], bounds[i + 1],
                    names[s], names[t], cap,
                )
                for i, (job_id, s, t, cap) in enumerate(
                    zip(self.job_ids, self.src, self.dst, self.caps)
                )
            ]
        return self._objects

    def __getitem__(self, item):
        return self._materialized()[item]

    def __iter__(self) -> Iterator[TransferDirective]:
        return iter(self._materialized())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple, DirectiveBatch)):
            return self._materialized() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"DirectiveBatch({self._materialized()!r})"
