"""Lazy oracle-result decoding for the segment transports.

POPQC's acceptance test (Algorithm 3) needs only a *cost* to decide
whether an oracle rewrite is kept, and the default cost is the gate
count — which the packed wire format stores in its header.  Decoding a
rejected result into ``Gate`` objects is therefore pure waste, and on
converged workloads most results are rejected.  This module makes the
waste structural instead of accidental: every transport returns
:class:`LazySegmentResult` handles, ``len()`` answers from the packed
header, and a result is unpacked only when a driver actually reads it —
i.e. only for segments it accepted.  ``popqc`` reads an accepted result
as wire arrays (:meth:`LazySegmentResult.encoded`) and interns them, so
even then no ``Gate`` is built for a value the run has already seen;
indexing or iterating a handle decodes it into gates as before.

The handles are plain ``Sequence[Gate]`` objects, so drivers and tests
that treated results as gate lists keep working unchanged; comparing a
handle to a list decodes it, as does any element access.

Decode accounting flows through :class:`DecodeStats` (one per
executor): how many byte-carrying results came back, how many were ever
decoded, and the byte volumes of both.  The difference is the work lazy
decoding skipped; it reaches a run's ``OptimizationStats.counters``
through the executor's ``counters()``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Iterator, Optional

import numpy as np

from ..circuits import encoding
from ..circuits.gate import Gate
from ..circuits.intern import GateTable

__all__ = ["DecodeStats", "LazySegmentResult"]


class DecodeStats:
    """Counters for lazy result decoding, owned by an executor.

    ``results_returned`` / ``result_bytes_returned`` count every
    byte-carrying result handed back by :meth:`ProcessMap.map_segments`;
    ``results_decoded`` / ``result_bytes_decoded`` count the subset
    whose gates were ever materialized.  Only by-value results count:
    one born from gate lists (pickle transport) or from ids (inline and
    id pool rounds) carries no bytes, so the keys stay but read 0 there.
    """

    __slots__ = (
        "results_returned",
        "results_decoded",
        "result_bytes_returned",
        "result_bytes_decoded",
    )

    def __init__(self) -> None:
        self.results_returned = 0
        self.results_decoded = 0
        self.result_bytes_returned = 0
        self.result_bytes_decoded = 0

    def counters(self) -> dict:
        """The four counts, under the names ``counters()`` reports."""
        return {name: getattr(self, name) for name in self.__slots__}

    def note_returned(self, nbytes: int) -> None:
        """Record a byte-carrying result crossing back to the driver."""
        self.results_returned += 1
        self.result_bytes_returned += nbytes

    def note_decoded(self, nbytes: int) -> None:
        """Record the first (and only) decode of a returned result."""
        self.results_decoded += 1
        self.result_bytes_decoded += nbytes


class LazySegmentResult(Sequence):
    """A gate segment that turns into gates only on first access.

    Oracle results are born in one of four states, one per transport
    situation:

    * :meth:`from_packed` — the flat wire format as bytes (encoded and
      shm transports); ``len()`` reads the packed header.
    * :meth:`from_encoded` — an :class:`~repro.circuits.encoding.
      EncodedSegment` (threads transport with a packed-native oracle).
    * :meth:`from_gates` — an already-decoded gate list (pickle
      transport, inline fallbacks); nothing left to skip.

    * :meth:`from_ids` — ids of the driver's table (inline and id pool
      rounds): no bytes at all, so nothing is counted or decoded.

    The same handle carries segments the other way: :meth:`from_ids`
    is what ``popqc`` hands ``map_segments`` — ids into its
    :class:`~repro.circuits.intern.GateTable`, whose wire form is a
    gather and whose gates are looked up only on request — and
    ``from_gates`` is how a plain gate list joins it.  Either way
    :meth:`gates`, :meth:`encoded` and :meth:`packed_bytes` each derive
    their form at most once.

    All decoding routes through the :mod:`repro.circuits.encoding`
    module attributes, so tests can spy on ``decode_segment`` /
    ``unpack_segment_from`` to prove rejected results never decode.
    """

    __slots__ = (
        "_gates", "_packed", "_encoded", "_interned", "_length", "_nbytes", "_stats"
    )

    def __init__(
        self,
        *,
        gates: Optional[list[Gate]] = None,
        packed: Optional[bytes] = None,
        encoded: Optional[encoding.EncodedSegment] = None,
        interned: Optional[tuple[np.ndarray, GateTable]] = None,
        length: int = 0,
        nbytes: int = 0,
        stats: Optional[DecodeStats] = None,
    ):
        self._gates = gates
        self._packed = packed
        self._encoded = encoded
        self._interned = interned
        self._length = length
        self._nbytes = nbytes
        self._stats = stats

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_packed(
        cls,
        payload: bytes,
        stats: Optional[DecodeStats] = None,
        length: Optional[int] = None,
    ) -> "LazySegmentResult":
        """Wrap one packed segment (the whole ``payload``).

        ``length`` is the gate count when the caller has already read
        the header (splitting a batch reply does); otherwise it is read
        here.
        """
        if length is None:
            length, _end = encoding.packed_segment_span(payload, 0)
        result = cls(
            packed=payload, length=length, nbytes=len(payload), stats=stats
        )
        if stats is not None:
            stats.note_returned(len(payload))
        return result

    @classmethod
    def from_encoded(
        cls,
        encoded: encoding.EncodedSegment,
        stats: Optional[DecodeStats] = None,
    ) -> "LazySegmentResult":
        """Wrap an in-process :class:`EncodedSegment` (threads transport)."""
        result = cls(
            encoded=encoded,
            length=encoded.length,
            nbytes=encoded.nbytes,
            stats=stats,
        )
        if stats is not None:
            stats.note_returned(encoded.nbytes)
        return result

    @classmethod
    def from_gates(cls, gates: list[Gate]) -> "LazySegmentResult":
        """Wrap an already-decoded gate list (no bytes to skip)."""
        return cls(gates=gates, length=len(gates))

    @classmethod
    def from_ids(cls, ids: np.ndarray, table: GateTable) -> "LazySegmentResult":
        """Wrap a segment held as ``ids`` into ``table``."""
        return cls(interned=(ids, table), length=len(ids))

    @classmethod
    def of(cls, segment: Sequence[Gate]) -> "LazySegmentResult":
        """``segment`` behind this interface: itself if it already is a
        handle — the driver's id-backed segments, an oracle result —
        else its gates wrapped (:meth:`from_gates`)."""
        if isinstance(segment, cls):
            return segment
        return cls.from_gates(segment if isinstance(segment, list) else list(segment))

    # -- lazy decode ---------------------------------------------------------

    def _arrays(self) -> encoding.EncodedSegment:
        if self._encoded is None:
            if self._packed is not None:
                self._encoded, _ = encoding.unpack_segment_from(self._packed, 0)
            elif self._interned is not None:
                ids, table = self._interned
                self._encoded = table.encoded(ids)
            else:
                self._encoded = encoding.encode_segment(self._gates)
        return self._encoded

    def encoded(self) -> encoding.EncodedSegment:
        """The segment as wire arrays (derived once, then kept).

        For an oracle result this is the read an accepting driver
        makes, so it is what :class:`DecodeStats` counts as the
        result's decode — once, whether or not :meth:`gates` follows.
        """
        if self._stats is not None:
            self._stats.note_decoded(self._nbytes)
            self._stats = None
        return self._arrays()

    def gates(self) -> list[Gate]:
        """The gate list (decoded or looked up once, then kept)."""
        if self._gates is None:
            if self._interned is not None:
                ids, table = self._interned
                self._gates = table.gates_of(ids)
            else:
                self._gates = encoding.decode_segment(self.encoded())
                self._packed = None
                self._encoded = None
        return self._gates

    def packed_bytes(self) -> bytes:
        """The segment in the flat wire format: cache key, cache value
        and wire payload (packed once, then kept).

        This is a *serialization*, not a decode — it never
        materializes gates and is not counted by :class:`DecodeStats`,
        so caching a rejected result keeps the lazy-decode guarantee
        intact.
        """
        if self._packed is None:
            self._packed = encoding.pack_segment(self._arrays())
        return self._packed

    @property
    def decoded(self) -> bool:
        """Whether the gates have been materialized."""
        return self._gates is not None

    @property
    def interned(self) -> Optional[tuple[np.ndarray, GateTable]]:
        """``(ids, table)`` of a segment born :meth:`from_ids`, else ``None``."""
        return self._interned

    @property
    def nbytes(self) -> int:
        """Wire size of the result (0 for gate-list births)."""
        return self._nbytes

    def __copy__(self) -> "LazySegmentResult":
        """A handle of its own on this segment, in this one's state: a
        copy of an unread by-value result counts its own decode."""
        return LazySegmentResult(
            gates=self._gates, packed=self._packed, encoded=self._encoded,
            interned=self._interned, length=self._length, nbytes=self._nbytes,
            stats=self._stats,
        )

    # -- Sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        return self.gates()[index]

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LazySegmentResult):
            return self.gates() == other.gates()
        if isinstance(other, (list, tuple)):
            return self.gates() == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "decoded" if self.decoded else f"packed:{self._nbytes}B"
        return f"LazySegmentResult(len={self._length}, {state})"
