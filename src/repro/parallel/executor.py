"""The ``parmap`` primitive (paper Section 2.4).

POPQC exposes parallelism only through a parallel map over a collection.
The paper implements it with Rust/Rayon fork-join; here a driver talks
to the :class:`SegmentExecutor` seam (``map_segments``, ``counters()``,
``transport``, ``workers``), results in input order:

* :class:`ProcessMap` — real multicore (or multi-host) execution: a
  round above the inline floor goes to the
  :class:`~repro.parallel.transports.Transport` ``transport=`` names;
  on the local pool that is a claim round, each stream taking the next
  segment as Rayon's work stealing would.  The per-round IPC cost is a
  few buffers, not ``O(gates)`` pickle opcodes plus a fresh copy of the
  oracle.
* :class:`SerialMap`, the reference and the 1-thread configuration,
  which is also how a :class:`ProcessMap` runs a round inline: a
  segment held as ids meets the oracle's id entry (``run_ids``) — as
  it does in a local pool worker, against the rows its round carries.
* anything with an order-preserving ``map`` (:class:`ParallelMap`),
  which :func:`segment_executor` puts behind the seam:
  :class:`~repro.parallel.simulated.SimulatedParallelism`, which runs
  serially, times each task and reports the *makespan* a p-worker
  machine would achieve (the scaling experiments' executor), or a
  user's executor.  These see real gate lists.
"""

from __future__ import annotations

import os
import warnings
from typing import Callable, Protocol, Sequence, TypeVar

from ..circuits.gate import Gate
from . import shm
from .results import DecodeStats, LazySegmentResult
from .transports import TRANSPORTS, Transport, WorkerPool, _answer_one

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "ParallelMap",
    "SegmentExecutor",
    "SerialMap",
    "ProcessMap",
    "default_workers",
    "segment_executor",
]


def default_workers() -> int:
    """Worker count used when none is given (``os.cpu_count()``)."""
    return os.cpu_count() or 1


class ParallelMap(Protocol):
    """Order-preserving parallel map protocol.

    Implementations may run tasks in any order but must return results in
    input order.  ``workers`` reports the parallelism the executor aims
    to provide (used by instrumentation only).
    """

    workers: int

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every element of ``items``."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release pooled resources (no-op for stateless executors)."""
        ...  # pragma: no cover - protocol


class SegmentExecutor(Protocol):
    """What the POPQC drivers and the service need from an executor.

    :class:`ProcessMap` and :class:`SerialMap` implement it;
    :func:`segment_executor` adapts everything else.
    """

    #: Parallelism the executor aims to provide.
    workers: int
    #: Oracle wire format (``"inline"`` when segments never leave the
    #: process as bytes).
    transport: str

    def map_segments(
        self, oracle: Callable[[list[Gate]], list[Gate]], segments: Sequence
    ) -> Sequence[Sequence[Gate]]:
        """Apply ``oracle`` to every ``Sequence[Gate]`` segment,
        preserving order; results may be lazy sequences."""
        ...  # pragma: no cover - protocol

    def counters(self) -> dict:
        """Monotone counters since construction: numbers, or per-host
        ``{address: number}`` mappings.  A run's statistics are the
        difference of two calls."""
        ...  # pragma: no cover - protocol


class _MapOnly:
    """An executor that only has ``map`` behind :class:`SegmentExecutor`:
    segments reach it as real gate lists and nothing has a wire format."""

    transport = "inline"

    def __init__(self, inner: object):
        self._inner = inner
        self.workers: int = getattr(inner, "workers", 1)
        self.counters = getattr(inner, "counters", dict)

    def map_segments(self, oracle, segments):
        """``inner.map`` over materialized gate lists."""
        return self._inner.map(oracle, [list(seg) for seg in segments])

    def close(self) -> None:
        """Close the adapted executor."""
        self._inner.close()


def segment_executor(pmap: object) -> SegmentExecutor:
    """``pmap`` behind the :class:`SegmentExecutor` seam: itself when it
    has ``map_segments`` (:class:`ProcessMap`, :class:`SerialMap`), else
    adapted from its ``map`` (``SimulatedParallelism``, a user's
    object)."""
    return pmap if hasattr(pmap, "map_segments") else _MapOnly(pmap)


class SerialMap:
    """Sequential map; the reference executor and the 1-thread setting."""

    workers = 1
    transport = "inline"

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item, in order, in the calling thread."""
        return [fn(item) for item in items]

    def map_segments(self, oracle, segments: Sequence) -> list:
        """One round in the calling thread, in order.  A segment held as
        ids of a table goes to the oracle's id entry (``run_ids``) when
        it has one and comes back as ids of the same table; otherwise
        the oracle gets the segment's gates."""
        run_ids = getattr(oracle, "run_ids", None)
        results = []
        for seg in map(LazySegmentResult.of, segments):
            if run_ids is None or seg.interned is None:
                results.append(oracle(seg.gates()))
            else:
                results.append(_answer_one(oracle, seg))
        return results

    def counters(self) -> dict:
        """Nothing is counted: no wire."""
        return {}

    def close(self) -> None:
        """No pooled resources; nothing to release."""
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return "SerialMap()"


class ProcessMap:
    """Process-pool segment executor for genuine multicore execution.

    Oracle and segments cross process boundaries, so the oracle must be
    picklable.  A round of at most ``serial_cutoff`` segments runs in
    the parent; a wider one goes to the transport, on the local pool as
    a claim round.  Which stream answers a segment depends on the clock;
    its result never does — it is the same bytes wherever it is
    computed.

    Parameters
    ----------
    workers:
        Compute streams of a pooled round, at least 1 — with the default
        cutoff, the caller and ``workers - 1`` children; defaults to
        :func:`default_workers` (to the host count on the socket transport).
    serial_cutoff:
        ``None`` (default): rounds of at most 2 segments run inline; a
        wider one runs on the caller and ``workers - 1`` children.  An
        int sets the floor — at most this many items inline, the rest
        through the pool, on children alone.  The attribute is always
        the int floor.
    transport:
        Wire format for :meth:`map_segments`, a key of
        :data:`~repro.parallel.transports.TRANSPORTS` (that module
        describes each): ``"encoded"`` (default), ``"shm"``,
        ``"pickle"``, ``"threads"`` or ``"socket"``.  Requesting
        ``"shm"`` on a platform without
        ``multiprocessing.shared_memory`` falls back to ``"encoded"``
        (``requested_transport`` keeps the original).
    hosts:
        Worker host addresses (``"host:port"``) for the socket
        transport; required for (and only valid with)
        ``transport="socket"``.
    auth_token:
        Shared secret presented to the socket transport's worker hosts.

    All transports return :class:`~repro.parallel.results.
    LazySegmentResult` handles from :meth:`map_segments`: results stay
    in the wire format until a driver actually reads their gates, so
    rejected oracle outputs are never decoded (see
    :class:`~repro.parallel.results.DecodeStats`) — and an id round's
    results carry no bytes at all.

    Attributes
    ----------
    wire:
        The :class:`~repro.parallel.transports.Transport` object:
        pools, arenas, host connections and their counters live there
        (``wire.add_host`` / ``wire.remove_host`` on a socket fleet).
    serialization_time / last_serialization_time:
        Parent-side seconds building a round's message — gathering rows
        and positions for an id round, packing or pickling otherwise —
        accumulated over all :meth:`map_segments` calls and of the most
        recent one.  Result *decoding* is lazy and attributed to
        whoever reads the gates, not counted here.
    pool_dispatches:
        Number of :meth:`map_segments` calls that crossed into the
        transport: exactly the rounds wider than ``serial_cutoff``.

    :meth:`counters` reports these together with the transport's and
    the lazy-decode counts (by-value results only).
    """

    def __init__(
        self,
        workers: int | None = None,
        serial_cutoff: int | None = None,
        transport: str = "encoded",
        hosts: Sequence[str] | None = None,
        auth_token: str | None = None,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; expected one of "
                f"{tuple(TRANSPORTS)}"
            )
        self.requested_transport = transport
        if transport == "shm" and not shm.HAVE_SHM:  # platform fallback
            warnings.warn(
                "multiprocessing.shared_memory is unavailable; "
                "falling back to the 'encoded' transport",
                RuntimeWarning,
                stacklevel=2,
            )
            transport = "encoded"
        if transport == "socket":
            if not hosts:
                raise ValueError(
                    "transport='socket' requires hosts=['host:port', ...] "
                    "(start them with `popqc worker --bind host:port`)"
                )
        elif hosts:
            raise ValueError("hosts= only applies to transport='socket'")
        #: The socket transport's host list (it edits this very list as
        #: hosts join and leave); empty on every other transport.
        self.hosts = list(hosts or ())
        self.serial_cutoff = 2 if serial_cutoff is None else serial_cutoff
        self.transport = transport
        self.serialization_time = 0.0
        self.last_serialization_time = 0.0
        self.pool_dispatches = 0
        self._decode_stats = DecodeStats()
        # cluster parallelism is one dispatcher per host
        self.wire: Transport = TRANSPORTS[transport](
            workers or len(self.hosts) or default_workers(),
            self._decode_stats,
            *((self.hosts, auth_token) if self.hosts else ()),
        )
        if isinstance(self.wire, WorkerPool):
            self.wire.caller_computes = serial_cutoff is None

    @property
    def workers(self) -> int:
        """Parallelism a pooled round fans out to: the transport's
        worker count (a socket fleet's grows and shrinks with its
        hosts)."""
        return self.wire.workers

    @property
    def result_bytes_returned(self) -> int:
        """Wire bytes of all returned results — ``counters()``'s figure
        of that name, as the attribute ``benchmarks/e2e`` reads."""
        return self._decode_stats.result_bytes_returned

    # -- oracle transport -----------------------------------------------------

    def map_segments(
        self,
        oracle: Callable[[list[Gate]], list[Gate]],
        segments: Sequence[Sequence[Gate]],
    ) -> list:
        """Apply ``oracle`` to every segment, preserving order.

        The round runs in the parent at or below the cutoff and goes to
        the transport above it.  Pool-backed calls return
        :class:`~repro.parallel.results.LazySegmentResult` handles that
        decode only when read.

        Segments are any ``Sequence[Gate]``.  The driver's id-backed
        lazy segments (:meth:`LazySegmentResult.from_ids`) reach a byte
        transport without a ``Gate`` being looked up; plain gate lists
        are wrapped in the same interface here, once.
        """
        segments = [LazySegmentResult.of(seg) for seg in segments]
        self.last_serialization_time = 0.0
        if len(segments) <= self.serial_cutoff:
            return SerialMap().map_segments(oracle, segments)
        self.pool_dispatches += 1
        results, serialization = self.wire.run_round(oracle, segments)
        self.last_serialization_time = serialization
        self.serialization_time += serialization
        return results

    def counters(self) -> dict:
        """Every counter of this executor in one mapping: dispatch and
        serialization, lazy decode and the transport's own."""
        return {
            "pool_dispatches": self.pool_dispatches,
            "serialization_time": self.serialization_time,
            **self._decode_stats.counters(),
            **self.wire.counters(),
        }

    def close(self) -> None:
        """Shut down pools and release arenas and connections (safe to
        call twice)."""
        self.wire.close()

    def __repr__(self) -> str:  # pragma: no cover
        return f"ProcessMap(workers={self.workers}, transport={self.transport!r})"
