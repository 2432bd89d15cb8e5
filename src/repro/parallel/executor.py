"""The ``parmap`` primitive (paper Section 2.4).

POPQC exposes parallelism only through a parallel map over a collection.
The paper implements it with Rust/Rayon fork-join; here a driver talks
to the :class:`SegmentExecutor` seam (``map_segments``, ``counters()``,
``transport``, ``workers``), results in input order:

* :class:`ProcessMap` — real multicore (or multi-host) execution: an
  id round is a claim round, each stream taking the next segment as
  Rayon's work stealing would; a by-value round runs in the parent
  when that is measured cheaper, else is cut into batches for the
  :class:`~repro.parallel.transports.Transport` ``transport=`` names.
  The per-round IPC cost is a few buffers, not ``O(gates)`` pickle
  opcodes plus a fresh copy of the oracle.
* :class:`SerialMap`, the reference and the 1-thread configuration,
  which is also how a :class:`ProcessMap` runs a round inline: a
  segment held as ids meets the oracle's id entry (``run_ids``) — as
  it does in a local pool worker, against the rows its batch carries.
* anything with an order-preserving ``map`` (:class:`ParallelMap`),
  which :func:`segment_executor` puts behind the seam:
  :class:`~repro.parallel.simulated.SimulatedParallelism`, which runs
  serially, times each task and reports the *makespan* a p-worker
  machine would achieve (the scaling experiments' executor), or a
  user's executor.  These see real gate lists.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import Callable, Protocol, Sequence, TypeVar

from ..circuits.gate import Gate
from . import shm
from .results import DecodeStats, LazySegmentResult
from .scheduling import RoundCostModel, batch_segments
from .transports import TRANSPORTS, Transport, WorkerPool, _answer_one, _by_id

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
    picklable.  An id round (ids of a table, an oracle with ``run_ids``)
    on the ``encoded`` transport is a claim round; a by-value round
    leaves the parent only when a :class:`~repro.parallel.scheduling.
    RoundCostModel`, fed by every such round timed, says that pays.
    Where a segment is answered depends on the clock; its result never
    does — it is the same bytes wherever it is computed.

    Parameters
    ----------
    workers:
        Compute streams of a pooled round — with measured placement, the
        caller and ``workers - 1`` children; defaults to
        :func:`default_workers` (to the host count on the socket transport).
    serial_cutoff:
        ``None`` (default): rounds of at most 2 segments run inline; a
        wider one runs on the caller and ``workers - 1`` children — an
        id round always, a by-value round where the cost model predicts
        it cheaper.  An int fixes the rule — at most this many items
        inline, the rest through the pool, on children alone — and the
        model is never asked.  The attribute is always the int floor.
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
        Parent-side encode/pack seconds — gathering rows and positions,
        for an id round — accumulated over all :meth:`map_segments`
        calls and of the most recent one (the pickle transport's
        serialization happens inside the pool machinery and is not
        separable).  Result *decoding* is lazy and attributed to
        whoever reads the gates, not counted here.
    cost_model:
        The :class:`~repro.parallel.scheduling.RoundCostModel` every
        timed round but a claim round feeds; also the per-segment time
        estimate behind the batch plan.
    pool_dispatches:
        Number of :meth:`map_segments` calls that actually crossed
        into a pool (a claim round is one).
    inline_rounds / inline_segments:
        By-value rounds wider than ``serial_cutoff`` that ran in the
        parent all the same, and the segments they held.
    batch_dispatches / segments_batched:
        Batches the by-value round plans cut and segments they carried
        (a claim round adds to neither); their ratio is the mean batch
        width.  A batch is one pool task on every transport but
        ``threads``, which maps segment by segment.
    last_batch_sizes:
        Batch widths of the most recent call's plan (none inline or
        in a claim round).

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
        self._measured = serial_cutoff is None
        self.cost_model = RoundCostModel()
        self.transport = transport
        self.serialization_time = 0.0
        self.last_serialization_time = 0.0
        self.pool_dispatches = 0
        self.inline_rounds = 0
        self.inline_segments = 0
        self.batch_dispatches = 0
        self.segments_batched = 0
        self.last_batch_sizes: list[int] = []
        self._decode_stats = DecodeStats()
        # cluster parallelism is one dispatcher per host
        self.wire: Transport = TRANSPORTS[transport](
            workers or len(self.hosts) or default_workers(),
            self._decode_stats,
            *((self.hosts, auth_token) if self.hosts else ()),
        )
        if isinstance(self.wire, WorkerPool):
            self.wire.caller_computes = self._measured

    @property
    def workers(self) -> int:
        """Parallelism the round plans fan out to: the transport's
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

        The round runs in the parent at or below the cutoff; above it an
        id round is a claim round, and a by-value round runs in the
        parent where the cost model says so, or its batches are planned
        and handed to the transport, timed either way for the model.
        Pool-backed calls return
        :class:`~repro.parallel.results.LazySegmentResult` handles that
        decode only when read.

        Segments are any ``Sequence[Gate]``.  The driver's id-backed
        lazy segments (:meth:`LazySegmentResult.from_ids`) reach a byte
        transport without a ``Gate`` being looked up; plain gate lists
        are wrapped in the same interface here, once.
        """
        segments = [LazySegmentResult.of(seg) for seg in segments]
        self.last_serialization_time = 0.0
        self.last_batch_sizes = []
        n = len(segments)
        gates = sum(map(len, segments))
        model = self.cost_model
        above = n > self.serial_cutoff
        claim = above and hasattr(self.wire, "claim_round") and _by_id(oracle, segments)
        started = time.perf_counter()
        if not above or (self._measured and not claim and model.choose(n) == "inline"):
            results = SerialMap().map_segments(oracle, segments)
            model.observe("inline", n, gates, time.perf_counter() - started)
            if above:
                self.inline_rounds += 1
                self.inline_segments += n
            return results
        self.pool_dispatches += 1
        if claim:
            results, serialization = self.wire.claim_round(oracle, segments)
        else:
            task_seconds = (model.estimate("inline", n) or 0.0) * gates / n
            plan = batch_segments(n, self.workers, task_seconds)
            self.last_batch_sizes = [end - start for start, end in plan]
            self.batch_dispatches += len(plan)
            self.segments_batched += n
            results, serialization, pool_seconds = self.wire.run_round(
                oracle, segments, plan
            )
            if pool_seconds is not None:  # a cold pool's spawn is not a round's cost
                model.observe("pool", n, gates, time.perf_counter() - started)
        self.last_serialization_time = serialization
        self.serialization_time += serialization
        return results

    def counters(self) -> dict:
        """Every counter of this executor in one mapping: dispatch and
        serialization, lazy decode and the transport's own."""
        return {
            "pool_dispatches": self.pool_dispatches,
            "inline_rounds": self.inline_rounds,
            "inline_segments": self.inline_segments,
            "batch_dispatches": self.batch_dispatches,
            "segments_batched": self.segments_batched,
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
