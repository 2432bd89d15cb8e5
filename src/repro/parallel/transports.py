"""The oracle transports: how one round reaches the workers.

:class:`~repro.parallel.ProcessMap` decides *whether* a round leaves
the parent (the inline floor and, for a by-value round, the measured
:class:`~repro.parallel.scheduling.RoundCostModel`) and how a by-value
round is cut (:func:`~repro.parallel.scheduling.batch_segments`); a
:class:`Transport` decides *how the bytes travel*.  Each wire format is
one small class with its own state and counters, and :data:`TRANSPORTS`
is the registry ``transport=`` names are looked up in:

* ``"encoded"`` (default) — the oracle is registered once per child.
  An id round (ids of a table, an oracle with ``run_ids``: every
  ``popqc`` round of a ``NamOracle``) is a *claim round*: one message
  per child — the round's distinct rows and every segment's positions
  — and each stream, the caller too when it computes, takes the next
  segment from a shared cell until none is left.  Any other round is
  a packed blob per batch each way (the socket transport's payloads);
* ``"shm"`` — every round's segments are packed into one pooled
  shared-memory arena (:mod:`repro.parallel.shm`) and the pipe carries
  only ``(arena, start, end)`` descriptors;
* ``"pickle"`` — the seed behaviour, kept as the benchmark baseline:
  the oracle and every ``list[Gate]`` are pickled on every call;
* ``"threads"`` — no pipes, no arenas: oracle calls run on a thread
  pool over the parent's own gate lists, which pays off only when
  the oracle releases the GIL;
* ``"socket"`` — the same packed bytes as length-prefixed frames over
  TCP to ``popqc worker`` hosts (:mod:`repro.parallel.hostpool`), with
  heartbeat, reconnect-and-requeue on host failure and the
  generation-token protocol over the wire.

The three pool-backed formats share :class:`WorkerPool`: children on a
pipe each, the generation token every task carries (so a stale child
fails loudly, :class:`StaleOracleError`), the respawn after a crash,
the loop dealing by-value batches to free streams (the caller maybe
among them) and the claim round.
Every transport returns :class:`~repro.parallel.results.LazySegmentResult`
handles, so results stay ids, or in the wire format until a driver
reads their gates.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import os
import pickle
import time
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait
from typing import Callable, Optional, Protocol, Sequence

import numpy as np

from ..circuits.encoding import pack_segment, packed_segment_span, unpack_segment_from
from ..circuits.gate import Gate
from . import shm
from .frames import (
    StaleOracleError,
    iter_results_payload,
    join_segments_payload,
    pack_results_payload,
    unpack_segments_payload,
)
from .hostpool import SocketHostPool
from .results import DecodeStats, LazySegmentResult
from .worker import wire_entry

__all__ = [
    "TRANSPORTS",
    "EncodedTransport",
    "PickleTransport",
    "ShmTransport",
    "SocketTransport",
    "ThreadsTransport",
    "Transport",
    "WorkerPool",
]

Oracle = Callable[[list[Gate]], list[Gate]]

#: One round's dispatch plan: half-open ``(start, end)`` segment ranges.
Plan = Sequence[tuple[int, int]]

#: What :meth:`Transport.run_round` returns: the lazy results in
#: segment order, the parent-side seconds spent serializing, and the
#: seconds the workers held the round — ``None`` when the round had to
#: start its pool, so its duration says nothing about a round's cost.
RoundResult = tuple[list[LazySegmentResult], float, Optional[float]]


class Transport(Protocol):
    """What :class:`~repro.parallel.ProcessMap` needs from a wire format."""

    workers: int

    def run_round(
        self, oracle: Oracle, segments: Sequence[LazySegmentResult], plan: Plan
    ) -> RoundResult:
        """Apply ``oracle`` to every segment, cut into tasks as ``plan``
        says, preserving order."""
        ...  # pragma: no cover - protocol

    def counters(self) -> dict:
        """This transport's monotone counters (keys fixed for life)."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release pools, arenas and connections (safe to call twice;
        a later round rebuilds what it needs)."""
        ...  # pragma: no cover - protocol


# -- worker-process side -------------------------------------------------------
#
# With the pool-backed transports the oracle is installed once per
# child (:func:`_serve`) together with its generation token, as the
# per-segment callable :func:`~repro.parallel.worker.wire_entry` picks
# for it; every task ships only segments tagged with the generation.

_WORKER_ENTRY: Optional[Callable] = None
_WORKER_ORACLE: Optional[Oracle] = None
_WORKER_ORACLE_GEN: int = -1

#: A pool child's ``(claim cell lock, cell slots, own slot, parent pid)``.
_WORKER_CELL: Optional[tuple] = None

#: Worker-side cache of attached shared-memory arenas, keyed by name.
#: Arena blocks are reused round over round, so this normally holds the
#: two or three blocks of the executor's ring.
_WORKER_ARENAS: dict[str, object] = {}

_WORKER_ARENA_CACHE_LIMIT = 8


def _register_worker_oracle(oracle: Optional[Oracle], generation: int) -> None:
    global _WORKER_ENTRY, _WORKER_ORACLE, _WORKER_ORACLE_GEN
    _WORKER_ENTRY = wire_entry(oracle)
    _WORKER_ORACLE = oracle
    _WORKER_ORACLE_GEN = generation


def _require_worker_oracle(generation: int) -> Callable:
    """The registered oracle's wire entry, after checking the task's
    generation token."""
    if _WORKER_ENTRY is None:
        raise RuntimeError("worker pool initialized without an oracle")
    if generation != _WORKER_ORACLE_GEN:
        raise StaleOracleError(
            f"task expects oracle generation {generation}, worker has "
            f"{_WORKER_ORACLE_GEN}"
        )
    return _WORKER_ENTRY


def _apply_registered_oracle(payload: bytes) -> bytes:
    """Worker task of the encoded transport: one batch, blob to blob.

    ``payload`` is a SEGMENTS payload (generation token, batch id, the
    batch's packed segments back to back); the reply is the RESULTS
    payload of the oracle's outputs, still in the flat wire format so
    the parent can defer (and usually skip) decoding.
    """
    generation, batch_id, segments = unpack_segments_payload(payload)
    entry = _require_worker_oracle(generation)
    return pack_results_payload(
        batch_id, [pack_segment(entry(seg)) for seg in segments]
    )


def _take(slots, round_id: int, count: int, child: Optional[int] = None) -> int:
    """The next index of round ``round_id`` in a claim cell's ``slots``
    (lock held), counted to ``child``; -1 once it ran out or closed."""
    if slots[0] != round_id or slots[1] >= count:
        return -1
    slots[1] += 1
    if child is not None:
        slots[2 + child] += 1
    return slots[1] - 1


def _answer_claims(task: tuple) -> tuple:
    """Worker task of a claim round ``(round id, generation, (RowTable,
    positions) parts, each segment's (part, start, end))``: run claimed
    segments through ``run_ids`` until the cell runs out; reply each
    part's new values and ``(index, None if unchanged else positions)``."""
    round_id, generation, parts, where = task
    lock, slots, child, parent = _WORKER_CELL
    answers = []
    while True:
        while not lock.acquire(timeout=CELL_LOCK_TIMEOUT):
            if os.getppid() != parent:  # the caller died holding the lock
                raise EOFError("the pool's parent is gone")
        try:
            index = _take(slots, round_id, len(where), child)
        finally:
            lock.release()
        if index < 0:
            return [rows.values for rows, _ in parts], answers
        _require_worker_oracle(generation)
        part, start, end = where[index]
        rows, positions = parts[part]
        ids = positions[start:end]
        out = _WORKER_ORACLE.run_ids(ids, rows)
        answers.append((index, None if out is ids else out))


def _serve(conn, parent_end, oracle: Optional[Oracle], generation: int, cell) -> None:
    """A pool child: answer ``(fn, items, round id)`` messages with
    ``(True, outputs, round id)`` or ``(False, exception, round id)``
    until ``None`` or the parent's end closes (before a late reply too)."""
    global _WORKER_CELL
    parent_end.close()  # the forked copy would keep EOF from ever arriving
    _register_worker_oracle(oracle, generation)
    _WORKER_CELL = (*cell, os.getppid())
    with contextlib.suppress(EOFError, BrokenPipeError, KeyboardInterrupt):
        for fn, items, round_id in iter(conn.recv, None):
            try:
                reply = True, [fn(item) for item in items], round_id
            except Exception as exc:  # the task's failure, the parent's to raise
                reply = False, exc, round_id
            conn.send(reply)


def _attach_worker_arena(name: str, keep: tuple[str, ...] = ()):
    """Attach (or fetch the cached attachment of) arena ``name``.

    ``keep`` names arenas the current task still references; eviction
    (bounded cache, arena names are never reused) skips them so their
    mapped buffers stay valid for the rest of the task.
    """
    block = _WORKER_ARENAS.get(name)
    if block is None:
        if len(_WORKER_ARENAS) >= _WORKER_ARENA_CACHE_LIMIT:
            for stale_name in list(_WORKER_ARENAS):
                if stale_name not in keep:
                    try:
                        _WORKER_ARENAS.pop(stale_name).close()
                    except BufferError:  # pragma: no cover - view still alive
                        pass
        block = shm.attach_arena(name)
        _WORKER_ARENAS[name] = block
    return block


def _apply_oracle_shm(
    task: tuple[str, str, int, int, int, int],
) -> list[bytes | None]:
    """Run the registered oracle over one batch of arena segments.

    ``task`` is ``(input arena, result arena, round id, oracle
    generation, start, end)``.  Inputs are sliced zero-copy out of the
    input arena; each encoded result is packed into the segment's
    reserved region of the result arena when it fits (returning
    ``None`` as an "in the arena" marker) and returned through the pipe
    as packed bytes only on overflow.
    """
    in_name, out_name, round_id, generation, start, end = task
    entry = _require_worker_oracle(generation)
    keep = (in_name, out_name)
    in_buf = _attach_worker_arena(in_name, keep).buf
    out_buf = _attach_worker_arena(out_name, keep).buf
    n = shm.check_round(in_buf, round_id, in_name)
    shm.check_round(out_buf, round_id, out_name)
    offsets = shm.read_input_directory(in_buf, n)
    regions = shm.read_result_directory(out_buf, n)
    results: list[bytes | None] = []
    for i in range(start, end):
        encoded, _ = unpack_segment_from(in_buf, int(offsets[i]))
        out = pack_segment(entry(encoded))
        offset, capacity = int(regions[i, 0]), int(regions[i, 1])
        if len(out) <= capacity:
            out_buf[offset : offset + len(out)] = out
            results.append(None)
        else:  # oracle grew the segment past the reserved slack
            results.append(out)
    return results


class _PickledOracleCall:
    """Picklable oracle-application wrapper.

    The pickle transport ships one of these with every chunk (the seed
    behaviour, kept as the benchmark baseline).
    """

    __slots__ = ("oracle",)

    def __init__(self, oracle: Oracle):
        self.oracle = oracle

    def __call__(self, segment: list[Gate]) -> list[Gate]:
        return self.oracle(segment)


# -- parent side ---------------------------------------------------------------


def _payload(segments, generation: int, k: int, start: int, end: int) -> bytes:
    """Batch ``k`` as one SEGMENTS payload of the packed bytes a cache
    front already took its keys from."""
    packed = [seg.packed_bytes() for seg in segments[start:end]]
    return join_segments_payload(generation, k, packed)


def _unpacked(pairs, stats) -> list:
    """Lazy results of a RESULTS payload's ``(length, blob)`` pairs."""
    return [LazySegmentResult.from_packed(blob, stats, n) for n, blob in pairs]


def _distinct_rows(ids: Sequence[np.ndarray], size: int) -> tuple:
    """``np.unique(concatenated ids, return_inverse=True)`` (positions as
    int32), without its sort: presence and remap arrays over ``size``."""
    flat = np.concatenate(ids)
    present = np.zeros(size, dtype=bool)
    present[flat] = True
    rows = np.flatnonzero(present)
    remap = np.empty(size, dtype=np.int32)
    remap[rows] = np.arange(len(rows), dtype=np.int32)
    return rows.astype(flat.dtype, copy=False), remap[flat]


def _by_id(oracle, segments) -> bool:
    """Whether a round is an id round: all segments ids, and the oracle
    with an id entry."""
    run_ids = getattr(oracle, "run_ids", None)
    return run_ids is not None and all(seg.interned is not None for seg in segments)


def _claim_parts(segments) -> tuple:
    """A claim round's parts, one per table (a daemon's round can span a
    table rotation): distinct rows as a ``RowTable`` and positions into
    them; each segment's ``(part, start, end)``; each part's ``(table,
    rows)``."""
    by_table: dict = {}
    for i, seg in enumerate(segments):
        by_table.setdefault(seg.interned[1], []).append(i)
    parts, tables, where = [], [], [None] * len(segments)
    for part, (table, members) in enumerate(by_table.items()):
        ids = [segments[i].interned[0] for i in members]
        rows, positions = _distinct_rows(ids, len(table))
        ends = np.cumsum([len(seg) for seg in ids]).tolist()
        for i, start, end in zip(members, [0] + ends, ends):
            where[i] = (part, start, end)
        parts.append((table.row_table(rows), positions))
        tables.append((table, rows))
    return parts, where, tables


def _received(results: list, replies: list, where: list, tables: list) -> None:
    """The children's claim replies into ``results``, as ids of the
    parent's tables; a segment answered unchanged keeps its input."""
    for values, answers in replies:
        lookups = [
            (table, np.concatenate([rows, np.array(table.value_ids(new), rows.dtype)]))
            for (table, rows), new in zip(tables, values)
        ]
        for i, out in answers:
            if out is not None:
                table, lookup = lookups[where[i][0]]
                results[i] = LazySegmentResult.from_ids(lookup[out], table)


def _answer_here(oracle, segments, stats) -> list:
    """Segments answered by the caller as by a child: ids straight through
    ``run_ids`` on their tables, else by the wire entry (``stats`` counts)."""
    if _by_id(oracle, segments):
        return [_answer_one(oracle, seg) for seg in segments]
    entry = wire_entry(oracle)
    return [LazySegmentResult.from_encoded(entry(s.encoded()), stats) for s in segments]


def _answer_one(oracle, seg) -> LazySegmentResult:
    """One id segment answered in the caller, on its own table."""
    ids, table = seg.interned
    return LazySegmentResult.from_ids(oracle.run_ids(ids, table), table)


def _stop_children(conns: list, procs: list) -> None:
    """Ask every child to stop, close the pipes, reap the children."""
    for conn in conns:
        with contextlib.suppress(OSError):  # that child is gone already
            conn.send(None)
        conn.close()
    for proc in procs:
        proc.join()


#: Seconds between a stream's checks, while it waits for the claim cell's
#: lock, that no process died holding it.
CELL_LOCK_TIMEOUT = 0.5
#: Round ids, unique in the process: a reply carries its round's.
_ROUND_IDS = itertools.count(1)


class _Children:
    """``count`` children of the multiprocessing default context, each
    serving ``(fn, items, round id)`` messages on a pipe of its own
    (:func:`_serve`), and their claim cell, ``[round id, next index,
    claims per child]`` under one lock.  A reply of an earlier round (a
    child woken after its claim round closed) is dropped."""

    def __init__(self, count: int, oracle: object, generation: int):
        context = multiprocessing.get_context()
        self._lock, self._slots = context.Lock(), context.RawArray("q", 2 + count)
        self._conns, self._procs, self._round = [], [], 0
        for child in range(count):
            ours, theirs = context.Pipe()
            args = theirs, ours, oracle, generation, (self._lock, self._slots, child)
            proc = context.Process(target=_serve, args=args, daemon=True)
            proc.start()
            theirs.close()
            self._conns.append(ours)
            self._procs.append(proc)
        self._stop = weakref.finalize(self, _stop_children, self._conns, self._procs)

    def _begin(self, round_id: int) -> None:
        """Make ``round_id`` current, dropping the replies waiting (each
        child adds at most one a round, so none piles up)."""
        self._round = round_id
        for conn in wait(self._conns, 0) if self._conns else ():
            self._read(conn)

    def _read(self, conn) -> Optional[tuple]:
        """``(ok, value)`` of ``conn``'s reply, ``None`` if it is stale."""
        ok, value, round_id = conn.recv()
        return (ok, value) if round_id == self._round else None

    @contextlib.contextmanager
    def _cell(self):
        """The cell's slots under its lock, waited for in bounded steps:
        a child dead while one runs out breaks the pool."""
        while not self._lock.acquire(timeout=CELL_LOCK_TIMEOUT):
            if not all(proc.is_alive() for proc in self._procs):
                raise BrokenProcessPool("a pool child died holding the claim cell")
        try:
            yield self._slots
        finally:
            self._lock.release()

    @contextlib.contextmanager
    def _breaking(self):
        """A dead child, or an interrupt, mid-round stops all."""
        try:
            yield
        except BaseException as exc:
            self.shutdown(wait=False)
            if isinstance(exc, (EOFError, OSError)):
                raise BrokenProcessPool("a pool child terminated abruptly") from exc
            raise

    def run(self, count: int, message: Callable, here: Optional[Callable]) -> list:
        """Replies to ``message(k)``, ``k < count``, each dealt to a free
        child or, when none is, run as ``here(k)`` (reply ``None``).  A
        failure is raised once the outstanding replies are read, leaving
        none for the next round; a dead child stops all (BrokenProcessPool)."""
        replies: list = [None] * count
        pending, idle, busy = deque(range(count)), list(self._conns), {}
        failure: Optional[BaseException] = None
        with self._breaking():
            self._begin(round_id := next(_ROUND_IDS))
            while busy or (pending and failure is None):
                while idle and pending and failure is None:
                    conn, k = idle.pop(), pending.popleft()
                    conn.send((*message(k), round_id))
                    busy[conn] = k
                mine = here is not None and pending and failure is None
                if mine:
                    try:
                        here(pending.popleft())
                    except Exception as exc:
                        failure = exc
                for conn in wait(list(busy), 0 if mine else None) if busy else ():
                    if (reply := self._read(conn)) is None:
                        continue
                    k = busy.pop(conn)
                    ok, replies[k] = reply
                    idle.append(conn)
                    if not ok and failure is None:
                        failure = replies[k]
        if failure is not None:
            raise failure
        return replies

    def claim(
        self, round_id: int, count: int, data: bytes, here: Optional[Callable]
    ) -> list:
        """Claim round ``round_id`` of ``count`` segments: each child gets
        ``data`` (an :func:`_answer_claims` message), and every stream —
        ``here(index)`` too, if given — takes indices until none is left.
        Then the round closes and the children that claimed are awaited
        for their ``(values, answers)``.  A failure closes it at once."""
        replies: dict = {}
        failure: Optional[BaseException] = None

        def gather(conns: set, enough: Callable) -> None:
            while not enough():
                for conn in wait(list(conns - replies.keys())):
                    if (reply := self._read(conn)) is not None:
                        replies[conn] = reply

        with self._breaking():
            with self._cell() as slots:  # open the round
                self._begin(round_id)
                slots[:] = [round_id, 0] + [0] * len(self._conns)
            for conn in self._conns:
                conn.send_bytes(data)
            while here is not None and failure is None:
                with self._cell() as slots:
                    index = _take(slots, round_id, count)
                if index < 0:
                    break
                try:
                    here(index)
                except Exception as exc:
                    failure = exc
            if here is None:  # a first reply: the cell ran out, or a child failed
                gather(set(self._conns), lambda: replies)
            with self._cell() as slots:  # close it
                slots[1] = count
                owed = {conn for c, conn in enumerate(self._conns) if slots[2 + c]}
            gather(owed, lambda: owed <= replies.keys())
        failure = failure or next((v for ok, v in replies.values() if not ok), None)
        if failure is not None:
            raise failure
        return [value[0] for _, value in replies.values()]

    def shutdown(self, wait: bool = True) -> None:
        """Stop the children after their current message (``wait``) or now."""
        for proc in () if wait else self._procs:
            proc.terminate()
        self._stop()


class WorkerPool:
    """Children with one oracle installed, the base of the pool transports.

    A round runs on :attr:`workers` streams: that many children, or the
    caller and one child fewer (:attr:`caller_computes`).  A new oracle
    bumps :attr:`generation` and forks new children; tasks carry the
    token and a child refuses a mismatch (:class:`StaleOracleError`).
    By-value batches are dealt to free streams; an id round is claimed."""

    #: Whether the caller computes too (by-value batches whenever no
    #: child is free); a placement-measuring ProcessMap sets it.
    caller_computes = False

    def __init__(self, workers: int, decode_stats: Optional[DecodeStats] = None):
        self.workers = workers
        self.generation = 0
        self._stats = decode_stats
        self._pool: Optional[_Children] = None
        self._oracle: object = None

    def _ensure(self, oracle: object) -> bool:
        """Make the children serve ``oracle``; returns whether they did."""
        if self._pool is not None:
            if self._oracle is oracle:
                return True
            self._pool.shutdown(wait=True)
        self.generation += 1
        count = self.workers - self.caller_computes
        self._pool = _Children(count, oracle, self.generation)
        self._oracle = oracle
        return False

    def _round(self, oracle, segments, plan: Plan, fn, task, receive, warm: bool):
        """Batch ``k``: ``fn`` over the items ``task(k)`` on a child, read
        by ``receive(k, outputs)``, or :func:`_answer_here` on the caller.
        Building tasks is serialization; broken children are dropped."""
        out: list = [None] * len(plan)
        serialization = 0.0

        def message(k: int) -> tuple:
            nonlocal serialization
            began = time.perf_counter()
            items = task(k)
            serialization += time.perf_counter() - began
            return fn, items

        def mine(k: int) -> None:
            out[k] = _answer_here(oracle, segments[slice(*plan[k])], self._stats)

        started = time.perf_counter()
        here = mine if self.caller_computes else None
        replies = self._pool_call(self._pool.run, len(out), message, here)
        for k, reply in enumerate(replies):
            if reply is not None:
                out[k] = receive(k, reply)
        seconds = time.perf_counter() - started - serialization
        results = [res for batch in out for res in batch]
        return results, serialization, seconds if warm else None

    def _pool_call(self, call: Callable, *args) -> list:
        """``call(*args)``, a round of the children's; children a failed
        round stopped are dropped, so the next round respawns them."""
        try:
            return call(*args)
        except BaseException:
            if not self._pool._stop.alive:  # the round stopped the children
                self._pool = self._oracle = None
            raise

    def counters(self) -> dict:
        """A bare pool counts nothing of its own."""
        return {}

    def close(self) -> None:
        """Stop the children (safe to call twice)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = self._oracle = None


class PickleTransport(WorkerPool):
    """The seed behaviour: oracle and gate lists pickled on every call
    (the copy a child installs at start-up goes unused)."""

    def run_round(self, oracle, segments, plan) -> RoundResult:
        """One message per batch: the oracle and the batch's gate lists."""
        return self._round(
            oracle,
            segments,
            plan,
            _PickledOracleCall(oracle),
            lambda k: [seg.gates() for seg in segments[slice(*plan[k])]],
            lambda k, outs: list(map(LazySegmentResult.from_gates, outs)),
            self._ensure(oracle),
        )


class EncodedTransport(WorkerPool):
    """Persistent workers: an id round is one claim round, any other
    round one packed blob per batch through the pipe."""

    def run_round(self, oracle, segments, plan) -> RoundResult:
        """A ``bytes`` object per batch each way — one pickle of one
        buffer — split on header reads alone."""
        warm = self._ensure(oracle)

        def task(k: int) -> list:
            return [_payload(segments, self.generation, k, *plan[k])]

        def receive(k: int, replies: list) -> list:
            return _unpacked(iter_results_payload(replies[0], k), self._stats)

        return self._round(
            oracle, segments, plan, _apply_registered_oracle, task, receive, warm
        )

    def claim_round(self, oracle, segments) -> tuple[list, float]:
        """An id round (:func:`_by_id`) as one claim round, nothing encoded
        or packed: the results in order and the seconds spent building
        and pickling its message."""
        self._ensure(oracle)
        results, began, round_id = list(segments), time.perf_counter(), next(_ROUND_IDS)
        parts, where, tables = _claim_parts(segments)
        task = round_id, self.generation, parts, where
        data = pickle.dumps((_answer_claims, [task], round_id), pickle.HIGHEST_PROTOCOL)
        serialization = time.perf_counter() - began

        def here(i: int) -> None:
            results[i] = _answer_one(oracle, segments[i])

        args = round_id, len(segments), data, here if self.caller_computes else None
        _received(results, self._pool_call(self._pool.claim, *args), where, tables)
        return results, serialization


class ShmTransport(WorkerPool):
    """Zero-copy rounds through a ring of shared-memory arenas.

    Segments are packed into one pooled input arena, results come back
    through a result arena with parent-reserved regions, and the pool
    dispatch is one task per batch — the pipe carries only small
    descriptor tuples.  :attr:`arenas` is the ring
    (:class:`~repro.parallel.shm.ShmArenaPool`); ``arenas.ring_bytes``
    is its current capacity.
    """

    def __init__(self, workers: int, decode_stats: Optional[DecodeStats] = None):
        super().__init__(workers, decode_stats)
        self.arenas = shm.ShmArenaPool()
        self._round_id = 0

    def run_round(self, oracle, segments, plan) -> RoundResult:
        """One round through a freshly acquired arena pair."""
        t0 = time.perf_counter()
        encoded = [seg.encoded() for seg in segments]
        sizes = shm.packed_sizes(encoded)
        ser = time.perf_counter() - t0

        in_offsets, in_total = shm.input_arena_layout(sizes)
        out_regions, out_total = shm.result_arena_layout(sizes)
        in_block = self.arenas.acquire(in_total)
        try:
            out_block = self.arenas.acquire(out_total)
        except BaseException:
            # arena exhaustion between the two acquires (e.g. ENOSPC on
            # /dev/shm): hand the first block back before propagating
            self.arenas.release(in_block)
            raise
        self._round_id += 1
        round_id = self._round_id
        round_ok = False
        try:
            t0 = time.perf_counter()
            shm.write_input_arena(in_block.buf, round_id, encoded, in_offsets)
            shm.write_result_directory(out_block.buf, round_id, out_regions)
            ser += time.perf_counter() - t0

            warm = self._ensure(oracle)

            def receive(k: int, replies: list) -> list:
                # Copy each packed result out of the arena (header-sized
                # span read + one memcpy) so the block can be recycled;
                # decoding stays lazy and usually never happens.
                results, buf = [], out_block.buf
                for marker, (at, _) in zip(replies[0], out_regions[slice(*plan[k])]):
                    if marker is None:
                        length, stop = packed_segment_span(buf, at)
                        marker = bytes(buf[at:stop])
                    else:  # overflow fallback: result came through the pipe
                        length = None
                    results.append(
                        LazySegmentResult.from_packed(marker, self._stats, length)
                    )
                return results

            names = in_block.name, out_block.name, round_id, self.generation
            results, packing, pool_seconds = self._round(
                oracle,
                segments,
                plan,
                _apply_oracle_shm,
                lambda k: [(*names, *plan[k])],
                receive,
                warm,
            )
            ser += packing
            round_ok = True
        finally:
            if round_ok:
                self.arenas.release(in_block)
                self.arenas.release(out_block)
            else:
                # a failed round may leave straggler tasks writing into
                # the arenas: never recycle them
                self.arenas.discard(in_block)
                self.arenas.discard(out_block)
        return results, ser, pool_seconds

    def counters(self) -> dict:
        """Arena-ring behaviour: blocks created vs. rounds served by
        recycling an existing block."""
        return {
            "arena_allocations": self.arenas.allocations,
            "arena_reuses": self.arenas.reuses,
        }

    def close(self) -> None:
        """Shut the pool down and unlink every arena."""
        super().close()
        self.arenas.close()


class ThreadsTransport:
    """Oracle calls on a shared thread pool: no pipes, no arenas.

    Workers share the parent's address space, so nothing is serialized
    and the oracle needs no registration or generation token; the
    plan's batch widths are ignored — one pool task per segment, on
    the gate lists directly: encoding inputs just to win lazy result
    decode costs more than it saves here, unlike the process
    transports, where the bytes must exist anyway.  Per-task durations
    are summed against pool wall seconds (``thread_task_seconds`` /
    ``thread_wall_seconds``): their ratio estimates effective thread
    concurrency, i.e. how much GIL the oracle released.
    """

    def __init__(self, workers: int, decode_stats: Optional[DecodeStats] = None):
        self.workers = workers
        self.task_seconds = 0.0
        self.wall_seconds = 0.0
        self._pool: Optional[ThreadPoolExecutor] = None

    def run_round(self, oracle, segments, plan) -> RoundResult:
        """One pool task per segment, each timed."""
        warm = self._pool is not None
        if not warm:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        t_round = time.perf_counter()

        def task(gates):
            started = time.perf_counter()
            out = oracle(gates)
            return out, time.perf_counter() - started

        outs = list(self._pool.map(task, [seg.gates() for seg in segments]))
        results = [LazySegmentResult.from_gates(out) for out, _ in outs]
        wall = time.perf_counter() - t_round
        self.wall_seconds += wall
        self.task_seconds += sum(seconds for _, seconds in outs)
        return results, 0.0, wall if warm else None

    def counters(self) -> dict:
        """Summed per-task oracle seconds vs. pool wall seconds."""
        return {
            "thread_task_seconds": self.task_seconds,
            "thread_wall_seconds": self.wall_seconds,
        }

    def close(self) -> None:
        """Shut the thread pool down (safe to call twice) without waiting
        for calls in flight: a thread cannot be stopped, and a daemon's
        ``stop()`` must not wait on an oracle that never returns."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None


class SocketTransport:
    """Packed batches as frames over TCP to ``popqc worker`` hosts.

    Batches are round-robined across the connected hosts by
    :meth:`~repro.parallel.hostpool.SocketHostPool.run_round`; results
    come back as packed RESULTS frames and wrap into lazy handles like
    every other transport's.  The oracle crosses the wire once per
    host per registration (generation-tagged, exactly like the
    oracle a pool child installs as it starts).  The one elastic transport:
    :meth:`add_host` / :meth:`remove_host` grow and shrink the fleet —
    and with it :attr:`workers`, the fan-out rounds are planned for —
    which is how the optimization service's autoscaler scales.
    """

    _IDLE_COUNTERS = {
        "socket_bytes_sent": 0,
        "socket_bytes_received": 0,
        "socket_reconnects": 0,
        "socket_steals": 0,
        "socket_host_segments": {},
        "socket_host_seconds": {},
    }

    def __init__(
        self,
        workers: int,
        decode_stats: Optional[DecodeStats],
        hosts: list[str],
        auth_token: Optional[str] = None,
    ):
        self.workers = workers
        #: Worker host addresses; edited in place as hosts join and leave.
        self.hosts = hosts
        self.auth_token = auth_token
        self.generation = 0
        self._stats = decode_stats
        self._pool: Optional[SocketHostPool] = None  # built by the first round
        self._oracle: object = None

    def add_host(self, address: str) -> None:
        """Add a worker host: it joins the configured list (and the
        live pool, if one is built) and widens the fan-out, so the next
        round deals work to it."""
        self.hosts.append(address)
        self.workers += 1
        if self._pool is not None:
            self._pool.add_host(address)

    def remove_host(self, address: str) -> None:
        """Retire one worker host from the list and the live pool
        (closing its connection, so a round in flight drains through
        the requeue-and-steal path).  The fan-out never drops below one
        worker."""
        if address in self.hosts:
            self.hosts.remove(address)
            self.workers = max(1, self.workers - 1)
        if self._pool is not None:
            self._pool.remove_host(address)

    def run_round(self, oracle, segments, plan) -> RoundResult:
        """One round of SEGMENTS frames across the live hosts."""
        if self._pool is None:
            self._pool = SocketHostPool(self.hosts, auth_token=self.auth_token)
        warm = self._oracle is oracle
        if warm:
            self._pool.ensure_ready()
        else:
            self.generation += 1
            self._pool.register(oracle, self.generation)
            self._oracle = oracle
        started = time.perf_counter()
        batches = [
            (k, end - start, _payload(segments, self.generation, k, start, end))
            for k, (start, end) in enumerate(plan)
        ]
        packed = time.perf_counter()
        replies = self._pool.run_round(batches)
        seconds = time.perf_counter() - packed
        results = [res for pairs in replies for res in _unpacked(pairs, self._stats)]
        return results, packed - started, seconds if warm else None

    def counters(self) -> dict:
        """The host pool's wire and per-host figures (zeros until the
        first round builds the pool)."""
        if self._pool is None:
            return dict(self._IDLE_COUNTERS)
        return self._pool.counters()

    def close(self) -> None:
        """Close every host connection and drop the registry (the
        worker hosts keep running)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = self._oracle = None


#: ``transport=`` name → the class that implements it.
TRANSPORTS: dict[str, type] = {
    "shm": ShmTransport,
    "encoded": EncodedTransport,
    "pickle": PickleTransport,
    "threads": ThreadsTransport,
    "socket": SocketTransport,
}
