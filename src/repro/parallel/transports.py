"""The oracle transports: how one round reaches the workers.

:class:`~repro.parallel.ProcessMap` decides *whether* a round leaves
the parent (the inline floor, ``serial_cutoff``); a :class:`Transport`
decides *how the bytes travel*.  Each wire format is one small class
with its own state and counters, and :data:`TRANSPORTS` is the
registry ``transport=`` names are looked up in:

* ``"encoded"`` (default) — the oracle is registered once per child.
  An id round (ids of a table, an oracle with ``run_ids``: every
  ``popqc`` round of a ``NamOracle``) sends the round's distinct rows
  and every segment's positions; any other round every segment's
  packed bytes;
* ``"shm"`` — every round's segments are packed into one pooled
  shared-memory arena (:mod:`repro.parallel.shm`) and the pipe carries
  only the arenas' names; each answer goes into its reserved region;
* ``"pickle"`` — the seed behaviour, kept as the benchmark baseline:
  the oracle and every ``list[Gate]`` are pickled on every round;
* ``"threads"`` — no pipes, no arenas: oracle calls run on a thread
  pool over the parent's own gate lists, which pays off only when
  the oracle releases the GIL;
* ``"socket"`` — packed bytes, cut into balance-only
  :func:`~repro.parallel.scheduling.batch_segments` batches, as
  length-prefixed frames over TCP to ``popqc worker`` hosts
  (:mod:`repro.parallel.hostpool`), each host claiming the next batch
  as it frees up, with heartbeat,
  reconnect-and-requeue on host failure and the generation-token
  protocol over the wire.

The three pool-backed formats share :class:`WorkerPool`: children on a
pipe each, the generation token every message carries (so a stale child
fails loudly, :class:`StaleOracleError`), the respawn after a crash,
and the claim round every pooled round is: one message per child, the
transport's, and every stream (the caller too, when it computes) takes
the next segment from a shared cell until none is left.
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
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait
from typing import Callable, Optional, Protocol, Sequence

import numpy as np

from ..circuits.encoding import pack_segment, packed_segment_span, unpack_segment_from
from ..circuits.gate import Gate
from . import shm
from .frames import StaleOracleError, join_segments_payload
from .hostpool import SocketHostPool
from .results import DecodeStats, LazySegmentResult
from .scheduling import batch_segments
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

#: What :meth:`Transport.run_round` returns: the lazy results in
#: segment order and the parent-side seconds spent serializing.
RoundResult = tuple[list[LazySegmentResult], float]


class Transport(Protocol):
    """What :class:`~repro.parallel.ProcessMap` needs from a wire format."""

    workers: int

    def run_round(
        self, oracle: Oracle, segments: Sequence[LazySegmentResult]
    ) -> RoundResult:
        """Apply ``oracle`` to every segment, preserving order."""
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
# for it; every message is tagged with the generation.

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


def _take(slots, round_id: int, count: int, child: Optional[int] = None) -> int:
    """The next index of round ``round_id`` in a claim cell's ``slots``
    (lock held), counted to ``child``; -1 once it ran out or closed."""
    if slots[0] != round_id or slots[1] >= count:
        return -1
    slots[1] += 1
    if child is not None:
        slots[2 + child] += 1
    return slots[1] - 1


def _claimed(round_id: int, generation: int, count: int, answer: Callable) -> list:
    """``(index, answer(index))`` for every index of round ``round_id``
    (``count`` segments) this child takes from the cell, until it runs
    out or closes."""
    lock, slots, child, parent = _WORKER_CELL
    answers = []
    while True:
        while not lock.acquire(timeout=CELL_LOCK_TIMEOUT):
            if os.getppid() != parent:  # the caller died holding the lock
                raise EOFError("the pool's parent is gone")
        try:
            index = _take(slots, round_id, count, child)
        finally:
            lock.release()
        if index < 0:
            return answers
        _require_worker_oracle(generation)
        answers.append((index, answer(index)))


def _answer_claims(task: tuple) -> tuple:
    """Answer step of an id round ``(round id, generation, (RowTable,
    positions) parts, each segment's (part, start, end))``: claimed
    segments through ``run_ids``; reply each part's new values and
    ``(index, None if unchanged else positions)``."""
    round_id, generation, parts, where = task

    def answer(index: int):
        part, start, end = where[index]
        rows, positions = parts[part]
        ids = positions[start:end]
        out = _WORKER_ORACLE.run_ids(ids, rows)
        return None if out is ids else out

    answers = _claimed(round_id, generation, len(where), answer)
    return [rows.values for rows, _ in parts], answers


def _answer_packed(task: tuple) -> list:
    """Answer step of a by-value ``encoded`` round ``(round id,
    generation, each segment's packed bytes)``: ``(index, packed
    result)``, still in the flat wire format so the parent can defer
    (and usually skip) decoding."""
    round_id, generation, blobs = task

    def answer(index: int) -> bytes:
        return pack_segment(_WORKER_ENTRY(unpack_segment_from(blobs[index])[0]))

    return _claimed(round_id, generation, len(blobs), answer)


def _answer_pickled(task: tuple) -> list:
    """Answer step of a ``pickle`` round ``(round id, generation, oracle,
    gate lists)``: ``(index, the shipped oracle's gate list)``."""
    round_id, generation, oracle, segments = task
    return _claimed(round_id, generation, len(segments), lambda i: oracle(segments[i]))


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


def _answer_in_arena(task: tuple) -> list:
    """Answer step of an ``shm`` round ``(round id, generation, segment
    count, input arena, result arena)``.  The arenas are attached on the
    first claim (a child late for its round maps nothing); inputs are
    sliced zero-copy out of the input arena, and each packed result goes
    into the segment's reserved region of the result arena when it fits
    (answer ``None``), else back through the pipe as bytes."""
    round_id, generation, count, in_name, out_name = task
    arena: list = []

    def answer(index: int) -> Optional[bytes]:
        if not arena:
            keep = in_name, out_name
            in_buf = _attach_worker_arena(in_name, keep).buf
            out_buf = _attach_worker_arena(out_name, keep).buf
            shm.check_round(in_buf, round_id, in_name)
            shm.check_round(out_buf, round_id, out_name)
            offsets = shm.read_input_directory(in_buf, count)
            regions = shm.read_result_directory(out_buf, count)
            arena.extend((in_buf, out_buf, offsets, regions))
        in_buf, out_buf, offsets, regions = arena
        encoded, _ = unpack_segment_from(in_buf, int(offsets[index]))
        out = pack_segment(_WORKER_ENTRY(encoded))
        offset, capacity = int(regions[index, 0]), int(regions[index, 1])
        if len(out) > capacity:  # oracle grew the segment past the reserved slack
            return out
        out_buf[offset : offset + len(out)] = out
        return None

    return _claimed(round_id, generation, count, answer)


def _serve(conn, parent_end, oracle: Optional[Oracle], generation: int, cell) -> None:
    """A pool child: answer ``(step, task, round id)`` messages with
    ``(True, step(task), round id)`` or ``(False, exception, round id)``
    until ``None`` or the parent's end closes (before a late reply too)."""
    global _WORKER_CELL
    parent_end.close()  # the forked copy would keep EOF from ever arriving
    _register_worker_oracle(oracle, generation)
    _WORKER_CELL = (*cell, os.getppid())
    with contextlib.suppress(EOFError, BrokenPipeError, KeyboardInterrupt):
        for step, task, round_id in iter(conn.recv, None):
            try:
                reply = True, step(task), round_id
            except Exception as exc:  # the task's failure, the parent's to raise
                reply = False, exc, round_id
            conn.send(reply)


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
    """An id round's parts, one per table (a daemon's round can span a
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
    """The children's id-round replies into ``results``, as ids of the
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


def _each(result: Callable) -> Callable:
    """A by-value round's receive: each child answer ``(index, out)``
    becomes ``results[index] = result(index, out)``."""

    def receive(results: list, replies: list) -> None:
        for answers in replies:
            for i, out in answers:
                results[i] = result(i, out)

    return receive


def _answer_one(oracle, seg) -> LazySegmentResult:
    """One id segment answered in the caller, on its own table."""
    ids, table = seg.interned
    return LazySegmentResult.from_ids(oracle.run_ids(ids, table), table)


def _answer_here(oracle, segments, stats) -> Callable:
    """How the caller answers segment ``i`` of a round: by id on the
    segment's own table when it is an id round, else through the oracle's
    wire entry (``stats`` counts the result)."""
    if _by_id(oracle, segments):
        return lambda i: _answer_one(oracle, segments[i])
    entry = wire_entry(oracle)
    return lambda i: LazySegmentResult.from_encoded(entry(segments[i].encoded()), stats)


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
    serving ``(step, task, round id)`` messages on a pipe of its own
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

    def claim(
        self, round_id: int, count: int, data: bytes, here: Optional[Callable]
    ) -> list:
        """Claim round ``round_id`` of ``count`` segments: each child gets
        ``data`` (a pickled ``(step, task, round id)`` message), and every
        stream — ``here(index)`` too, if given — takes indices until none
        is left.  Then the round closes and the children that claimed are
        awaited for their replies.  A failure closes it at once."""
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
        return [value for _, value in replies.values()]

    def shutdown(self, wait: bool = True) -> None:
        """Stop the children after their current message (``wait``) or now."""
        for proc in () if wait else self._procs:
            proc.terminate()
        self._stop()


class WorkerPool:
    """Children with one oracle installed, the base of the pool transports.

    A round runs on :attr:`workers` streams: that many children, or the
    caller and one child fewer (:attr:`caller_computes`).  A new oracle
    bumps :attr:`generation` and forks new children; messages carry the
    token and a child refuses a mismatch (:class:`StaleOracleError`).
    Every round is a claim round; a subclass's :meth:`_claims` says what
    its message holds and how the children's answers are read."""

    #: Whether the caller computes too (a stream taking segments like a
    #: child); a default-cutoff ProcessMap sets it.
    caller_computes = False

    def __init__(self, workers: int, decode_stats: Optional[DecodeStats] = None):
        self.workers = workers
        self.generation = 0
        self._stats = decode_stats
        self._pool: Optional[_Children] = None
        self._oracle: object = None

    def _ensure(self, oracle: object) -> None:
        """Make the children serve ``oracle``."""
        if self._pool is not None:
            if self._oracle is oracle:
                return
            self._pool.shutdown(wait=True)
        self.generation += 1
        count = self.workers - self.caller_computes
        self._pool = _Children(count, oracle, self.generation)
        self._oracle = oracle

    def _claims(self, oracle, segments, round_id: int):
        """A context yielding round ``round_id``'s ``(step, task,
        receive)``: the children run ``step(task)``, and ``receive(results,
        replies)`` writes their answers into ``results``."""
        raise NotImplementedError  # pragma: no cover - each transport has one

    def run_round(self, oracle, segments) -> RoundResult:
        """One claim round: every child gets the same message, pickled
        once (building it is serialization), and every stream takes the
        next segment until none is left.  The caller answers by id where
        it can, else through the oracle's wire entry."""
        self._ensure(oracle)
        began, round_id = time.perf_counter(), next(_ROUND_IDS)
        results, answer = list(segments), _answer_here(oracle, segments, self._stats)

        def here(i: int) -> None:
            results[i] = answer(i)

        with self._claims(oracle, segments, round_id) as (step, task, receive):
            data = pickle.dumps((step, task, round_id), pickle.HIGHEST_PROTOCOL)
            serialization = time.perf_counter() - began
            args = round_id, len(segments), data, here if self.caller_computes else None
            receive(results, self._pool_call(self._pool.claim, *args))
        return results, serialization

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
    """The seed behaviour: the oracle and the gate lists pickled into
    every round's message (the copy a child installs at start-up goes
    unused)."""

    @contextlib.contextmanager
    def _claims(self, oracle, segments, round_id: int):
        """The oracle and every gate list; gate lists back."""
        task = round_id, self.generation, oracle, [seg.gates() for seg in segments]
        receive = _each(lambda _, out: LazySegmentResult.from_gates(out))
        yield _answer_pickled, task, receive


class EncodedTransport(WorkerPool):
    """Persistent workers: an id round's message is its distinct rows
    and positions, nothing encoded or packed; any other round's every
    segment's packed bytes."""

    @contextlib.contextmanager
    def _claims(self, oracle, segments, round_id: int):
        """Rows and positions for an id round (:func:`_by_id`), else the
        packed bytes a cache front already took its keys from."""
        if _by_id(oracle, segments):
            parts, where, tables = _claim_parts(segments)

            def receive(results: list, replies: list) -> None:
                _received(results, replies, where, tables)

            yield _answer_claims, (round_id, self.generation, parts, where), receive
        else:
            blobs = [seg.packed_bytes() for seg in segments]
            stats = self._stats
            receive = _each(lambda _, out: LazySegmentResult.from_packed(out, stats))
            yield _answer_packed, (round_id, self.generation, blobs), receive


class ShmTransport(WorkerPool):
    """Zero-copy rounds through a ring of shared-memory arenas.

    Segments are packed into one pooled input arena, results come back
    through a result arena with parent-reserved regions, and the pipe
    carries only the arenas' names.  :attr:`arenas` is the ring
    (:class:`~repro.parallel.shm.ShmArenaPool`); ``arenas.ring_bytes``
    is its current capacity.
    """

    def __init__(self, workers: int, decode_stats: Optional[DecodeStats] = None):
        super().__init__(workers, decode_stats)
        self.arenas = shm.ShmArenaPool()

    @contextlib.contextmanager
    def _claims(self, oracle, segments, round_id: int):
        """A freshly acquired arena pair, recycled after a clean round
        and never after a failed one (a straggler may still write)."""
        encoded = [seg.encoded() for seg in segments]
        sizes = shm.packed_sizes(encoded)
        in_offsets, in_total = shm.input_arena_layout(sizes)
        regions, out_total = shm.result_arena_layout(sizes)
        in_block = self.arenas.acquire(in_total)
        try:
            out_block = self.arenas.acquire(out_total)
        except BaseException:
            # arena exhaustion between the two acquires (e.g. ENOSPC on
            # /dev/shm): hand the first block back before propagating
            self.arenas.release(in_block)
            raise
        blocks = in_block, out_block
        try:
            shm.write_input_arena(in_block.buf, round_id, encoded, in_offsets)
            shm.write_result_directory(out_block.buf, round_id, regions)

            def result(i: int, marker: Optional[bytes]) -> LazySegmentResult:
                # Copy a packed result out of the arena (header-sized
                # span read + one memcpy) so the block can be recycled;
                # decoding stays lazy and usually never happens.
                length = None  # an overflow came through the pipe whole
                if marker is None:
                    at = int(regions[i][0])
                    length, stop = packed_segment_span(out_block.buf, at)
                    marker = bytes(out_block.buf[at:stop])
                return LazySegmentResult.from_packed(marker, self._stats, length)

            names = in_block.name, out_block.name
            task = round_id, self.generation, len(segments), *names
            yield _answer_in_arena, task, _each(result)
        except BaseException:
            for block in blocks:
                self.arenas.discard(block)
            raise
        for block in blocks:
            self.arenas.release(block)

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
    and the oracle needs no registration or generation token: one pool
    task per segment, on the gate lists directly — encoding inputs just
    to win lazy result decode costs more than it saves here, unlike the
    process transports, where the bytes must exist anyway.  Per-task
    durations are summed against pool wall seconds
    (``thread_task_seconds`` / ``thread_wall_seconds``): their ratio
    estimates effective thread concurrency, i.e. how much GIL the
    oracle released.
    """

    def __init__(self, workers: int, decode_stats: Optional[DecodeStats] = None):
        self.workers = workers
        self.task_seconds = 0.0
        self.wall_seconds = 0.0
        self._pool: Optional[ThreadPoolExecutor] = None

    def run_round(self, oracle, segments) -> RoundResult:
        """One pool task per segment, each timed."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        t_round = time.perf_counter()

        def task(gates):
            started = time.perf_counter()
            out = oracle(gates)
            return out, time.perf_counter() - started

        outs = list(self._pool.map(task, [seg.gates() for seg in segments]))
        results = [LazySegmentResult.from_gates(out) for out, _ in outs]
        self.wall_seconds += time.perf_counter() - t_round
        self.task_seconds += sum(seconds for _, seconds in outs)
        return results, 0.0

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

    A round is cut into balance-only batches
    (:func:`~repro.parallel.scheduling.batch_segments`, a few per
    host), which the connected hosts claim one at a time from
    :meth:`~repro.parallel.hostpool.SocketHostPool.run_round`'s queue;
    results come back as packed RESULTS frames and wrap into lazy
    handles like every other transport's.
    The oracle crosses the wire once per host per registration
    (generation-tagged, exactly like the oracle a pool child installs
    as it starts).  The one elastic transport: :meth:`add_host` /
    :meth:`remove_host` grow and shrink the fleet — and with it
    :attr:`workers`, the fan-out rounds are cut for — which is how the
    optimization service's autoscaler scales.
    """

    _IDLE_COUNTERS = {
        "socket_bytes_sent": 0,
        "socket_bytes_received": 0,
        "socket_reconnects": 0,
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
        round's batches are cut for it too."""
        self.hosts.append(address)
        self.workers += 1
        if self._pool is not None:
            self._pool.add_host(address)

    def remove_host(self, address: str) -> None:
        """Retire one worker host from the list and the live pool
        (closing its connection, so a batch in flight on it goes back
        to the head of the round's queue).  The fan-out never drops below one
        worker."""
        if address in self.hosts:
            self.hosts.remove(address)
            self.workers = max(1, self.workers - 1)
        if self._pool is not None:
            self._pool.remove_host(address)

    def run_round(self, oracle, segments) -> RoundResult:
        """One round of SEGMENTS frames across the live hosts."""
        if self._pool is None:
            self._pool = SocketHostPool(self.hosts, auth_token=self.auth_token)
        if self._oracle is oracle:
            self._pool.ensure_ready()
        else:
            self.generation += 1
            self._pool.register(oracle, self.generation)
            self._oracle = oracle
        started = time.perf_counter()
        batches = [
            (k, end - start, _payload(segments, self.generation, k, start, end))
            for k, (start, end) in enumerate(
                batch_segments(len(segments), self.workers)
            )
        ]
        packed = time.perf_counter()
        replies = self._pool.run_round(batches)
        results = [res for pairs in replies for res in _unpacked(pairs, self._stats)]
        return results, packed - started

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
