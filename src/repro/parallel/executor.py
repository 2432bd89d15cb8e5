"""The ``parmap`` primitive (paper Section 2.4).

POPQC exposes parallelism only through a parallel map over a collection.
The paper implements it with Rust/Rayon fork-join; here the primitive is
an abstract :class:`ParallelMap` with four implementations:

* :class:`SerialMap` — plain sequential map (the 1-thread configuration).
* :class:`ThreadMap` — ``concurrent.futures.ThreadPoolExecutor``.  Under
  CPython's GIL this gives little speedup for pure-Python oracles but is
  useful when the oracle releases the GIL (numpy-heavy cost functions).
* :class:`ProcessMap` — ``ProcessPoolExecutor``; real multicore speedups.
  Beyond the generic :meth:`ProcessMap.map`, it implements the
  *oracle transport* protocol (:meth:`ProcessMap.map_segments`): the
  oracle callable is registered **once per worker** through a pool
  initializer (tagged with a generation token so a swapped oracle can
  never be silently applied by a stale worker), and gate segments cross
  the process boundary in the wire format ``transport=`` names — one
  packed blob per batch through the pipe (``"encoded"``), a pooled
  shared-memory arena (``"shm"``), TCP frames (``"socket"``), nothing at
  all (``"threads"``), or re-pickled gate objects (``"pickle"``, the
  seed behaviour).  The class docstring describes each.  This is the
  CPython analogue of Rayon handing a borrowed slice to a worker: the
  per-round IPC cost is a few buffers, not ``O(gates)`` pickle opcodes
  plus a fresh copy of the oracle.
* :class:`~repro.parallel.simulated.SimulatedParallelism` — executes
  serially, times each task, and reports the *makespan* a p-worker
  machine would achieve.  This is the executor the scaling experiments
  use (see DESIGN.md, substitution table).

All implementations preserve input order in the result list, which the
POPQC driver relies on.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Protocol, Sequence, TypeVar

from ..circuits.encoding import (
    EncodedSegment,
    pack_segment,
    packed_segment_span,
    unpack_segment_from,
)
from ..circuits.gate import Gate
from ..circuits.intern import thread_table
from . import shm
from .results import DecodeStats, LazySegmentResult
from .scheduling import adaptive_chunksize, batch_segments

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "ParallelMap",
    "SerialMap",
    "ThreadMap",
    "ProcessMap",
    "StaleOracleError",
    "default_workers",
    "oracle_fingerprint",
    "TRANSPORTS",
]

#: Oracle-transport modes supported by :class:`ProcessMap`.
TRANSPORTS = ("shm", "encoded", "pickle", "threads", "socket")


class StaleOracleError(RuntimeError):
    """A worker received a task tagged with an oracle generation other
    than the one its pool initializer registered.  Without this check a
    worker initialized for oracle A would silently apply A to tasks
    meant for oracle B."""


def default_workers() -> int:
    """Worker count used when none is given (``os.cpu_count()``)."""
    return os.cpu_count() or 1


def oracle_fingerprint(oracle: object) -> bytes:
    """A 16-byte digest identifying ``oracle`` for cache key scoping.

    Hashes the oracle's pickle bytes — the serialization the process
    and socket transports ship to their workers — so two oracle
    objects share a fingerprint iff a worker could not tell them
    apart, and any configuration difference (rule set, engine,
    thresholds) separates their cache namespaces.  Raises whatever
    ``pickle`` raises for unpicklable oracles; cache callers go
    through :func:`oracle_cache_namespace`, which degrades instead.
    """
    return hashlib.blake2b(pickle.dumps(oracle), digest_size=16).digest()


def oracle_cache_namespace(oracle: object) -> bytes:
    """Cache-scoping key material for ``oracle``, never raising.

    Unpicklable oracles (lambdas, closures) are legal on the threads
    transport and the inline fallback, so the cache front must not
    crash on them: they get a random one-off namespace instead of a
    content fingerprint.  Callers memoize per oracle *identity*, so
    such an oracle still hits its own earlier entries within one
    executor/scheduler pairing — it just never shares entries across
    processes or restarts (which content addressing could not promise
    for an unserializable oracle anyway).
    """
    try:
        return oracle_fingerprint(oracle)
    except Exception:  # pickle errors vary by payload; all mean "opaque"
        return os.urandom(16)


class ParallelMap(Protocol):
    """Order-preserving parallel map protocol.

    Implementations may run tasks in any order but must return results in
    input order.  ``workers`` reports the parallelism the executor aims
    to provide (used by instrumentation only).

    Executors may additionally implement the oracle-transport extension
    (``map_segments(oracle, segments)``); the POPQC driver uses it when
    present to avoid re-shipping the oracle every round.
    """

    workers: int

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every element of ``items``."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release pooled resources (no-op for stateless executors)."""
        ...  # pragma: no cover - protocol


class SerialMap:
    """Sequential map; the reference executor and the 1-thread setting."""

    workers = 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item, in order, in the calling thread."""
        return [fn(item) for item in items]

    def close(self) -> None:
        """No pooled resources; nothing to release."""
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return "SerialMap()"


class ThreadMap:
    """Thread-pool map.

    A shared pool is kept alive across calls so repeated rounds of the
    POPQC loop do not pay thread startup costs.
    """

    def __init__(self, workers: int | None = None):
        self.workers = workers or default_workers()
        self._pool: ThreadPoolExecutor | None = None

    def _ensure(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._pool

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` over the shared thread pool, preserving order."""
        if len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._ensure().map(fn, items))

    def close(self) -> None:
        """Shut the shared pool down (a later ``map`` re-creates it)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"ThreadMap(workers={self.workers})"


# -- persistent-worker oracle transport ---------------------------------------
#
# Worker-side state.  With the "encoded" and "shm" transports the oracle
# callable is installed once per worker process (pool initializer)
# together with its generation token; every subsequent task ships only
# segment descriptors tagged with the expected generation.

_WORKER_ORACLE: Callable[[list[Gate]], list[Gate]] | None = None
_WORKER_ORACLE_GEN: int = -1

#: Worker-side cache of attached shared-memory arenas, keyed by name.
#: Arena blocks are reused round over round, so this normally holds the
#: two or three blocks of the executor's ring.
_WORKER_ARENAS: dict[str, object] = {}

_WORKER_ARENA_CACHE_LIMIT = 8


def _register_worker_oracle(
    oracle: Callable[[list[Gate]], list[Gate]], generation: int
) -> None:
    global _WORKER_ORACLE, _WORKER_ORACLE_GEN
    _WORKER_ORACLE = oracle
    _WORKER_ORACLE_GEN = generation


def _require_worker_oracle(
    generation: int,
) -> Callable[[list[Gate]], list[Gate]]:
    """The registered oracle, after checking the task's generation token."""
    if _WORKER_ORACLE is None:
        raise RuntimeError("worker pool initialized without an oracle")
    if generation != _WORKER_ORACLE_GEN:
        raise StaleOracleError(
            f"task expects oracle generation {generation}, worker has "
            f"{_WORKER_ORACLE_GEN}"
        )
    return _WORKER_ORACLE


def _oracle_encoded_result(oracle, encoded: EncodedSegment) -> EncodedSegment:
    """Run ``oracle`` on a packed segment, staying packed when possible.

    Natively packed oracles (:class:`repro.oracles.NamOracle` with the
    vector engine) transform the wire format directly.  Everything
    else sees a gate list and returns one, both through the calling
    thread's bounded :class:`~repro.circuits.intern.GateTable`: a
    ``Gate`` is built only for a wire value this thread has not met,
    and the gates the oracle passed through re-encode by identity.  An
    oracle that found nothing to rewrite is answered with its input.
    """
    if getattr(oracle, "packed_native", False):
        return oracle.run_packed(encoded)
    table = thread_table()
    gates = table.gates_of(table.ids_from_encoded(encoded))
    out = oracle(gates)
    if out == gates:
        return encoded
    return table.encoded(table.intern(out))


def _as_segment(segment: Sequence[Gate]) -> LazySegmentResult:
    """``segment`` behind the lazy-segment interface (``gates()``,
    ``encoded()``, ``packed_bytes()``): itself if it already is one —
    the driver's id-backed handles, an oracle result — else wrapped."""
    if isinstance(segment, LazySegmentResult):
        return segment
    return LazySegmentResult.from_gates(
        segment if isinstance(segment, list) else list(segment)
    )


def _cached_round(cache, namespace, segments, dispatch, decode_stats=None):
    """The cache-front protocol shared by the executor hook and the
    fleet scheduler.

    Derives every segment's key from its canonical packed bytes scoped
    by ``namespace``, answers hits as lazy handles over the stored
    packed results, routes the misses (in order) through ``dispatch``
    — a callable taking the missing segments and returning their
    results — and stores the miss results on the way out.  The misses
    travel as lazy segments that keep the bytes their key was taken
    from, so a byte transport behind ``dispatch`` does not encode them
    a second time.  Returns
    ``(results, hits, misses, bytes served from cache, lookup
    seconds)``; results are in segment order and byte-identical to an
    uncached round.
    """
    t0 = time.perf_counter()
    segments = [_as_segment(seg) for seg in segments]
    keys = [cache.key_for(seg.packed_bytes(), extra=namespace) for seg in segments]
    cached = [cache.get(key) for key in keys]
    lookup = time.perf_counter() - t0
    miss_idx = [i for i, hit in enumerate(cached) if hit is None]
    results: list = [None] * len(segments)
    bytes_saved = 0
    for i, hit in enumerate(cached):
        if hit is not None:
            bytes_saved += len(hit)
            results[i] = LazySegmentResult.from_packed(hit, decode_stats)
    if miss_idx:
        missed = dispatch([segments[i] for i in miss_idx])
        for i, res in zip(miss_idx, missed):
            results[i] = res
            cache.put(keys[i], _as_segment(res).packed_bytes())
    hits = len(segments) - len(miss_idx)
    return results, hits, len(miss_idx), bytes_saved, lookup


def _apply_registered_oracle(payload: bytes) -> bytes:
    """Worker task of the encoded transport: one batch, blob to blob.

    ``payload`` is a SEGMENTS payload (generation token, batch id, the
    batch's packed segments back to back); the reply is the RESULTS
    payload of the oracle's outputs, still in the flat wire format so
    the parent can defer (and usually skip) decoding — see
    :class:`repro.parallel.results.LazySegmentResult`.
    """
    from .dist import pack_results_payload, unpack_segments_payload  # import cycle

    generation, batch_id, segments = unpack_segments_payload(payload)
    oracle = _require_worker_oracle(generation)
    return pack_results_payload(
        batch_id,
        [pack_segment(_oracle_encoded_result(oracle, seg)) for seg in segments],
    )


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
    oracle = _require_worker_oracle(generation)
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
        out = pack_segment(_oracle_encoded_result(oracle, encoded))
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

    def __init__(self, oracle: Callable[[list[Gate]], list[Gate]]):
        self.oracle = oracle

    def __call__(self, segment: list[Gate]) -> list[Gate]:
        return self.oracle(segment)


class ProcessMap:
    """Process-pool map for genuine multicore execution.

    Tasks and results cross process boundaries, so ``fn`` and the items
    must be picklable.  Small batches fall back to serial execution to
    avoid paying IPC costs for trivial rounds (the same adaptive idea as
    Rayon's loop splitting, which the paper relies on).

    Parameters
    ----------
    workers:
        Pool size; defaults to :func:`default_workers`.
    serial_cutoff:
        Batches of at most this many items run inline in the parent.
    transport:
        Wire format for :meth:`map_segments`.  ``"encoded"`` (default)
        registers the oracle once per worker and ships each
        :func:`~repro.parallel.scheduling.batch_segments` batch as one
        contiguous blob of packed segments, each way (the socket
        transport's SEGMENTS/RESULTS payloads); ``"shm"`` instead packs every
        round's segments into one pooled shared-memory arena
        (:mod:`repro.parallel.shm`) and dispatches batched
        ``(arena, start, end)`` descriptors, so the pipe never carries
        segment bytes; ``"threads"`` skips pipes and arenas entirely —
        oracle calls run on a shared :class:`ThreadPoolExecutor` over
        the parent's own buffers, which pays off when the oracle
        releases the GIL (the vectorized rule engine,
        :mod:`repro.oracles.vector_engine`); ``"pickle"`` reproduces
        the seed behaviour — the oracle and every ``list[Gate]`` are
        pickled on every call — and exists as the benchmark baseline;
        ``"socket"`` ships the same packed bytes as length-prefixed
        frames over TCP to ``popqc worker`` hosts
        (:mod:`repro.parallel.dist`) for cluster-scale sweeps, with
        heartbeat, reconnect-and-requeue on host failure, and the
        generation-token protocol over the wire.  Requesting ``"shm"``
        on a platform without ``multiprocessing.shared_memory`` falls
        back to ``"encoded"`` (``requested_transport`` keeps the
        original).
    hosts:
        Worker host addresses (``"host:port"``) for the socket
        transport; required for (and only valid with)
        ``transport="socket"``.  When ``workers`` is not given it
        defaults to the host count — one dispatcher per connection.
    cache:
        Optional content-addressed segment result cache
        (:class:`repro.service.cache.SegmentCache`).  When set,
        :meth:`map_segments` fingerprints each segment's canonical
        packed bytes (keyed by :func:`oracle_fingerprint`, so entries
        are oracle-scoped), answers hits from the cache without
        touching the oracle or the transport, dispatches only the
        misses, and stores their packed results — so a repeated
        segment costs one hash and one lookup instead of an oracle
        call, on every transport identically.

    All transports return :class:`~repro.parallel.results.
    LazySegmentResult` handles from :meth:`map_segments`: results stay
    in the wire format until a driver actually reads their gates, so
    rejected oracle outputs are never decoded (see
    :class:`~repro.parallel.results.DecodeStats`).

    Attributes
    ----------
    serialization_time:
        Accumulated parent-side encode/pack seconds across all
        :meth:`map_segments` calls (``"encoded"``/``"shm"``/
        ``"threads"`` transports; the pickle transport's serialization
        happens inside the pool machinery and is not separable).
        Result *decoding* is lazy and attributed to whoever reads the
        gates, not counted here.
    last_serialization_time:
        Parent-side encode/pack seconds of the most recent
        :meth:`map_segments` call.
    pool_dispatches:
        Number of :meth:`map` / :meth:`map_segments` calls that
        actually crossed into a pool (batches at or below
        ``serial_cutoff`` run inline and don't count).
    batch_dispatches / segments_batched:
        Pool tasks dispatched and segments carried by the batched
        dispatch of the encoded, shm and socket transports; their
        ratio is the mean batch width.
    last_batch_sizes:
        Batch widths of the most recent batched :meth:`map_segments`
        call.
    thread_task_seconds / thread_wall_seconds:
        Summed per-task oracle seconds vs. wall-clock seconds of the
        threads transport's pool maps; their ratio estimates effective
        thread concurrency, i.e. how much GIL the oracle released.
    cache_hits / cache_misses:
        Segment lookups answered by / past the result cache (0 when no
        cache is configured).  Every hit is an oracle call that was
        never made.
    cache_bytes_saved:
        Packed result bytes served from the cache instead of a
        transport round trip.
    cache_lookup_seconds:
        Parent-side seconds spent fingerprinting and probing the cache
        (the price of admission; compare against the oracle time the
        hits saved).
    """

    def __init__(
        self,
        workers: int | None = None,
        serial_cutoff: int = 2,
        transport: str = "encoded",
        hosts: Sequence[str] | None = None,
        cache: object | None = None,
        auth_token: str | None = None,
    ):
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
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
        self.hosts = list(hosts) if hosts else []
        self.auth_token = auth_token
        if workers is None and transport == "socket":
            # cluster parallelism is one dispatcher per connected host
            workers = max(1, len(self.hosts))
        self.workers = workers or default_workers()
        self.serial_cutoff = serial_cutoff
        self.transport = transport
        self.serialization_time = 0.0
        self.last_serialization_time = 0.0
        self.pool_dispatches = 0
        self.batch_dispatches = 0
        self.segments_batched = 0
        self.last_batch_sizes: list[int] = []
        self.thread_task_seconds = 0.0
        self.thread_wall_seconds = 0.0
        self._decode_stats = DecodeStats()
        self._pool: ProcessPoolExecutor | None = None
        self._thread_pool: ThreadPoolExecutor | None = None
        self._registered_oracle: object | None = None
        self._oracle_generation = 0
        self._task_seconds_est = 0.0
        self._arenas: shm.ShmArenaPool | None = None
        self._round_id = 0
        self._socket_pool = None  # lazily built SocketHostPool
        self._socket_oracle: object | None = None
        self.cache = cache
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_bytes_saved = 0
        self.cache_lookup_seconds = 0.0
        # oracle digest memoized by identity: one pickle per oracle,
        # not one per round.  Kept as a single (oracle, digest) tuple
        # so a concurrent reader can never observe one oracle paired
        # with another oracle's digest.
        self._cache_ns_memo: tuple[object, bytes] = (None, b"")

    # -- generic map ---------------------------------------------------------

    def _discard_broken_pool(self) -> None:
        """Drop a pool whose workers died (e.g. a crashed oracle task).

        A :class:`~concurrent.futures.process.BrokenProcessPool` is
        permanent for the executor that raised it; rebuilding on the
        next dispatch turns a worker crash into a one-round failure
        instead of a dead ``ProcessMap``.
        """
        if self._pool is not None and getattr(self._pool, "_broken", False):
            self._pool.shutdown(wait=False)
            self._pool = None
            self._registered_oracle = None

    def _ensure(self) -> ProcessPoolExecutor:
        """Pool for generic ``map`` (no oracle registered)."""
        self._discard_broken_pool()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            self._registered_oracle = None
        return self._pool

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` over the process pool (inline under the cutoff)."""
        if len(items) <= self.serial_cutoff:
            return [fn(item) for item in items]
        # balance-only chunking: the learned task-time estimate belongs
        # to oracle segments (map_segments), not arbitrary callables
        chunk = adaptive_chunksize(len(items), self.workers, 0.0)
        self.pool_dispatches += 1
        return list(self._ensure().map(fn, items, chunksize=chunk))

    # -- oracle transport -----------------------------------------------------

    def _ensure_registered(self, oracle: object) -> ProcessPoolExecutor:
        """Pool whose workers have ``oracle`` installed via the initializer.

        Swapping oracles mid-run tears the pool down, bumps the oracle
        generation and rebuilds; the POPQC loop uses one oracle for
        thousands of rounds, so the rebuild is a once-per-run cost.
        Every dispatched task carries the generation token and workers
        refuse mismatches (:class:`StaleOracleError`), so a pool that
        somehow survives with the old initializer can never silently
        apply the old oracle.
        """
        self._discard_broken_pool()
        if self._pool is not None and self._registered_oracle is not oracle:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._pool is None or self._registered_oracle is not oracle:
            self._oracle_generation += 1
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_register_worker_oracle,
                initargs=(oracle, self._oracle_generation),
            )
            self._registered_oracle = oracle
        return self._pool

    def map_segments(
        self,
        oracle: Callable[[list[Gate]], list[Gate]],
        segments: Sequence[list[Gate]],
    ) -> list:
        """Apply ``oracle`` to every segment, preserving order.

        The oracle crosses the process boundary at most once per worker
        (``"encoded"``/``"shm"`` transports) or not at all
        (``"threads"``); segments travel as numpy buffers through the
        pipe, as zero-copy shared-memory views, or stay in-process.
        Pool-backed calls return
        :class:`~repro.parallel.results.LazySegmentResult` handles that
        decode only when read.

        With a result ``cache`` configured, known segments are answered
        from it and only the misses reach the transport (see
        :meth:`_map_segments_cached`); the result contents are
        byte-identical either way.

        Segments are any ``Sequence[Gate]``.  The driver's id-backed
        lazy segments (:meth:`LazySegmentResult.from_ids`) reach a byte
        transport without a ``Gate`` being looked up; plain gate lists
        are wrapped in the same interface here, once.
        """
        segments = [_as_segment(seg) for seg in segments]
        if self.cache is not None:
            return self._map_segments_cached(oracle, segments)
        return self._map_segments_dispatch(oracle, segments)

    def _cache_namespace(self, oracle: object) -> bytes:
        """Oracle-scoping key material for cache lookups (memoized).

        The memo is read and replaced as one tuple: under concurrent
        callers the worst case is a redundant recompute, never a
        cross-oracle pairing.
        """
        memo_oracle, memo_ns = self._cache_ns_memo
        if memo_oracle is not oracle:
            memo_ns = oracle_cache_namespace(oracle)
            self._cache_ns_memo = (oracle, memo_ns)
        return memo_ns

    def _map_segments_cached(
        self,
        oracle: Callable[[list[Gate]], list[Gate]],
        segments: Sequence[list[Gate]],
    ) -> list:
        """Cache-aware front of :meth:`map_segments`.

        Every segment is encoded and packed into its canonical wire
        bytes (work the transport would do anyway for a miss), hashed,
        and looked up; hits become lazy handles over the cached packed
        result, misses go through the configured transport in one
        batch and their packed results are stored on the way out
        (:func:`_cached_round` is the shared protocol).
        """
        results, hits, misses, bytes_saved, lookup = _cached_round(
            self.cache,
            self._cache_namespace(oracle),
            segments,
            lambda missed: self._map_segments_dispatch(oracle, missed),
            self._decode_stats,
        )
        self.cache_hits += hits
        self.cache_misses += misses
        self.cache_bytes_saved += bytes_saved
        self.cache_lookup_seconds += lookup
        if misses == 0:  # dispatch never ran to reset the per-call stats
            self.last_serialization_time = 0.0
            self.last_batch_sizes = []
        # key derivation is serialization work: it packs the same bytes
        # the wire would carry
        self.last_serialization_time += lookup
        self.serialization_time += lookup
        return results

    def _map_segments_dispatch(
        self,
        oracle: Callable[[list[Gate]], list[Gate]],
        segments: Sequence[LazySegmentResult],
    ) -> list:
        """Transport dispatch of :meth:`map_segments` (cache already
        consulted, segments already behind the segment interface)."""
        self.last_serialization_time = 0.0
        self.last_batch_sizes = []
        if len(segments) <= self.serial_cutoff:
            return [oracle(seg.gates()) for seg in segments]

        if self.transport == "shm":
            return self._map_segments_shm(oracle, segments)
        if self.transport == "threads":
            return self._map_segments_threads(oracle, segments)
        if self.transport == "socket":
            return self._map_segments_socket(oracle, segments)
        if self.transport == "pickle":
            return self._map_segments_pickle(oracle, segments)
        return self._map_segments_encoded(oracle, segments)

    def _map_segments_pickle(
        self,
        oracle: Callable[[list[Gate]], list[Gate]],
        segments: Sequence[LazySegmentResult],
    ) -> list:
        """One round of the seed behaviour: oracle and gate lists pickled."""
        chunk = adaptive_chunksize(len(segments), self.workers, self._task_seconds_est)
        self.pool_dispatches += 1
        was_warm = self._pool is not None
        t_map = time.perf_counter()
        results = [
            LazySegmentResult.from_gates(out)
            for out in self._ensure().map(
                _PickledOracleCall(oracle),
                [seg.gates() for seg in segments],
                chunksize=chunk,
            )
        ]
        if was_warm:
            self._observe(time.perf_counter() - t_map, len(segments), chunk)
        return results

    def _pack_batches(
        self, segments: Sequence[LazySegmentResult]
    ) -> list[tuple[int, int, bytes]]:
        """Plan a round's batches: ``(batch id, width, SEGMENTS payload)``.

        Shared by the two transports that ship packed bytes by value
        (``"encoded"`` through the pool pipe, ``"socket"`` over TCP):
        :func:`batch_segments` decides the widths, and a batch's
        payload is its segments' packed bytes — the ones a cache front
        already took their keys from — joined behind one header.
        """
        from .dist import join_segments_payload  # local: avoid import cycle

        batches = batch_segments(len(segments), self.workers, self._task_seconds_est)
        self.pool_dispatches += 1
        self.batch_dispatches += len(batches)
        self.segments_batched += len(segments)
        self.last_batch_sizes = [end - start for start, end in batches]
        return [
            (
                batch_id,
                end - start,
                join_segments_payload(
                    self._oracle_generation,
                    batch_id,
                    [seg.packed_bytes() for seg in segments[start:end]],
                ),
            )
            for batch_id, (start, end) in enumerate(batches)
        ]

    def _map_segments_encoded(
        self,
        oracle: Callable[[list[Gate]], list[Gate]],
        segments: Sequence[LazySegmentResult],
    ) -> list:
        """One round over the persistent-worker pool, a blob per batch.

        Each batch crosses the pipe as one ``bytes`` object each way —
        one pickle of one buffer per pool task, whatever the batch
        holds — and the reply is split on header reads alone, so
        results stay packed for lazy decoding.
        """
        from .dist import iter_results_payload  # local: avoid import cycle

        prev_pool = self._pool
        pool = self._ensure_registered(oracle)
        was_warm = prev_pool is not None and pool is prev_pool
        t0 = time.perf_counter()
        payloads = [payload for _, _, payload in self._pack_batches(segments)]
        ser = time.perf_counter() - t0
        t_map = time.perf_counter()
        replies = list(pool.map(_apply_registered_oracle, payloads))
        pool_elapsed = time.perf_counter() - t_map
        results = [
            LazySegmentResult.from_packed(blob, self._decode_stats, length)
            for reply in replies
            for length, blob in iter_results_payload(reply)
        ]
        self.last_serialization_time = ser
        self.serialization_time += ser
        if was_warm:
            # only the pool interval: parent-side encoding is
            # serialization, not task time
            self._observe(pool_elapsed, len(segments), max(self.last_batch_sizes))
        return results

    def _ensure_threads(self) -> ThreadPoolExecutor:
        """The shared thread pool of the ``"threads"`` transport."""
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._thread_pool

    def _map_segments_threads(
        self,
        oracle: Callable[[list[Gate]], list[Gate]],
        segments: Sequence[list[Gate]],
    ) -> list:
        """One round over the thread transport: no pipes, no arenas.

        Workers share the parent's address space, so nothing is
        serialized and the oracle needs no registration or generation
        token.  Oracles implementing ``run_packed`` receive the packed
        layout (built parent-side, counted as serialization time) and
        their results stay packed for lazy decoding; plain oracles run
        on the gate lists directly.  Per-task durations are recorded so
        the executor can estimate how much GIL the oracle released
        (``thread_task_seconds`` / ``thread_wall_seconds``).
        """
        pool = self._ensure_threads()
        self.pool_dispatches += 1
        # Only a *natively* packed oracle is worth feeding the wire
        # format here: for gate-list oracles, encoding inputs just to
        # win lazy result decode costs more than it saves (unlike the
        # process transports, where the bytes must exist anyway).
        run_packed = (
            getattr(oracle, "run_packed", None)
            if getattr(oracle, "packed_native", False)
            else None
        )
        t_round = time.perf_counter()
        if run_packed is not None:
            t0 = time.perf_counter()
            encoded = [seg.encoded() for seg in segments]
            ser = time.perf_counter() - t0

            def task(enc: EncodedSegment) -> tuple[EncodedSegment, float]:
                t = time.perf_counter()
                out = run_packed(enc)
                return out, time.perf_counter() - t

            outs = list(pool.map(task, encoded))
            results = [
                LazySegmentResult.from_encoded(out, self._decode_stats)
                for out, _ in outs
            ]
        else:
            ser = 0.0

            def task(seg: list[Gate]) -> tuple[list[Gate], float]:
                t = time.perf_counter()
                out = oracle(seg)
                return out, time.perf_counter() - t

            outs = list(pool.map(task, [seg.gates() for seg in segments]))
            results = [LazySegmentResult.from_gates(out) for out, _ in outs]
        wall = time.perf_counter() - t_round - ser
        self.thread_task_seconds += sum(dt for _, dt in outs)
        self.thread_wall_seconds += wall
        self.last_serialization_time = ser
        self.serialization_time += ser
        return results

    def _ensure_socket_pool(self):
        """The lazily built client host registry of the socket transport."""
        if self._socket_pool is None:
            from .dist import SocketHostPool  # local: dist imports this module

            self._socket_pool = SocketHostPool(
                self.hosts, auth_token=self.auth_token
            )
        return self._socket_pool

    def add_socket_host(self, address: str) -> None:
        """Elastically add a worker host to the socket fleet.

        The host joins the configured list (and the live pool, if one
        is built) and widens the batching fan-out, so the next round
        deals work to it.  This is the scale-up hook of the
        optimization service's autoscaler.
        """
        if self.transport != "socket":
            raise ValueError("add_socket_host requires transport='socket'")
        self.hosts.append(address)
        self.workers += 1
        if self._socket_pool is not None:
            self._socket_pool.add_host(address)

    def remove_socket_host(self, address: str) -> None:
        """Elastically retire one worker host from the socket fleet.

        Removes the address from the configured list and the live pool
        (closing its connection, so a round in flight drains through
        the requeue-and-steal path).  The fan-out never drops below
        one worker.
        """
        if self.transport != "socket":
            raise ValueError("remove_socket_host requires transport='socket'")
        if address in self.hosts:
            self.hosts.remove(address)
            self.workers = max(1, self.workers - 1)
        if self._socket_pool is not None:
            self._socket_pool.remove_host(address)

    def _map_segments_socket(
        self,
        oracle: Callable[[list[Gate]], list[Gate]],
        segments: Sequence[list[Gate]],
    ) -> list:
        """One round over the distributed socket transport.

        Segments are packed into batched SEGMENTS frames (the same
        flat wire format as the shm arenas, length-prefixed for the
        stream) and round-robined across the connected worker hosts by
        :meth:`repro.parallel.dist.SocketHostPool.run_round`; results
        come back as packed RESULTS frames and wrap into lazy handles
        like every other transport.  The oracle crosses the wire once
        per host per registration (generation-tagged, exactly like the
        process-pool initializer protocol).
        """
        n = len(segments)
        pool = self._ensure_socket_pool()
        was_warm = self._socket_oracle is oracle
        if not was_warm:
            self._oracle_generation += 1
            pool.register(oracle, self._oracle_generation)
            self._socket_oracle = oracle
        else:
            pool.ensure_ready()

        t0 = time.perf_counter()
        payloads = self._pack_batches(segments)
        ser = time.perf_counter() - t0

        t_map = time.perf_counter()
        blobs_per_batch = pool.run_round(payloads)
        elapsed = time.perf_counter() - t_map

        results = [
            LazySegmentResult.from_packed(blob, self._decode_stats)
            for blobs in blobs_per_batch
            for blob in blobs
        ]
        self.last_serialization_time = ser
        self.serialization_time += ser
        if was_warm:
            self._observe(elapsed, n, max(self.last_batch_sizes))
        return results

    def _map_segments_shm(
        self,
        oracle: Callable[[list[Gate]], list[Gate]],
        segments: Sequence[list[Gate]],
    ) -> list[list[Gate]]:
        """One round over the zero-copy shared-memory transport.

        Segments are packed into one pooled input arena, results come
        back through a result arena with parent-reserved regions, and
        the pool dispatch is one task per :func:`batch_segments` batch
        — the pipe carries only small descriptor tuples.
        """
        n = len(segments)
        t0 = time.perf_counter()
        encoded = [seg.encoded() for seg in segments]
        sizes = shm.packed_sizes(encoded)
        ser = time.perf_counter() - t0

        if self._arenas is None:
            self._arenas = shm.ShmArenaPool()
        in_offsets, in_total = shm.input_arena_layout(sizes)
        out_regions, out_total = shm.result_arena_layout(sizes)
        in_block = self._arenas.acquire(in_total)
        try:
            out_block = self._arenas.acquire(out_total)
        except BaseException:
            # arena exhaustion between the two acquires (e.g. ENOSPC on
            # /dev/shm): hand the first block back before propagating
            self._arenas.release(in_block)
            raise
        self._round_id += 1
        round_id = self._round_id
        round_ok = False
        try:
            t0 = time.perf_counter()
            shm.write_input_arena(in_block.buf, round_id, encoded, in_offsets)
            shm.write_result_directory(out_block.buf, round_id, out_regions)
            ser += time.perf_counter() - t0

            prev_pool = self._pool
            pool = self._ensure_registered(oracle)
            was_warm = prev_pool is not None and pool is prev_pool
            batches = batch_segments(n, self.workers, self._task_seconds_est)
            tasks = [
                (
                    in_block.name,
                    out_block.name,
                    round_id,
                    self._oracle_generation,
                    start,
                    end,
                )
                for start, end in batches
            ]
            self.pool_dispatches += 1
            self.batch_dispatches += len(batches)
            self.segments_batched += n
            self.last_batch_sizes = [end - start for start, end in batches]

            t_map = time.perf_counter()
            markers = [
                m
                for chunk in pool.map(_apply_oracle_shm, tasks, chunksize=1)
                for m in chunk
            ]
            pool_elapsed = time.perf_counter() - t_map

            # Copy each packed result out of the arena (header-sized
            # span read + one memcpy) so the block can be recycled;
            # decoding stays lazy and usually never happens.
            t0 = time.perf_counter()
            results: list[LazySegmentResult] = []
            out_buf = out_block.buf
            for marker, (offset, _) in zip(markers, out_regions):
                if marker is None:
                    length, end = packed_segment_span(out_buf, offset)
                    payload = bytes(out_buf[offset:end])
                else:  # overflow fallback: result came through the pipe
                    length, payload = None, marker
                results.append(
                    LazySegmentResult.from_packed(payload, self._decode_stats, length)
                )
            ser += time.perf_counter() - t0
            round_ok = True
        finally:
            if round_ok:
                self._arenas.release(in_block)
                self._arenas.release(out_block)
            else:
                # a failed round may leave straggler tasks writing into
                # the arenas: never recycle them
                self._arenas.discard(in_block)
                self._arenas.discard(out_block)

        self.last_serialization_time = ser
        self.serialization_time += ser
        if was_warm:
            self._observe(pool_elapsed, n, max(self.last_batch_sizes))
        return results

    def _observe(self, elapsed: float, items: int, chunk: int) -> None:
        """Feed the adaptive chunking policy with measured per-task time.

        ``elapsed`` is parallel wall-clock, so one task's duration is
        roughly ``elapsed × parallelism / items``; parallelism is
        bounded by both the pool size and the number of chunks.  Using
        the bound errs toward over-estimating task time, i.e. toward
        the balance-oriented chunk — the safe direction.  Cold-pool
        calls (worker spawn inflates ``elapsed``) are not observed.
        """
        if items <= 0:
            return
        parallelism = min(self.workers, -(-items // max(1, chunk)))
        per_task = elapsed * parallelism / items
        if self._task_seconds_est == 0.0:
            self._task_seconds_est = per_task
        else:
            self._task_seconds_est = 0.7 * self._task_seconds_est + 0.3 * per_task

    # -- shm arena instrumentation -------------------------------------------

    @property
    def arena_allocations(self) -> int:
        """Shared-memory blocks created by the arena ring (0 if unused)."""
        return self._arenas.allocations if self._arenas is not None else 0

    @property
    def arena_reuses(self) -> int:
        """Rounds served by recycling an existing arena block."""
        return self._arenas.reuses if self._arenas is not None else 0

    @property
    def arena_bytes(self) -> int:
        """Current capacity of the arena ring (live blocks, bytes)."""
        return self._arenas.ring_bytes if self._arenas is not None else 0

    # -- socket transport instrumentation ------------------------------------

    @property
    def socket_bytes_sent(self) -> int:
        """Frame bytes sent to worker hosts (socket transport, 0 otherwise)."""
        return self._socket_pool.bytes_sent if self._socket_pool else 0

    @property
    def socket_bytes_received(self) -> int:
        """Frame bytes received from worker hosts (socket transport)."""
        return self._socket_pool.bytes_received if self._socket_pool else 0

    @property
    def socket_reconnects(self) -> int:
        """Reconnect-and-re-register cycles after a host failure."""
        return self._socket_pool.reconnects if self._socket_pool else 0

    @property
    def socket_steals(self) -> int:
        """Batches a dispatcher stole from a peer host's queue."""
        return self._socket_pool.steals if self._socket_pool else 0

    @property
    def socket_host_segments(self) -> dict[str, int]:
        """Segments served per worker host address."""
        return dict(self._socket_pool.host_segments) if self._socket_pool else {}

    @property
    def socket_host_seconds(self) -> dict[str, float]:
        """Wall seconds spent serving batches, per worker host address."""
        return dict(self._socket_pool.host_seconds) if self._socket_pool else {}

    @property
    def socket_host_capacity(self) -> dict[str, int]:
        """Advertised capacity per worker host address (weighted dispatch)."""
        return dict(self._socket_pool.host_capacity) if self._socket_pool else {}

    # -- lazy-decode instrumentation -----------------------------------------

    @property
    def results_returned(self) -> int:
        """Byte-carrying oracle results handed back by ``map_segments``."""
        return self._decode_stats.results_returned

    @property
    def results_decoded(self) -> int:
        """Returned results whose gates were actually materialized."""
        return self._decode_stats.results_decoded

    @property
    def result_bytes_returned(self) -> int:
        """Wire bytes of all returned results."""
        return self._decode_stats.result_bytes_returned

    @property
    def result_bytes_decoded(self) -> int:
        """Wire bytes of the results that were decoded."""
        return self._decode_stats.result_bytes_decoded

    def close(self) -> None:
        """Shut down pools and release arenas (safe to call twice)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._registered_oracle = None
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
            self._thread_pool = None
        if self._arenas is not None:
            self._arenas.close()
            self._arenas = None
        if self._socket_pool is not None:
            self._socket_pool.close()
            self._socket_pool = None
            self._socket_oracle = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"ProcessMap(workers={self.workers}, transport={self.transport!r})"
