"""The worker host: ``popqc worker``, the server side of the socket transport.

:class:`WorkerHost` is a :class:`~repro.parallel.frames.FrameServer`
whose handler registers an oracle per connection through the same
generation-token protocol the process transports use (a ``REGISTER``
frame carrying the pickled oracle and its generation; segment frames
tagged with a different generation are refused with a typed error,
never silently served) and answers batched ``SEGMENTS`` frames with
batched ``RESULTS`` frames.  Started with ``--cache HOST:PORT`` it is
also the *client* of the cluster cache tier (:class:`CacheClient`,
which is why that class lives here and not with the service that
answers it): the host asks a ``popqc serve`` daemon's segment cache
before running the oracle and publishes what it had to compute.

Worker-side code calls the codec through *direct* imports rather than
module attributes, so the parent-side decode spies of
``tests/parallel/test_lazy_decode.py`` observe only what the driver
decodes, even with in-process test clusters.
"""

from __future__ import annotations

import contextlib
import logging
import threading
import time
from types import SimpleNamespace
from typing import Iterator, Optional, Sequence

from ..circuits.encoding import EncodedSegment, pack_segment
from ..circuits.intern import thread_table
from .frames import (
    ERR_AUTH,
    ERR_BAD_FRAME,
    ERR_NO_ORACLE,
    ERR_ORACLE_FAILED,
    ERR_STALE_ORACLE,
    FRAME_CACHE_LOOKUP,
    FRAME_CACHE_RESULT,
    FRAME_CACHE_STORE,
    FRAME_ERROR,
    FRAME_REGISTER,
    FRAME_REGISTER_OK,
    FRAME_RESULTS,
    FRAME_SEGMENTS,
    CONNECTION_FAILURES,
    AuthenticationError,
    FrameConnection,
    FrameProtocolError,
    FrameServer,
    error_frame,
    oracle_blob_digest,
    pack_cache_lookup_payload,
    pack_cache_store_payload,
    pack_frame,
    pack_register_ok_payload,
    pack_results_payload,
    unpack_cache_result_payload,
    unpack_error_payload,
    unpack_register_payload,
    unpack_segments_payload,
)

__all__ = ["CacheClient", "WorkerHost", "local_cluster"]

_log = logging.getLogger(__name__)


def _oracle_encoded_result(oracle, encoded: EncodedSegment) -> EncodedSegment:
    """Run ``oracle`` on a packed segment, staying packed when possible.

    What every worker — a pool process, a ``popqc worker`` handler
    thread — does with one segment.  Natively packed oracles
    (:class:`repro.oracles.NamOracle` with the vector engine) transform
    the wire format directly.  Everything else sees a gate list and
    returns one, both through the calling thread's bounded
    :class:`~repro.circuits.intern.GateTable`: a ``Gate`` is built only
    for a wire value this thread has not met, and the gates the oracle
    passed through re-encode by identity.  An oracle that found nothing
    to rewrite is answered with its input.
    """
    if getattr(oracle, "packed_native", False):
        return oracle.run_packed(encoded)
    table = thread_table()
    gates = table.gates_of(table.ids_from_encoded(encoded))
    out = oracle(gates)
    if out == gates:
        return encoded
    return table.encoded(table.intern(out))


class WorkerHost(FrameServer):
    """TCP server answering segment-batch frames with result frames.

    Each connection carries its own oracle registration (REGISTER
    frame, pickled oracle + generation token).  SEGMENTS frames tagged
    with any other generation are answered with a typed ``stale
    oracle`` error frame, mirroring
    :class:`~repro.parallel.StaleOracleError` on the process
    transports.  Listener, AUTH gate (``popqc worker --auth-token``),
    idle timeout and byte counters are
    :class:`~repro.parallel.frames.FrameServer`'s.

    ``capacity`` advertises how many batches this host comfortably
    serves at once (its core count, typically — ``popqc worker
    --capacity``).  It is reported to every client in the REGISTER
    reply, and :class:`~repro.parallel.hostpool.SocketHostPool` weights
    its round-robin by it, so a 16-core host in a heterogeneous cluster
    draws 4x the batches of a 4-core one instead of an equal share.

    ``cache_address`` (``popqc worker --cache``) points the host at a
    ``popqc serve`` daemon's segment cache, making that cache a
    cluster-shared tier: before running the oracle on a batch the host
    asks the cache for each segment (CACHE_LOOKUP) and afterwards
    publishes what it had to compute (CACHE_STORE), so a segment any
    host in the fleet has optimized is a warm hit for all of them.
    The cache namespace is the digest of the raw REGISTER blob
    (:func:`~repro.parallel.frames.oracle_blob_digest`) —
    byte-identical to the daemon's own
    :func:`~repro.parallel.executor.oracle_fingerprint`, because the
    pool ships ``pickle.dumps(oracle)`` verbatim.  Cache failures
    degrade to plain oracle execution (counted in ``cache_errors``);
    an authentication refusal from the cache tier permanently disables
    it for this host, since a bad token fails identically forever.

    Attributes
    ----------
    segments_served / batches_served:
        Totals across all connections (for the CLI status line).
    cache_hits / cache_misses / cache_stores / cache_errors:
        Cluster-cache tier traffic (all zero without ``--cache``).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        capacity: int = 1,
        auth_token: Optional[str] = None,
        idle_timeout_seconds: Optional[float] = 600.0,
        cache_address: Optional[str] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        super().__init__(host, port, auth_token, idle_timeout_seconds)
        self.capacity = capacity
        self.cache_address = cache_address
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_stores = 0
        self._cache_error_count = 0
        self._cache: Optional[CacheClient] = (
            CacheClient(cache_address, auth_token=auth_token)
            if cache_address is not None
            else None
        )
        self.segments_served = 0
        self.batches_served = 0

    @property
    def cache_errors(self) -> int:
        """Cache-tier failures observed: the live client's transport
        errors plus any permanent auth-refusal disablement."""
        cache = self._cache
        return self._cache_error_count + (
            cache.errors if cache is not None else 0
        )

    def stop(self) -> None:
        """Stop serving (see :meth:`FrameServer.stop`) and close the
        cache-tier connection."""
        super().stop()
        cache = self._cache
        if cache is not None:
            cache.close()

    # -- the handler -----------------------------------------------------------

    def open_session(self, peer: str) -> SimpleNamespace:
        """A connection's registration: no oracle until REGISTER."""
        return SimpleNamespace(oracle=None, generation=-1, namespace=None)

    def handle(
        self, session: SimpleNamespace, frame_type: int, payload: bytes
    ) -> Optional[bytes]:
        """REGISTER installs the connection's oracle, SEGMENTS runs it."""
        if frame_type == FRAME_SEGMENTS:
            return self._answer_segments(payload, session)
        if frame_type != FRAME_REGISTER:
            return None
        try:
            generation, oracle, blob = unpack_register_payload(payload)
        except Exception as exc:  # torn header / corrupt pickle
            # the previous registration stays in force
            return error_frame(ERR_BAD_FRAME, f"bad REGISTER payload: {exc!r}")
        session.generation, session.oracle = generation, oracle
        session.namespace = oracle_blob_digest(blob)
        return pack_frame(
            FRAME_REGISTER_OK, pack_register_ok_payload(generation, self.capacity)
        )

    def _cache_call(self, call):
        """``call(cache client)``, or ``None`` when the tier is off — or
        turns out to refuse our token, which drops it for good: a bad
        token fails identically on every future request."""
        cache = self._cache
        if cache is None:
            return None
        try:
            return call(cache)
        except AuthenticationError:
            _log.warning(
                "cluster cache at %s refused authentication; disabling the "
                "cache tier for this worker",
                self.cache_address,
            )
            with self._lock:
                # fold the dropped client's tally into the permanent
                # count so cache_errors never goes backwards
                dropped, self._cache = self._cache, None
                self._cache_error_count += 1 + (
                    dropped.errors if dropped is not None else 0
                )
            if dropped is not None:
                dropped.close()
            return None

    def _answer_segments(self, payload: bytes, session: SimpleNamespace) -> bytes:
        """The reply frame for one SEGMENTS request.

        With a cluster cache configured, the oracle runs only on the
        segments the cache does not already hold; everything this host
        did compute is published back before the RESULTS frame is
        sent, so the publish is durably visible to other hosts by the
        time the driver sees the round complete.
        """
        try:
            generation, batch_id, segments = unpack_segments_payload(payload)
        except FrameProtocolError as exc:
            return error_frame(ERR_BAD_FRAME, str(exc))
        if session.oracle is None:
            return error_frame(
                ERR_NO_ORACLE, "no oracle registered on this connection"
            )
        if generation != session.generation:
            return error_frame(
                ERR_STALE_ORACLE,
                f"batch expects oracle generation {generation}, "
                f"connection registered {session.generation}",
            )
        cached: Optional[list[Optional[bytes]]] = None
        packed_in: list[bytes] = []
        if self._cache is not None:
            packed_in = [pack_segment(segment) for segment in segments]
            cached = self._cache_call(
                lambda cache: cache.lookup(session.namespace, packed_in)
            )
        try:
            results: list[bytes] = []
            store_entries: list[tuple[bytes, bytes]] = []
            for i, segment in enumerate(segments):
                hit = cached[i] if cached is not None else None
                if hit is not None:
                    results.append(hit)
                    continue
                out = pack_segment(_oracle_encoded_result(session.oracle, segment))
                results.append(out)
                if cached is not None:
                    store_entries.append((packed_in[i], out))
        except Exception as exc:  # noqa: BLE001 - forwarded to the client
            return error_frame(ERR_ORACLE_FAILED, repr(exc))
        # an unreachable or refusing cache is a degradation, not a failure
        stored = bool(store_entries) and self._cache_call(
            lambda cache: cache.store(session.namespace, store_entries)
        )
        with self._lock:
            self.segments_served += len(segments)
            self.batches_served += 1
            if cached is not None:
                hits = sum(1 for value in cached if value is not None)
                self.cache_hits += hits
                self.cache_misses += len(segments) - hits
                if stored:
                    self.cache_stores += len(store_entries)
        return pack_frame(FRAME_RESULTS, pack_results_payload(batch_id, results))


class CacheClient:
    """Worker-side client of the cluster cache tier.

    Speaks CACHE_LOOKUP/CACHE_STORE to a ``popqc serve`` daemon and
    reads CACHE_RESULT replies.  The tier is an optimization, so this
    client **degrades instead of failing**: an unreachable server, a
    dropped connection, a torn reply or an unexpected frame all read
    as cache misses (for lookups) or a dropped publish (for stores),
    counted in :attr:`errors` — segment work fronted by the cache must
    never fail because the cache did.  The one exception is
    :class:`AuthenticationError`, which is raised to the caller: a
    refused token fails identically forever and retrying it would only
    hide a configuration error.

    After a transport failure the client backs off for
    ``retry_seconds`` before trying the server again, so a dead cache
    daemon costs one connect timeout per backoff window, not one per
    batch.  Thread-safe; one request is on the wire at a time.
    """

    def __init__(
        self,
        address: str,
        connect_timeout: float = 2.0,
        request_timeout: Optional[float] = 30.0,
        auth_token: Optional[str] = None,
        retry_seconds: float = 5.0,
    ):
        self.address = address
        self.retry_seconds = retry_seconds
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.errors = 0
        self._down_until = 0.0
        self._lock = threading.Lock()
        self._conn = FrameConnection(
            address, connect_timeout, request_timeout, auth_token
        )

    def _ask(self, frame_type: int, payload: bytes) -> Optional[bytes]:
        """One request on the shared connection → the CACHE_RESULT
        payload answering it, or ``None`` when the tier did not answer
        (counted in :attr:`errors`): a transport failure, which arms
        the backoff window; an unexpected frame; or a refusal — raised,
        not absorbed, when it is an auth refusal."""
        if time.monotonic() < self._down_until:
            return None
        try:
            got, reply = self._conn.exchange(pack_frame(frame_type, payload))
        except CONNECTION_FAILURES:
            self.errors += 1
            self._down_until = time.monotonic() + self.retry_seconds
            self._conn.close()
            return None
        if got == FRAME_CACHE_RESULT:
            return reply
        self.errors += 1
        if got != FRAME_ERROR:
            self._conn.close()
        else:
            kind, message = unpack_error_payload(reply)
            if kind == ERR_AUTH:
                raise AuthenticationError(message)
        return None

    def lookup(
        self, namespace: bytes, packed_segments: Sequence[bytes]
    ) -> list[Optional[bytes]]:
        """Cached value bytes per segment (``None`` per miss).

        Always returns exactly ``len(packed_segments)`` entries; any
        reply the server tore or dropped reads as misses.
        """
        if not packed_segments:
            return []
        all_miss: list[Optional[bytes]] = [None] * len(packed_segments)
        with self._lock:
            payload = self._ask(
                FRAME_CACHE_LOOKUP,
                pack_cache_lookup_payload(namespace, packed_segments),
            )
            if payload is None:
                return all_miss
            values = unpack_cache_result_payload(payload)
            if len(values) != len(packed_segments):
                # torn or miscounted reply: the missing tail is misses
                self.errors += 1
                values = (values + all_miss)[: len(packed_segments)]
            hits = sum(1 for value in values if value is not None)
            self.hits += hits
            self.misses += len(values) - hits
            return values

    def store(
        self, namespace: bytes, entries: Sequence[tuple[bytes, bytes]]
    ) -> bool:
        """Publish ``(packed segment, value)`` pairs; True when acked."""
        if not entries:
            return True
        with self._lock:
            acked = self._ask(
                FRAME_CACHE_STORE, pack_cache_store_payload(namespace, entries)
            )
            if acked is not None:
                self.stores += len(entries)
            return acked is not None

    def close(self) -> None:
        """Close the connection (idempotent)."""
        self._conn.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CacheClient({self.address}, hits={self.hits}, "
            f"misses={self.misses}, errors={self.errors})"
        )


@contextlib.contextmanager
def local_cluster(
    num_hosts: int = 2,
    capacities: Optional[Sequence[int]] = None,
    auth_token: Optional[str] = None,
    cache_address: Optional[str] = None,
) -> Iterator[list[str]]:
    """Start ``num_hosts`` in-process :class:`WorkerHost` servers.

    Yields their ``host:port`` addresses and stops them on exit.
    ``capacities`` optionally assigns a per-host capacity
    advertisement (default 1 each, the homogeneous cluster); its
    length must match ``num_hosts``.  ``auth_token`` starts every host
    demanding the shared token (clients must pass the same one).
    ``cache_address`` points every host at a cluster cache tier (a
    ``popqc serve`` daemon), as ``popqc worker --cache`` does.  This
    is the localhost cluster fixture the equivalence suite and the
    transport benchmark run against; CI's ``dist-smoke`` job exercises
    the same protocol against real ``popqc worker`` processes.
    """
    if capacities is not None and len(capacities) != num_hosts:
        raise ValueError(
            f"capacities has {len(capacities)} entries for {num_hosts} hosts"
        )
    hosts = [
        WorkerHost(
            capacity=capacities[i] if capacities else 1,
            auth_token=auth_token,
            cache_address=cache_address,
        ).start()
        for i in range(num_hosts)
    ]
    try:
        yield [host.address for host in hosts]
    finally:
        for host in hosts:
            host.stop()
