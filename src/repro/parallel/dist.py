"""Distributed socket transport: the packed wire format over TCP.

The transport ladder so far kept every byte on one machine: the
``encoded`` transport ships packed segments through an executor pipe,
``shm`` moves them through pooled shared-memory arenas, ``threads``
moves nothing at all.  This module adds the cluster rung from the
ROADMAP — the *same* packed bytes (:func:`repro.circuits.encoding.
pack_segment_into` / :func:`~repro.circuits.encoding.
unpack_segment_from`), carried over sockets to worker processes that
may live on other machines.

Three pieces:

* **A length-prefixed frame codec.**  Every message on the wire is one
  frame: a fixed 16-byte header (magic, frame type, payload length)
  followed by the payload.  Segment batches and result batches embed
  the flat segment wire format unchanged, so a segment's bytes are
  identical whether they land in a pipe, an arena or a TCP stream.
  :class:`FrameReader` is an incremental parser fed arbitrary
  ``recv`` chunks — partial frames simply wait for more bytes, and a
  stream that *ends* mid-frame raises :class:`FrameProtocolError`
  instead of yielding a torn message.
* **A worker host** (:class:`WorkerHost`): a TCP server loop, exposed
  as the ``popqc worker`` CLI subcommand, that accepts client
  connections, registers an oracle per connection through the same
  generation-token protocol the process transports use (a
  ``REGISTER`` frame carrying the pickled oracle and its generation;
  segment frames tagged with a different generation are refused with
  a typed error, never silently served), and answers batched segment
  frames with batched result frames.
* **A client-side host registry** (:class:`SocketHostPool`), used by
  :meth:`repro.parallel.ProcessMap.map_segments` when constructed
  with ``transport="socket"``: one connection (and one dispatcher
  thread) per worker host, round-robining the batches produced by
  :func:`repro.parallel.scheduling.batch_segments` across hosts
  through a shared work queue.  Heartbeat pings re-validate idle
  connections between rounds; a connection that dies mid-round has
  its in-flight batch *requeued* to the surviving hosts and is
  reconnected (and re-registered) for the next round, so a killed
  worker costs latency, never correctness.  When every host is gone
  the round fails with :class:`WorkerUnavailableError` — a typed,
  catchable failure, not a hang.

Results come back as flat packed segments and flow into
:class:`~repro.parallel.results.LazySegmentResult` unchanged, so lazy
decode and byte-identical equivalence hold on the socket transport
exactly as on the other four.  (Worker-side code in this module calls
the codec through *direct* imports rather than module attributes, so
the parent-side decode spies of ``tests/parallel/test_lazy_decode.py``
observe only what the driver decodes, even with in-process test
clusters.)

Frame layout (all integers little-endian)::

    frame      <4sBxxxQ: magic b"PQCF", frame type, payload nbytes
    REGISTER   <Q generation> + pickled oracle
    REGISTER_OK<QQ: generation, capacity>
    SEGMENTS   <QQQ: generation, batch id, count> + count packed segments
    RESULTS    <QQ: batch id, count> + count packed segments
    ERROR      <B kind> + utf-8 message
    PING/PONG  empty payload
    SHUTDOWN   empty payload
    JOB        <QIIQI4x: job tag, omega, num qubits + 1, max rounds + 1,
               priority> + the circuit as one packed segment
    RESULT     <QI: job tag, stats-JSON nbytes> + stats JSON
               -- pad to 8 -- + the optimized circuit as one packed segment
    STATUS     empty payload as a request; utf-8 JSON as the reply
    AUTH       the shared secret as utf-8 bytes  (client -> server)
    AUTH_OK    empty payload                     (server -> client)
    BUSY       <Bxxxd: reason kind, suggested retry-after seconds>
               + utf-8 message
    CACHE_LOOKUP <QQ: count, namespace nbytes> + namespace
               -- pad to 8 -- + count packed segments
    CACHE_RESULT <Q count> + count of (<Q value nbytes> + value
               -- pad to 8 --); a miss wires nbytes = CACHE_MISS
    CACHE_STORE  <QQ: count, namespace nbytes> + namespace
               -- pad to 8 -- + count of (one packed segment +
               <Q value nbytes> + value -- pad to 8 --)

AUTH is the shared-token handshake of *both* server protocols: a
``popqc worker`` or ``popqc serve`` process started with an auth token
refuses every other frame (typed ``ERR_AUTH`` error, connection
closed) until the connection presents the token, compared in constant
time.  BUSY is the optimization service's admission-control reply to a
JOB the server cannot take right now (active-job quota, per-client
quota, or a saturated scheduler queue); it names the reason and a
suggested retry delay, and :class:`repro.service.ServiceClient`
answers it with bounded exponential backoff.  JOB/RESULT/STATUS/BUSY
belong to the ``popqc serve`` optimization service
(:mod:`repro.service`), which speaks this codec on its own port; the
``popqc worker`` protocol never carries them.

CACHE_LOOKUP/CACHE_RESULT/CACHE_STORE are the **cluster cache tier**:
a ``popqc worker`` started with ``--cache HOST:PORT`` consults the
optimization service's server-side segment cache before running the
oracle on a batch, and publishes the results it did have to compute
back, so oracle work any host has paid for becomes a warm hit for
every other host.  The worker side is :class:`CacheClient`; the
service answers the frames out of its :class:`repro.service.
SegmentCache`.  A CACHE_STORE is acknowledged with an empty
CACHE_RESULT, so a worker's publishes are durably visible before its
RESULTS frame reaches the driver.  The tier degrades, never fails: an
unreachable cache server or a torn CACHE_RESULT reads as a miss and
the oracle runs locally (only an authentication refusal is surfaced,
per the AUTH rule above).

Packed segments are 8-byte-aligned blocks, so consecutive segments in
a SEGMENTS/RESULTS payload are walked with
:func:`~repro.circuits.encoding.packed_segment_span` alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import hmac
import logging
import pickle
import socket
import struct
import threading
import time
from collections import deque
from typing import Callable, Iterator, Optional, Sequence

from ..circuits.encoding import (
    EncodedSegment,
    pack_segment,
    packed_segment_span,
    unpack_segment_from,
)
from .executor import StaleOracleError, _oracle_encoded_result

__all__ = [
    "BUSY_MAX_ACTIVE",
    "BUSY_PEER_QUOTA",
    "BUSY_QUEUE_FULL",
    "CACHE_MISS",
    "FRAME_AUTH",
    "FRAME_AUTH_OK",
    "FRAME_BUSY",
    "FRAME_CACHE_LOOKUP",
    "FRAME_CACHE_RESULT",
    "FRAME_CACHE_STORE",
    "FRAME_ERROR",
    "FRAME_HEADER_SIZE",
    "FRAME_JOB",
    "FRAME_PING",
    "FRAME_PONG",
    "FRAME_REGISTER",
    "FRAME_REGISTER_OK",
    "FRAME_RESULT",
    "FRAME_RESULTS",
    "FRAME_SEGMENTS",
    "FRAME_SHUTDOWN",
    "FRAME_STATUS",
    "AuthenticationError",
    "CacheClient",
    "ConnectionClosedError",
    "FrameProtocolError",
    "FrameReader",
    "HostConnection",
    "RemoteOracleError",
    "SocketHostPool",
    "WorkerHost",
    "WorkerUnavailableError",
    "iter_results_payload",
    "join_segments_payload",
    "local_cluster",
    "pack_busy_payload",
    "pack_cache_lookup_payload",
    "pack_cache_result_payload",
    "pack_cache_store_payload",
    "pack_frame",
    "pack_job_payload",
    "pack_register_payload",
    "pack_result_payload",
    "pack_results_payload",
    "pack_segments_payload",
    "parse_address",
    "recv_frame",
    "split_results_payload",
    "unpack_busy_payload",
    "unpack_cache_lookup_payload",
    "unpack_cache_result_payload",
    "unpack_cache_store_payload",
    "unpack_job_payload",
    "unpack_register_payload",
    "unpack_result_payload",
    "unpack_segments_payload",
]


_log = logging.getLogger(__name__)


# -- frame codec ---------------------------------------------------------------

#: Magic prefix of every frame; a connection speaking anything else is
#: rejected at the first header.
FRAME_MAGIC = b"PQCF"

_FRAME_HEADER = struct.Struct("<4sBxxxQ")

#: Size of the fixed frame header in bytes — the number to add to a
#: payload length when accounting wire traffic, instead of a literal.
FRAME_HEADER_SIZE = _FRAME_HEADER.size

#: Frame types.
FRAME_REGISTER = 1
FRAME_REGISTER_OK = 2
FRAME_SEGMENTS = 3
FRAME_RESULTS = 4
FRAME_ERROR = 5
FRAME_PING = 6
FRAME_PONG = 7
FRAME_SHUTDOWN = 8
FRAME_JOB = 9
FRAME_RESULT = 10
FRAME_STATUS = 11
FRAME_AUTH = 12
FRAME_AUTH_OK = 13
FRAME_BUSY = 14
FRAME_CACHE_LOOKUP = 15
FRAME_CACHE_RESULT = 16
FRAME_CACHE_STORE = 17

_KNOWN_FRAMES = frozenset(
    (
        FRAME_REGISTER,
        FRAME_REGISTER_OK,
        FRAME_SEGMENTS,
        FRAME_RESULTS,
        FRAME_ERROR,
        FRAME_PING,
        FRAME_PONG,
        FRAME_SHUTDOWN,
        FRAME_JOB,
        FRAME_RESULT,
        FRAME_STATUS,
        FRAME_AUTH,
        FRAME_AUTH_OK,
        FRAME_BUSY,
        FRAME_CACHE_LOOKUP,
        FRAME_CACHE_RESULT,
        FRAME_CACHE_STORE,
    )
)

#: Upper bound on a frame payload (1 GiB); a corrupt length field must
#: fail loudly instead of waiting forever for bytes that never come.
MAX_FRAME_BYTES = 1 << 30

_SEGMENTS_HEADER = struct.Struct("<QQQ")  # generation, batch id, count
_RESULTS_HEADER = struct.Struct("<QQ")  # batch id, count
_REGISTER_HEADER = struct.Struct("<Q")  # generation
_REGISTER_OK_HEADER = struct.Struct("<QQ")  # generation, capacity
_ERROR_HEADER = struct.Struct("<B")  # error kind
_JOB_HEADER = struct.Struct(
    "<QIIQI4x"
)  # job tag, omega, num qubits + 1, max rounds + 1, priority (pad to 8)
_RESULT_HEADER = struct.Struct("<QI")  # job tag, stats-JSON nbytes
_BUSY_HEADER = struct.Struct("<Bxxxd")  # reason kind, retry-after seconds
_CACHE_BATCH_HEADER = struct.Struct("<QQ")  # entry count, namespace nbytes
_CACHE_VALUE_HEADER = struct.Struct("<Q")  # value nbytes (or CACHE_MISS)

#: Value-length sentinel in a CACHE_RESULT entry meaning "miss": the
#: cache tier has no bytes for that segment and the worker must run
#: the oracle itself.
CACHE_MISS = (1 << 64) - 1

#: Error kinds carried by ERROR frames.
ERR_STALE_ORACLE = 1
ERR_NO_ORACLE = 2
ERR_ORACLE_FAILED = 3
ERR_BAD_FRAME = 4
ERR_JOB_FAILED = 5
ERR_AUTH = 6

#: Reason kinds carried by BUSY frames (service admission control).
BUSY_MAX_ACTIVE = 1
BUSY_PEER_QUOTA = 2
BUSY_QUEUE_FULL = 3

#: Job priorities ride the wire as a small positive weight; anything a
#: client sends is clamped into this range before it buys fleet share.
MAX_PRIORITY = 16


class FrameProtocolError(RuntimeError):
    """The byte stream violates the frame protocol: bad magic, an
    unknown frame type, an implausible length, or a stream that ended
    in the middle of a frame."""


class ConnectionClosedError(RuntimeError):
    """The peer closed the connection cleanly at a frame boundary."""


class RemoteOracleError(RuntimeError):
    """The oracle raised an exception on the worker host; the message
    carries the remote ``repr``."""


class WorkerUnavailableError(RuntimeError):
    """No worker host could be reached (or every host died mid-round
    and reconnection failed), so the batch queue cannot drain."""


class AuthenticationError(RuntimeError):
    """The peer refused the connection's credentials: a missing or
    wrong AUTH token.  Never retried — a bad token fails identically
    everywhere, so reconnect loops must not absorb it."""


def pack_frame(frame_type: int, payload: bytes = b"") -> bytes:
    """One wire frame: 16-byte header followed by ``payload``."""
    return _FRAME_HEADER.pack(FRAME_MAGIC, frame_type, len(payload)) + payload


class FrameReader:
    """Incremental frame parser over arbitrarily split byte chunks.

    Feed it whatever ``recv`` returned; :meth:`next_frame` yields a
    complete ``(frame type, payload)`` pair when one is buffered and
    ``None`` while bytes are still missing.  The property-test suite
    drives this with every possible chunking of a frame stream.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> None:
        """Append raw received bytes to the parse buffer."""
        self._buf += data

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet consumed as a complete frame."""
        return len(self._buf)

    def next_frame(self) -> Optional[tuple[int, bytes]]:
        """The next complete frame, or ``None`` if more bytes are needed.

        Raises :class:`FrameProtocolError` on a corrupt header.
        """
        if len(self._buf) < _FRAME_HEADER.size:
            return None
        magic, frame_type, length = _FRAME_HEADER.unpack_from(self._buf, 0)
        if magic != FRAME_MAGIC:
            raise FrameProtocolError(f"bad frame magic {magic!r}")
        if frame_type not in _KNOWN_FRAMES:
            raise FrameProtocolError(f"unknown frame type {frame_type}")
        if length > MAX_FRAME_BYTES:
            raise FrameProtocolError(f"frame length {length} exceeds the cap")
        end = _FRAME_HEADER.size + length
        if len(self._buf) < end:
            return None
        payload = bytes(self._buf[_FRAME_HEADER.size : end])
        del self._buf[:end]
        return frame_type, payload


def recv_frame(sock: socket.socket, reader: FrameReader) -> tuple[int, bytes]:
    """Block until one complete frame arrives on ``sock``.

    Raises :class:`ConnectionClosedError` when the peer closes cleanly
    between frames and :class:`FrameProtocolError` when the stream ends
    mid-frame (a torn message must never be mistaken for a short one).
    """
    while True:
        frame = reader.next_frame()
        if frame is not None:
            return frame
        data = sock.recv(1 << 16)
        if not data:
            if reader.pending_bytes:
                raise FrameProtocolError(
                    f"connection closed mid-frame with "
                    f"{reader.pending_bytes} bytes pending"
                )
            raise ConnectionClosedError("connection closed")
        reader.feed(data)


# -- payload codecs ------------------------------------------------------------


def pack_register_payload(oracle_blob: bytes, generation: int) -> bytes:
    """REGISTER payload: generation header + the pickled oracle bytes."""
    return _REGISTER_HEADER.pack(generation) + oracle_blob


def unpack_register_payload(payload: bytes) -> tuple[int, object]:
    """(generation, oracle) from a REGISTER payload."""
    (generation,) = _REGISTER_HEADER.unpack_from(payload, 0)
    oracle = pickle.loads(payload[_REGISTER_HEADER.size :])
    return generation, oracle


def pack_segments_payload(
    generation: int, batch_id: int, encoded: Sequence[EncodedSegment]
) -> bytes:
    """SEGMENTS payload: header + the batch in the flat wire format."""
    return join_segments_payload(
        generation, batch_id, [pack_segment(enc) for enc in encoded]
    )


def join_segments_payload(
    generation: int, batch_id: int, packed: Sequence[bytes]
) -> bytes:
    """SEGMENTS payload of segments that are packed already."""
    head = _SEGMENTS_HEADER.pack(generation, batch_id, len(packed))
    return head + b"".join(packed)


def unpack_segments_payload(
    payload: bytes,
) -> tuple[int, int, list[EncodedSegment]]:
    """(generation, batch id, segments) from a SEGMENTS payload.

    The returned segments are zero-copy views into ``payload``.
    Raises :class:`FrameProtocolError` when the declared count walks
    past the end of the payload.
    """
    if len(payload) < _SEGMENTS_HEADER.size:
        raise FrameProtocolError("SEGMENTS payload shorter than its header")
    generation, batch_id, count = _SEGMENTS_HEADER.unpack_from(payload, 0)
    pos = _SEGMENTS_HEADER.size
    segments: list[EncodedSegment] = []
    try:
        for _ in range(count):
            segment, pos = unpack_segment_from(payload, pos)
            segments.append(segment)
    except (struct.error, ValueError) as exc:
        raise FrameProtocolError(f"torn SEGMENTS payload: {exc}") from exc
    if pos > len(payload):
        raise FrameProtocolError("SEGMENTS payload truncated mid-segment")
    return generation, batch_id, segments


def pack_results_payload(batch_id: int, packed_results: Sequence[bytes]) -> bytes:
    """RESULTS payload: header + each result's packed bytes, in order."""
    head = _RESULTS_HEADER.pack(batch_id, len(packed_results))
    return head + b"".join(packed_results)


def split_results_payload(payload: bytes) -> tuple[int, list[bytes]]:
    """(batch id, per-segment packed blobs) from a RESULTS payload.

    Splits on :func:`packed_segment_span` header reads only — no
    per-gate decoding, preserving result laziness end to end.
    """
    blobs = [blob for _, blob in iter_results_payload(payload)]
    return _RESULTS_HEADER.unpack_from(payload, 0)[0], blobs


def iter_results_payload(payload: bytes) -> Iterator[tuple[int, bytes]]:
    """``(gate count, packed blob)`` of each result in a RESULTS payload.

    The gate count is what the header walk reads anyway; handing it on
    spares :meth:`LazySegmentResult.from_packed` a second parse.
    """
    if len(payload) < _RESULTS_HEADER.size:
        raise FrameProtocolError("RESULTS payload shorter than its header")
    _batch_id, count = _RESULTS_HEADER.unpack_from(payload, 0)
    pos = _RESULTS_HEADER.size
    try:
        for _ in range(count):
            length, end = packed_segment_span(payload, pos)
            if end > len(payload):
                raise FrameProtocolError("RESULTS payload truncated mid-segment")
            yield length, payload[pos:end]
            pos = end
    except struct.error as exc:
        raise FrameProtocolError(f"torn RESULTS payload: {exc}") from exc


def pack_error_payload(kind: int, message: str) -> bytes:
    """ERROR payload: kind byte + utf-8 message."""
    return _ERROR_HEADER.pack(kind) + message.encode("utf-8")


def pack_busy_payload(kind: int, retry_after: float, message: str) -> bytes:
    """BUSY payload: reason kind + suggested retry delay + utf-8 message."""
    return _BUSY_HEADER.pack(kind, retry_after) + message.encode("utf-8")


def unpack_busy_payload(payload: bytes) -> tuple[int, float, str]:
    """(reason kind, retry-after seconds, message) from a BUSY payload."""
    if len(payload) < _BUSY_HEADER.size:
        raise FrameProtocolError("BUSY payload shorter than its header")
    kind, retry_after = _BUSY_HEADER.unpack_from(payload, 0)
    message = payload[_BUSY_HEADER.size :].decode("utf-8", "replace")
    return kind, retry_after, message


def unpack_error_payload(payload: bytes) -> tuple[int, str]:
    """(kind, message) from an ERROR payload."""
    (kind,) = _ERROR_HEADER.unpack_from(payload, 0)
    return kind, payload[_ERROR_HEADER.size :].decode("utf-8", "replace")


def pack_job_payload(
    job_tag: int,
    omega: int,
    num_qubits: Optional[int],
    max_rounds: Optional[int],
    encoded: EncodedSegment,
    priority: int = 1,
) -> bytes:
    """JOB payload: job header + the circuit as one packed segment.

    ``job_tag`` is a client-chosen identifier echoed in the RESULT
    frame.  ``num_qubits`` and ``max_rounds`` both wire ``None`` as 0
    and a value ``v`` as ``v + 1``, so an explicit 0 (a legal
    ``max_rounds`` meaning "zero rounds") survives the trip.
    ``priority`` is the job's scheduling weight (1..``MAX_PRIORITY``;
    clamped on both ends of the wire): a priority-4 job draws roughly
    4x the fleet share of a priority-1 job in each merged round.
    """
    head = _JOB_HEADER.pack(
        job_tag,
        omega,
        0 if num_qubits is None else num_qubits + 1,
        0 if max_rounds is None else max_rounds + 1,
        min(MAX_PRIORITY, max(1, priority)),
    )
    return head + pack_segment(encoded)


def unpack_job_payload(
    payload: bytes,
) -> tuple[int, int, Optional[int], Optional[int], EncodedSegment, int]:
    """(job tag, omega, num qubits, max rounds, circuit, priority)
    from a JOB payload.

    The circuit comes back as a zero-copy :class:`EncodedSegment` view
    into ``payload``.  The priority is clamped into
    ``[1, MAX_PRIORITY]`` — the sender is untrusted, and a forged
    weight must never buy more than the documented maximum share.
    Raises :class:`FrameProtocolError` on a torn payload.
    """
    if len(payload) < _JOB_HEADER.size:
        raise FrameProtocolError("JOB payload shorter than its header")
    job_tag, omega, nq1, mr1, priority = _JOB_HEADER.unpack_from(payload, 0)
    try:
        encoded, end = unpack_segment_from(payload, _JOB_HEADER.size)
    except (struct.error, ValueError) as exc:
        raise FrameProtocolError(f"torn JOB payload: {exc}") from exc
    if end > len(payload):
        raise FrameProtocolError("JOB payload truncated mid-circuit")
    return (
        job_tag,
        omega,
        nq1 - 1 if nq1 else None,
        mr1 - 1 if mr1 else None,
        encoded,
        min(MAX_PRIORITY, max(1, priority)),
    )


def pack_result_payload(
    job_tag: int, stats_json: bytes, encoded: EncodedSegment
) -> bytes:
    """RESULT payload: header + stats JSON + the packed optimized circuit.

    The packed circuit starts at the first 8-aligned offset after the
    JSON, so consecutive reads stay on the wire format's natural
    alignment.
    """
    head = _RESULT_HEADER.pack(job_tag, len(stats_json))
    gap = bytes(-(_RESULT_HEADER.size + len(stats_json)) % 8)
    return head + stats_json + gap + pack_segment(encoded)


def unpack_result_payload(
    payload: bytes,
) -> tuple[int, bytes, EncodedSegment]:
    """(job tag, stats JSON bytes, circuit) from a RESULT payload."""
    if len(payload) < _RESULT_HEADER.size:
        raise FrameProtocolError("RESULT payload shorter than its header")
    job_tag, json_len = _RESULT_HEADER.unpack_from(payload, 0)
    pos = _RESULT_HEADER.size + json_len
    if pos > len(payload):
        raise FrameProtocolError("RESULT payload shorter than its stats JSON")
    stats_json = bytes(payload[_RESULT_HEADER.size : pos])
    start = pos + (-pos) % 8
    try:
        encoded, end = unpack_segment_from(payload, start)
    except (struct.error, ValueError) as exc:
        raise FrameProtocolError(f"torn RESULT payload: {exc}") from exc
    if end > len(payload):
        raise FrameProtocolError("RESULT payload truncated mid-circuit")
    return job_tag, stats_json, encoded


def pack_cache_lookup_payload(
    namespace: bytes, packed_segments: Sequence[bytes]
) -> bytes:
    """CACHE_LOOKUP payload: batch header + namespace + packed segments.

    The namespace is the oracle's cache namespace (the blake2b digest
    of the pickled-oracle REGISTER blob), so two workers registered
    with byte-identical oracles share cache lines and any other oracle
    cannot collide with them.  Key derivation stays server-side — the
    payload carries raw packed segment bytes, never keys.
    """
    head = _CACHE_BATCH_HEADER.pack(len(packed_segments), len(namespace))
    parts = [head, namespace, b"\x00" * ((-len(namespace)) % 8)]
    parts.extend(packed_segments)
    return b"".join(parts)


def unpack_cache_lookup_payload(payload: bytes) -> tuple[bytes, list[bytes]]:
    """(namespace, packed segments) from a CACHE_LOOKUP payload.

    Raises :class:`FrameProtocolError` on a torn payload — a lookup
    request the server cannot parse is refused, not guessed at.
    """
    if len(payload) < _CACHE_BATCH_HEADER.size:
        raise FrameProtocolError("CACHE_LOOKUP payload shorter than its header")
    count, ns_len = _CACHE_BATCH_HEADER.unpack_from(payload, 0)
    pos = _CACHE_BATCH_HEADER.size
    if pos + ns_len > len(payload):
        raise FrameProtocolError("CACHE_LOOKUP payload truncated in its namespace")
    namespace = bytes(payload[pos : pos + ns_len])
    pos += ns_len + (-ns_len) % 8
    packed: list[bytes] = []
    try:
        for _ in range(count):
            _, end = packed_segment_span(payload, pos)
            if end > len(payload):
                raise FrameProtocolError(
                    "CACHE_LOOKUP payload truncated mid-segment"
                )
            packed.append(bytes(payload[pos:end]))
            pos = end
    except struct.error as exc:
        raise FrameProtocolError(f"torn CACHE_LOOKUP payload: {exc}") from exc
    return namespace, packed


def pack_cache_result_payload(values: Sequence[Optional[bytes]]) -> bytes:
    """CACHE_RESULT payload: count + each value (``None`` wires a miss).

    An empty payload (count 0) doubles as the CACHE_STORE acknowledge.
    """
    parts = [_CACHE_VALUE_HEADER.pack(len(values))]
    for value in values:
        if value is None:
            parts.append(_CACHE_VALUE_HEADER.pack(CACHE_MISS))
        else:
            parts.append(_CACHE_VALUE_HEADER.pack(len(value)))
            parts.append(value)
            parts.append(b"\x00" * ((-len(value)) % 8))
    return b"".join(parts)


def unpack_cache_result_payload(payload: bytes) -> list[Optional[bytes]]:
    """Cached values (``None`` per miss) from a CACHE_RESULT payload.

    Deliberately lenient where every other unpacker is strict: the
    cache tier is an optimization, so a torn CACHE_RESULT must read as
    *misses*, never as an error that fails the batch.  A truncated
    entry — and everything after it, since nothing beyond a tear is
    trustworthy — comes back as ``None`` and the worker simply runs
    the oracle for those segments.
    """
    if len(payload) < _CACHE_VALUE_HEADER.size:
        return []
    (count,) = _CACHE_VALUE_HEADER.unpack_from(payload, 0)
    # A forged count cannot cost memory: every wired entry takes at
    # least one value header, so cap by what the payload could hold.
    limit = (len(payload) - _CACHE_VALUE_HEADER.size) // _CACHE_VALUE_HEADER.size
    count = min(count, max(0, limit))
    values: list[Optional[bytes]] = []
    pos = _CACHE_VALUE_HEADER.size
    for _ in range(count):
        if pos + _CACHE_VALUE_HEADER.size > len(payload):
            values.append(None)  # torn: reads as a miss
            continue
        (nbytes,) = _CACHE_VALUE_HEADER.unpack_from(payload, pos)
        pos += _CACHE_VALUE_HEADER.size
        if nbytes == CACHE_MISS:
            values.append(None)
            continue
        end = pos + nbytes
        if nbytes > MAX_FRAME_BYTES or end > len(payload):
            values.append(None)
            pos = len(payload)  # torn mid-value: the rest is garbage
            continue
        values.append(bytes(payload[pos:end]))
        pos = end + (-nbytes) % 8
    return values


def pack_cache_store_payload(
    namespace: bytes, entries: Sequence[tuple[bytes, bytes]]
) -> bytes:
    """CACHE_STORE payload: header + namespace + (segment, value) pairs.

    Each entry is the packed segment the worker was asked about
    followed by the packed result bytes its oracle produced, so the
    server derives the cache key exactly as the daemon-side cache
    front does and the stored bytes are byte-identical either way.
    """
    head = _CACHE_BATCH_HEADER.pack(len(entries), len(namespace))
    parts = [head, namespace, b"\x00" * ((-len(namespace)) % 8)]
    for packed, value in entries:
        parts.append(packed)
        parts.append(_CACHE_VALUE_HEADER.pack(len(value)))
        parts.append(value)
        parts.append(b"\x00" * ((-len(value)) % 8))
    return b"".join(parts)


def unpack_cache_store_payload(
    payload: bytes,
) -> tuple[bytes, list[tuple[bytes, bytes]]]:
    """(namespace, (segment, value) pairs) from a CACHE_STORE payload.

    Strict: a torn store is refused with
    :class:`FrameProtocolError` — the server must never insert bytes
    it cannot account for into the shared cache.
    """
    if len(payload) < _CACHE_BATCH_HEADER.size:
        raise FrameProtocolError("CACHE_STORE payload shorter than its header")
    count, ns_len = _CACHE_BATCH_HEADER.unpack_from(payload, 0)
    pos = _CACHE_BATCH_HEADER.size
    if pos + ns_len > len(payload):
        raise FrameProtocolError("CACHE_STORE payload truncated in its namespace")
    namespace = bytes(payload[pos : pos + ns_len])
    pos += ns_len + (-ns_len) % 8
    entries: list[tuple[bytes, bytes]] = []
    try:
        for _ in range(count):
            _, end = packed_segment_span(payload, pos)
            if end + _CACHE_VALUE_HEADER.size > len(payload):
                raise FrameProtocolError(
                    "CACHE_STORE payload truncated mid-segment"
                )
            packed = bytes(payload[pos:end])
            (nbytes,) = _CACHE_VALUE_HEADER.unpack_from(payload, end)
            pos = end + _CACHE_VALUE_HEADER.size
            if nbytes > MAX_FRAME_BYTES or pos + nbytes > len(payload):
                raise FrameProtocolError("CACHE_STORE payload truncated mid-value")
            entries.append((packed, bytes(payload[pos : pos + nbytes])))
            pos += nbytes + (-nbytes) % 8
    except struct.error as exc:
        raise FrameProtocolError(f"torn CACHE_STORE payload: {exc}") from exc
    return namespace, entries


def parse_address(spec: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (host defaults to loopback)."""
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {spec!r}")
    return host or "127.0.0.1", int(port)


def _raise_remote_error(payload: bytes) -> None:
    """Turn an ERROR frame into the matching typed client exception."""
    kind, message = unpack_error_payload(payload)
    if kind == ERR_STALE_ORACLE:
        raise StaleOracleError(message)
    if kind == ERR_ORACLE_FAILED:
        raise RemoteOracleError(message)
    if kind == ERR_AUTH:
        raise AuthenticationError(message)
    raise FrameProtocolError(f"worker refused the frame (kind {kind}): {message}")


# -- worker host (server side) -------------------------------------------------


class WorkerHost:
    """TCP server answering segment-batch frames with result frames.

    One handler thread per client connection; each connection carries
    its own oracle registration (REGISTER frame, pickled oracle +
    generation token).  SEGMENTS frames tagged with any other
    generation are answered with a typed ``stale oracle`` error frame,
    mirroring :class:`~repro.parallel.StaleOracleError` on the process
    transports.  ``port=0`` binds an ephemeral port; :attr:`address`
    reports the bound endpoint either way.

    ``capacity`` advertises how many batches this host comfortably
    serves at once (its core count, typically — ``popqc worker
    --capacity``).  It is reported to every client in the REGISTER
    reply, and :class:`SocketHostPool` weights its round-robin by it,
    so a 16-core host in a heterogeneous cluster draws 4x the batches
    of a 4-core one instead of an equal share.

    ``auth_token`` (``popqc worker --auth-token``) demands an AUTH
    frame carrying the shared secret before any other frame is
    accepted on a connection; the compare is constant-time, and a
    missing or wrong token is refused with a typed ``ERR_AUTH`` error
    and a closed connection.  ``idle_timeout_seconds`` bounds how long
    a handler thread blocks waiting for a client's next frame, so a
    slow-loris connection (opened, then silent) cannot pin a thread
    for the life of the process.

    ``cache_address`` (``popqc worker --cache``) points the host at a
    ``popqc serve`` daemon's segment cache, making that cache a
    cluster-shared tier: before running the oracle on a batch the host
    asks the cache for each segment (CACHE_LOOKUP) and afterwards
    publishes what it had to compute (CACHE_STORE), so a segment any
    host in the fleet has optimized is a warm hit for all of them.
    The cache namespace is the blake2b digest of the raw REGISTER
    blob — byte-identical to the daemon's own
    :func:`~repro.parallel.executor.oracle_fingerprint`, because the
    pool ships ``pickle.dumps(oracle)`` verbatim.  Cache failures
    degrade to plain oracle execution (counted in ``cache_errors``);
    an authentication refusal from the cache tier permanently disables
    it for this host, since a bad token fails identically forever.

    Attributes
    ----------
    segments_served / batches_served:
        Totals across all connections (for the CLI status line).
    bytes_received / bytes_sent:
        Frame bytes in and out, payloads included.
    auth_failures:
        Connections refused for a missing or wrong AUTH token.
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
        self.capacity = capacity
        self._auth_token = (
            auth_token.encode("utf-8") if auth_token is not None else None
        )
        self.idle_timeout_seconds = idle_timeout_seconds
        self.auth_failures = 0
        self.cache_address = cache_address
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_stores = 0
        self._cache_error_count = 0
        self._cache: Optional["CacheClient"] = (
            CacheClient(cache_address, auth_token=auth_token)
            if cache_address is not None
            else None
        )
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self.segments_served = 0
        self.batches_served = 0
        self.bytes_received = 0
        self.bytes_sent = 0
        self._lock = threading.Lock()
        self._closing = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: list[threading.Thread] = []
        self._conns: list[socket.socket] = []

    @property
    def address(self) -> str:
        """The bound endpoint as ``"host:port"``."""
        return f"{self.host}:{self.port}"

    @property
    def cache_errors(self) -> int:
        """Cache-tier failures observed: the live client's transport
        errors plus any permanent auth-refusal disablement."""
        cache = self._cache
        return self._cache_error_count + (
            cache.errors if cache is not None else 0
        )

    def serve_forever(self) -> None:
        """Accept and serve connections until :meth:`stop` (blocking)."""
        while not self._closing.is_set():
            try:
                conn, _peer = self._listener.accept()
            except OSError:  # listener shut down by stop()
                break
            if self._closing.is_set():
                # accept() raced stop(): refuse, don't serve
                with contextlib.suppress(OSError):
                    conn.close()
                break
            if self.idle_timeout_seconds is not None:
                conn.settimeout(self.idle_timeout_seconds)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            # both mutations under the lock: stop() snapshots these
            # lists from another thread, and pruning finished handlers
            # here keeps a high-churn client from growing them forever
            with self._lock:
                self._conns.append(conn)
                self._conn_threads = [
                    t for t in self._conn_threads if t.is_alive()
                ]
                self._conn_threads.append(thread)
            thread.start()

    def start(self) -> "WorkerHost":
        """Serve in a daemon thread (for in-process clusters); returns self."""
        self._accept_thread = threading.Thread(
            target=self.serve_forever, daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Close the listener and every open connection (idempotent).

        Clients blocked on a reply observe the close as a dropped
        connection — exactly the fault the client registry is built to
        absorb, which is why the fault-injection suite stops hosts
        mid-round with this method.
        """
        self._closing.set()
        # shutdown() (not just close()) wakes a thread blocked in
        # accept(): on Linux, close() alone leaves the in-flight accept
        # holding the listening socket open, silently accepting the
        # very reconnects a stopped host must refuse
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._listener.close()
        with self._lock:
            conns, self._conns = self._conns, []
            threads = list(self._conn_threads)
        for conn in conns:
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                conn.close()
        for thread in threads:
            thread.join(timeout=1.0)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)
        cache = self._cache
        if cache is not None:
            cache.close()

    # -- connection handling ---------------------------------------------------

    def _send(self, conn: socket.socket, frame: bytes) -> None:
        conn.sendall(frame)
        with self._lock:
            self.bytes_sent += len(frame)

    def _check_auth(self, payload: bytes) -> bool:
        """Constant-time validation of one AUTH payload."""
        if self._auth_token is None:
            return True  # no token configured: AUTH is a friendly no-op
        return hmac.compare_digest(payload, self._auth_token)

    def _serve_connection(self, conn: socket.socket) -> None:
        """Serve one client until it disconnects or the host stops."""
        reader = FrameReader()
        oracle: Optional[Callable] = None
        generation = -1
        namespace: Optional[bytes] = None
        authed = self._auth_token is None
        try:
            while True:
                frame_type, payload = self._recv(conn, reader)
                if frame_type == FRAME_AUTH:
                    if self._check_auth(payload):
                        authed = True
                        self._send(conn, pack_frame(FRAME_AUTH_OK))
                        continue
                    with self._lock:
                        self.auth_failures += 1
                    self._send(
                        conn,
                        pack_frame(
                            FRAME_ERROR,
                            pack_error_payload(ERR_AUTH, "invalid auth token"),
                        ),
                    )
                    return  # wrong secret: drop the connection
                if not authed:
                    with self._lock:
                        self.auth_failures += 1
                    self._send(
                        conn,
                        pack_frame(
                            FRAME_ERROR,
                            pack_error_payload(
                                ERR_AUTH,
                                "authentication required before any "
                                "other frame",
                            ),
                        ),
                    )
                    return
                if frame_type == FRAME_REGISTER:
                    try:
                        generation, oracle = unpack_register_payload(payload)
                    except Exception as exc:  # torn header / corrupt pickle
                        self._send(
                            conn,
                            pack_frame(
                                FRAME_ERROR,
                                pack_error_payload(
                                    ERR_BAD_FRAME,
                                    f"bad REGISTER payload: {exc!r}",
                                ),
                            ),
                        )
                        continue  # previous registration stays in force
                    # cache namespace off the *raw* blob: byte-identical
                    # to the driver-side oracle_fingerprint, which hashes
                    # the same pickle.dumps(oracle) bytes the pool sent
                    namespace = hashlib.blake2b(
                        payload[_REGISTER_HEADER.size :], digest_size=16
                    ).digest()
                    self._send(
                        conn,
                        pack_frame(
                            FRAME_REGISTER_OK,
                            _REGISTER_OK_HEADER.pack(generation, self.capacity),
                        ),
                    )
                elif frame_type == FRAME_PING:
                    self._send(conn, pack_frame(FRAME_PONG))
                elif frame_type == FRAME_SEGMENTS:
                    self._send(
                        conn,
                        self._answer_segments(
                            payload, oracle, generation, namespace
                        ),
                    )
                elif frame_type == FRAME_SHUTDOWN:
                    return
                else:
                    self._send(
                        conn,
                        pack_frame(
                            FRAME_ERROR,
                            pack_error_payload(
                                ERR_BAD_FRAME,
                                f"unexpected frame type {frame_type}",
                            ),
                        ),
                    )
        except (ConnectionClosedError, FrameProtocolError, OSError):
            return  # client went away; nothing to answer
        finally:
            with self._lock:
                if conn in self._conns:
                    self._conns.remove(conn)
            with contextlib.suppress(OSError):
                conn.close()

    def _recv(self, conn: socket.socket, reader: FrameReader) -> tuple[int, bytes]:
        frame_type, payload = recv_frame(conn, reader)
        with self._lock:
            self.bytes_received += _FRAME_HEADER.size + len(payload)
        return frame_type, payload

    def _cache_lookup(
        self, namespace: bytes, packed_in: list[bytes]
    ) -> Optional[list[Optional[bytes]]]:
        """Batch-consult the cluster cache; ``None`` when the tier is off."""
        cache = self._cache
        if cache is None:
            return None
        try:
            return cache.lookup(namespace, packed_in)
        except AuthenticationError:
            self._disable_cache()
            return None

    def _cache_store(
        self, namespace: bytes, entries: list[tuple[bytes, bytes]]
    ) -> bool:
        """Publish computed results back to the cluster cache.

        Returns whether the publish was acknowledged (an unreachable
        or refusing cache is a degradation, not a failure).
        """
        cache = self._cache
        if cache is None or not entries:
            return False
        try:
            return cache.store(namespace, entries)
        except AuthenticationError:
            self._disable_cache()
            return False

    def _disable_cache(self) -> None:
        """Drop the cache tier: its server refuses our token, and a bad
        token fails identically on every future request."""
        _log.warning(
            "cluster cache at %s refused authentication; disabling the "
            "cache tier for this worker",
            self.cache_address,
        )
        cache, self._cache = self._cache, None
        if cache is not None:
            cache.close()
            with self._lock:
                # fold the dropped client's tally into the permanent
                # count so cache_errors never goes backwards
                self._cache_error_count += cache.errors + 1
        else:
            with self._lock:
                self._cache_error_count += 1

    def _answer_segments(
        self,
        payload: bytes,
        oracle: Optional[Callable],
        generation: int,
        namespace: Optional[bytes] = None,
    ) -> bytes:
        """The reply frame for one SEGMENTS request.

        With a cluster cache configured, the oracle runs only on the
        segments the cache does not already hold; everything this host
        did compute is published back before the RESULTS frame is
        sent, so the publish is durably visible to other hosts by the
        time the driver sees the round complete.
        """
        try:
            got_generation, batch_id, segments = unpack_segments_payload(payload)
        except FrameProtocolError as exc:
            return pack_frame(
                FRAME_ERROR, pack_error_payload(ERR_BAD_FRAME, str(exc))
            )
        if oracle is None:
            return pack_frame(
                FRAME_ERROR,
                pack_error_payload(
                    ERR_NO_ORACLE, "no oracle registered on this connection"
                ),
            )
        if got_generation != generation:
            return pack_frame(
                FRAME_ERROR,
                pack_error_payload(
                    ERR_STALE_ORACLE,
                    f"batch expects oracle generation {got_generation}, "
                    f"connection registered {generation}",
                ),
            )
        cached: Optional[list[Optional[bytes]]] = None
        packed_in: list[bytes] = []
        if self._cache is not None and namespace is not None:
            packed_in = [pack_segment(segment) for segment in segments]
            cached = self._cache_lookup(namespace, packed_in)
        try:
            results: list[bytes] = []
            store_entries: list[tuple[bytes, bytes]] = []
            for i, segment in enumerate(segments):
                hit = cached[i] if cached is not None else None
                if hit is not None:
                    results.append(hit)
                    continue
                out = pack_segment(_oracle_encoded_result(oracle, segment))
                results.append(out)
                if cached is not None:
                    store_entries.append((packed_in[i], out))
        except Exception as exc:  # noqa: BLE001 - forwarded to the client
            return pack_frame(
                FRAME_ERROR, pack_error_payload(ERR_ORACLE_FAILED, repr(exc))
            )
        stored = False
        if namespace is not None:
            stored = self._cache_store(namespace, store_entries)
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


# -- client side ---------------------------------------------------------------


class HostConnection:
    """One client connection to a :class:`WorkerHost`.

    Request/response is synchronous per connection (the registry runs
    one dispatcher thread per host, so the cluster as a whole is
    parallel).  Byte counters feed the executor's wire statistics.
    """

    def __init__(
        self,
        address: str,
        connect_timeout: float = 5.0,
        request_timeout: Optional[float] = 120.0,
        auth_token: Optional[str] = None,
    ):
        self.address = address
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.auth_token = auth_token
        self.bytes_sent = 0
        self.bytes_received = 0
        self.last_used = 0.0
        #: Batches this host advertises it can serve at once (from the
        #: REGISTER reply; 1 until a registration succeeds).
        self.capacity = 1
        self._sock: Optional[socket.socket] = None
        self._reader = FrameReader()

    @property
    def connected(self) -> bool:
        """Whether a socket is currently open (not a liveness probe)."""
        return self._sock is not None

    def connect(self) -> None:
        """Open the TCP connection (no-op when already open).

        When an ``auth_token`` is configured the AUTH handshake runs
        as part of connecting, so every reconnect re-authenticates
        before any other frame; a refused token raises
        :class:`AuthenticationError` (and is never retried).
        """
        if self._sock is not None:
            return
        host, port = parse_address(self.address)
        sock = socket.create_connection((host, port), timeout=self.connect_timeout)
        sock.settimeout(self.request_timeout)
        self._sock = sock
        self._reader = FrameReader()
        self.last_used = time.monotonic()
        if self.auth_token is not None:
            try:
                self._authenticate()
            except BaseException:
                self.close()
                raise

    def _authenticate(self) -> None:
        """Present the shared token; expect AUTH_OK."""
        frame_type, payload = self._request(
            pack_frame(FRAME_AUTH, self.auth_token.encode("utf-8"))
        )
        if frame_type == FRAME_ERROR:
            _raise_remote_error(payload)
        if frame_type != FRAME_AUTH_OK:
            raise FrameProtocolError(
                f"expected AUTH_OK, got frame type {frame_type}"
            )

    def close(self) -> None:
        """Close the socket (idempotent)."""
        if self._sock is not None:
            with contextlib.suppress(OSError):
                self._sock.close()
            self._sock = None

    def _request(self, frame: bytes) -> tuple[int, bytes]:
        """Send one frame and block for the peer's reply frame."""
        if self._sock is None:
            raise WorkerUnavailableError(f"{self.address} is not connected")
        self._sock.sendall(frame)
        self.bytes_sent += len(frame)
        frame_type, payload = recv_frame(self._sock, self._reader)
        self.bytes_received += _FRAME_HEADER.size + len(payload)
        self.last_used = time.monotonic()
        return frame_type, payload

    def register(self, oracle_blob: bytes, generation: int) -> None:
        """Install a pickled oracle + generation on the worker.

        The REGISTER reply also carries the host's advertised capacity
        (kept in :attr:`capacity`; pre-capacity workers whose reply has
        no capacity field read as 1).
        """
        frame_type, payload = self._request(
            pack_frame(FRAME_REGISTER, pack_register_payload(oracle_blob, generation))
        )
        if frame_type == FRAME_ERROR:
            _raise_remote_error(payload)
        if frame_type != FRAME_REGISTER_OK:
            raise FrameProtocolError(
                f"expected REGISTER_OK, got frame type {frame_type}"
            )
        if len(payload) >= _REGISTER_OK_HEADER.size:
            echoed, capacity = _REGISTER_OK_HEADER.unpack_from(payload, 0)
            self.capacity = max(1, capacity)
        else:
            (echoed,) = _REGISTER_HEADER.unpack_from(payload, 0)
            self.capacity = 1
        if echoed != generation:
            raise FrameProtocolError(
                f"worker acknowledged generation {echoed}, expected {generation}"
            )

    def ping(self) -> None:
        """Heartbeat round trip; raises if the connection is dead."""
        frame_type, payload = self._request(pack_frame(FRAME_PING))
        if frame_type == FRAME_ERROR:
            _raise_remote_error(payload)
        if frame_type != FRAME_PONG:
            raise FrameProtocolError(f"expected PONG, got frame type {frame_type}")

    def run_batch(self, batch_id: int, payload: bytes) -> list[bytes]:
        """Send one SEGMENTS payload; return the per-segment result blobs."""
        frame_type, reply = self._request(pack_frame(FRAME_SEGMENTS, payload))
        if frame_type == FRAME_ERROR:
            _raise_remote_error(reply)
        if frame_type != FRAME_RESULTS:
            raise FrameProtocolError(
                f"expected RESULTS, got frame type {frame_type}"
            )
        got_batch, blobs = split_results_payload(reply)
        if got_batch != batch_id:
            raise FrameProtocolError(
                f"result batch {got_batch} does not match request {batch_id}"
            )
        return blobs

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.connected else "down"
        return f"HostConnection({self.address}, {state})"


#: Connection failures the registry absorbs by requeueing + reconnect.
_HOST_FAILURES = (OSError, ConnectionClosedError, FrameProtocolError)


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
        self._conn = HostConnection(
            address, connect_timeout, request_timeout, auth_token
        )

    @property
    def bytes_sent(self) -> int:
        """Frame bytes sent to the cache server."""
        return self._conn.bytes_sent

    @property
    def bytes_received(self) -> int:
        """Frame bytes received from the cache server."""
        return self._conn.bytes_received

    def _exchange(self, frame: bytes) -> Optional[tuple[int, bytes]]:
        """One request/reply on the shared connection, or ``None`` on a
        transport failure (counted, with the backoff window armed)."""
        if time.monotonic() < self._down_until:
            return None
        try:
            self._conn.connect()
            return self._conn._request(frame)
        except AuthenticationError:
            raise
        except _HOST_FAILURES:
            self.errors += 1
            self._down_until = time.monotonic() + self.retry_seconds
            self._conn.close()
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
            reply = self._exchange(
                pack_frame(
                    FRAME_CACHE_LOOKUP,
                    pack_cache_lookup_payload(namespace, packed_segments),
                )
            )
            if reply is None:
                return all_miss
            frame_type, payload = reply
            if frame_type == FRAME_ERROR:
                self.errors += 1
                _raise_remote_error_auth_only(payload)
                return all_miss
            if frame_type != FRAME_CACHE_RESULT:
                self.errors += 1
                self._conn.close()
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
            reply = self._exchange(
                pack_frame(
                    FRAME_CACHE_STORE,
                    pack_cache_store_payload(namespace, entries),
                )
            )
            if reply is None:
                return False
            frame_type, payload = reply
            if frame_type == FRAME_CACHE_RESULT:
                self.stores += len(entries)
                return True
            self.errors += 1
            if frame_type == FRAME_ERROR:
                _raise_remote_error_auth_only(payload)
            else:
                self._conn.close()
            return False

    def close(self) -> None:
        """Close the connection (idempotent)."""
        self._conn.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CacheClient({self.address}, hits={self.hits}, "
            f"misses={self.misses}, errors={self.errors})"
        )


def _raise_remote_error_auth_only(payload: bytes) -> None:
    """Re-raise an ERROR reply only when it is an auth refusal; any
    other refusal is a degradation the cache client absorbs."""
    kind, message = unpack_error_payload(payload)
    if kind == ERR_AUTH:
        raise AuthenticationError(message)


class SocketHostPool:
    """Client-side registry of worker hosts with failover dispatch.

    ``run_round`` splits the round's batches into **per-host queues**
    by capacity-weighted round-robin (a host advertising 4x the
    capacity is dealt roughly 4x the batches), then drains them with
    one dispatcher thread per connected host.  Each dispatcher takes
    up to its host's advertised ``capacity`` batches per trip (capped
    at a fair share of everything still queued, so a big host never
    hoards the tail while smaller live hosts idle) — and when its own
    queue runs dry it **steals** from the tail of the deepest peer
    queue instead of idling, so a mis-sized initial split or a slow
    host costs tail latency, not throughput.  A host failing mid-batch
    has its untried batches requeued *to its own queue* — the peers
    steal them, which is the same path whether the host died holding
    dealt work or stolen work — and is reconnected (and re-registered
    with the current oracle) so it can rejoin; when no host remains
    the round raises :class:`WorkerUnavailableError`.
    Remote stale-generation refusals surface as
    :class:`~repro.parallel.StaleOracleError` and oracle exceptions as
    :class:`RemoteOracleError` — both abort the round instead of being
    retried, because they would fail identically everywhere.

    The pool is **elastic**: :meth:`add_host` and :meth:`remove_host`
    adjust the registry between (or during) rounds, which is how the
    optimization service's autoscaler grows and shrinks the fleet.
    Removing a host closes its connection, so a round in flight on it
    drains through the ordinary requeue-and-steal path — retirement
    costs latency, never a round.

    Attributes
    ----------
    reconnects:
        Successful reconnect-and-re-register cycles after a failure.
    heartbeats:
        Heartbeat pings sent by :meth:`ensure_ready`.
    steals:
        Batches taken from a peer's queue by a dispatcher whose own
        queue ran dry.
    host_segments / host_seconds:
        Per-address totals of segments served and wall seconds spent
        serving them (the per-host throughput statistic).
    """

    def __init__(
        self,
        hosts: Sequence[str],
        connect_timeout: float = 5.0,
        request_timeout: Optional[float] = 120.0,
        heartbeat_seconds: float = 30.0,
        auth_token: Optional[str] = None,
    ):
        if not hosts:
            raise ValueError("SocketHostPool needs at least one host address")
        self.heartbeat_seconds = heartbeat_seconds
        self.reconnects = 0
        self.heartbeats = 0
        self.steals = 0
        self.host_segments: dict[str, int] = {addr: 0 for addr in hosts}
        self.host_seconds: dict[str, float] = {addr: 0.0 for addr in hosts}
        self._connect_timeout = connect_timeout
        self._request_timeout = request_timeout
        self._auth_token = auth_token
        self._conns = [
            HostConnection(addr, connect_timeout, request_timeout, auth_token)
            for addr in hosts
        ]
        self._retired_bytes_sent = 0
        self._retired_bytes_received = 0
        self._oracle_blob: Optional[bytes] = None
        self._generation = -1
        self._lock = threading.Lock()

    def _snapshot(self) -> list[HostConnection]:
        """The connection list as of now (elastic membership changes
        from other threads must not tear an iteration)."""
        with self._lock:
            return list(self._conns)

    @property
    def hosts(self) -> list[str]:
        """The configured host addresses, in order."""
        return [conn.address for conn in self._snapshot()]

    @property
    def host_capacity(self) -> dict[str, int]:
        """Advertised capacity per host address (1 until registered)."""
        return {conn.address: conn.capacity for conn in self._snapshot()}

    @property
    def bytes_sent(self) -> int:
        """Total frame bytes sent across all connections ever opened."""
        return self._retired_bytes_sent + sum(
            c.bytes_sent for c in self._snapshot()
        )

    @property
    def bytes_received(self) -> int:
        """Total frame bytes received across all connections ever opened."""
        return self._retired_bytes_received + sum(
            c.bytes_received for c in self._snapshot()
        )

    def close(self) -> None:
        """Close every connection (the worker hosts keep running)."""
        for conn in self._snapshot():
            conn.close()

    # -- elastic membership ----------------------------------------------------

    def add_host(self, address: str) -> bool:
        """Add a worker host to the pool (elastic scale-up).

        The new host joins with the same timeouts and auth token as
        the rest of the pool and — when an oracle is installed — goes
        through the ordinary connect-and-register handshake at once,
        so the next round can deal batches to it.  Returns whether the
        host was reachable (an unreachable host stays in the registry
        and is retried by :meth:`ensure_ready`, exactly like a
        configured host that was down at startup).
        """
        conn = HostConnection(
            address,
            self._connect_timeout,
            self._request_timeout,
            self._auth_token,
        )
        with self._lock:
            self._conns.append(conn)
            self.host_segments.setdefault(address, 0)
            self.host_seconds.setdefault(address, 0.0)
        if self._oracle_blob is not None:
            return self._connect_and_register(conn, count_reconnect=False)
        try:
            conn.connect()
        except AuthenticationError:
            raise
        except _HOST_FAILURES:
            return False
        return True

    def remove_host(self, address: str) -> bool:
        """Retire one host with ``address`` from the pool (scale-down).

        Closes its connection, so a dispatcher mid-batch on it
        observes the ordinary host failure and requeues through the
        steal path — no round is lost to a retirement.  Per-host
        statistics for the address are kept.  Returns whether a host
        was removed.
        """
        with self._lock:
            found = next(
                (c for c in self._conns if c.address == address), None
            )
            if found is None:
                return False
            self._conns.remove(found)
        self._retire(found)
        return True

    # -- registration + heartbeat ---------------------------------------------

    def register(self, oracle: object, generation: int) -> None:
        """Pickle ``oracle`` once and install it on every reachable host.

        Hosts that cannot be reached are left unregistered; they are
        retried (with registration) by the mid-round reconnect path and
        by :meth:`ensure_ready`.  Raises
        :class:`WorkerUnavailableError` when *no* host accepts.
        """
        self._oracle_blob = pickle.dumps(oracle)
        self._generation = generation
        reachable = 0
        for conn in self._snapshot():
            if self._connect_and_register(conn, count_reconnect=False):
                reachable += 1
        if reachable == 0:
            raise WorkerUnavailableError(
                f"no worker host reachable among {self.hosts}"
            )

    def ensure_ready(self) -> None:
        """Heartbeat idle connections; reconnect the ones that fail.

        Called between rounds: connections idle past
        ``heartbeat_seconds`` get a PING, and any that fail it (or were
        down) go through the reconnect-and-re-register cycle so the
        next round starts with every recoverable host live.
        """
        now = time.monotonic()
        for conn in self._snapshot():
            if conn.connected and now - conn.last_used < self.heartbeat_seconds:
                continue
            if conn.connected:
                self.heartbeats += 1
                try:
                    conn.ping()
                    continue
                except _HOST_FAILURES:
                    self._retire(conn)
            self._connect_and_register(conn, count_reconnect=conn.last_used > 0)

    def _retire(self, conn: HostConnection) -> None:
        """Fold a dead connection's byte counters into the pool tally."""
        with self._lock:
            self._retired_bytes_sent += conn.bytes_sent
            self._retired_bytes_received += conn.bytes_received
        conn.bytes_sent = 0
        conn.bytes_received = 0
        conn.close()

    def _connect_and_register(
        self, conn: HostConnection, count_reconnect: bool
    ) -> bool:
        """(Re)open ``conn`` and install the current oracle on it."""
        try:
            conn.connect()
            if self._oracle_blob is not None:
                conn.register(self._oracle_blob, self._generation)
        except _HOST_FAILURES:
            self._retire(conn)
            return False
        if count_reconnect:
            with self._lock:
                self.reconnects += 1
        return True

    # -- round dispatch --------------------------------------------------------

    @staticmethod
    def _safe_capacity(conn: HostConnection) -> int:
        """The host's advertised capacity, floored at 1.

        A host advertising capacity 0 (a buggy or hostile peer — the
        stock :class:`WorkerHost` refuses to be configured that way)
        must not zero out the weighted deal or starve its dispatcher;
        it is treated as capacity 1 and logged once per observation.
        """
        capacity = conn.capacity
        if capacity < 1:
            _log.warning(
                "host %s advertises capacity %d; treating it as 1",
                conn.address,
                capacity,
            )
            return 1
        return capacity

    def run_round(
        self, batches: Sequence[tuple[int, int, bytes]]
    ) -> list[list[bytes]]:
        """Drain ``batches`` across the live hosts; return results in order.

        ``batches`` holds ``(batch id, segment count, SEGMENTS
        payload)`` triples.  Each live host is dealt a
        capacity-weighted share into its own queue and drains it with
        one dispatcher thread; a dispatcher whose queue runs dry
        steals from the deepest peer queue.  Failures requeue to the
        failing host's queue, where the peers steal them (see the
        class docstring).
        """
        live = [conn for conn in self._snapshot() if conn.connected]
        results: dict[int, list[bytes]] = {}
        fatal: list[BaseException] = []
        in_flight = [0]
        cond = threading.Condition()

        # capacity-weighted deal: host i appears capacity_i times in
        # the cycle, so a capacity-4 host is dealt 4x the batches of a
        # capacity-1 neighbour before any stealing happens
        queues: dict[int, deque[tuple[int, int, bytes]]] = {
            id(conn): deque() for conn in live
        }
        if live:
            cycle: list[int] = []
            for conn in live:
                cycle.extend([id(conn)] * self._safe_capacity(conn))
            for i, item in enumerate(batches):
                queues[cycle[i % len(cycle)]].append(item)

        def take_items(
            conn: HostConnection, my_queue: deque
        ) -> list[tuple[int, int, bytes]]:
            # caller holds cond
            alive = sum(1 for c in live if c.connected) or 1
            pending = sum(len(q) for q in queues.values())
            fair = -(-pending // alive)
            take = max(1, min(self._safe_capacity(conn), fair))
            items = []
            while my_queue and len(items) < take:
                items.append(my_queue.popleft())
            if not items:
                # own queue ran dry: steal from the deepest peer queue,
                # from the tail — the end its owner would reach last
                victims = [
                    q for q in queues.values() if q is not my_queue and q
                ]
                if victims:
                    victim = max(victims, key=len)
                    while victim and len(items) < take:
                        items.append(victim.pop())
                    items.reverse()  # preserve the victim's batch order
                    self.steals += len(items)
            return items

        def dispatch(conn: HostConnection) -> None:
            my_queue = queues[id(conn)]
            while True:
                with cond:
                    # empty queues are not the end of the round: a
                    # batch in flight on a dying host may be requeued,
                    # and this thread must be there to steal it
                    while (
                        not fatal
                        and not any(queues.values())
                        and in_flight[0]
                    ):
                        cond.wait(timeout=0.1)
                    if fatal or not any(queues.values()):
                        return
                    items = take_items(conn, my_queue)
                    if not items:
                        continue
                    in_flight[0] += len(items)
                for taken, item in enumerate(items):
                    batch_id, nsegs, payload = item
                    t0 = time.perf_counter()
                    try:
                        blobs = conn.run_batch(batch_id, payload)
                    except _HOST_FAILURES:
                        with cond:
                            # requeue the in-flight batch and the
                            # untried remainder to this host's own
                            # queue; the survivors steal from it
                            for untried in reversed(items[taken:]):
                                my_queue.appendleft(untried)
                            in_flight[0] -= len(items) - taken
                            cond.notify_all()
                        self._retire(conn)
                        try:
                            rejoined = self._connect_and_register(
                                conn, count_reconnect=True
                            )
                        except AuthenticationError as exc:
                            # the host now refuses our token: that is
                            # a configuration failure, not a flaky
                            # network — fail the round loudly instead
                            # of silently draining without this host
                            with cond:
                                fatal.append(exc)
                                cond.notify_all()
                            return
                        if not rejoined:
                            return  # host is gone; survivors steal
                        break  # rejoined: back to the queues
                    except BaseException as exc:  # stale oracle / remote error
                        with cond:
                            fatal.append(exc)
                            in_flight[0] -= len(items) - taken
                            cond.notify_all()
                        return
                    elapsed = time.perf_counter() - t0
                    with cond:
                        results[batch_id] = blobs
                        host_address = conn.address
                        self.host_segments[host_address] = (
                            self.host_segments.get(host_address, 0) + nsegs
                        )
                        self.host_seconds[host_address] = (
                            self.host_seconds.get(host_address, 0.0) + elapsed
                        )
                        in_flight[0] -= 1
                        cond.notify_all()

        threads = [
            threading.Thread(target=dispatch, args=(conn,), daemon=True)
            for conn in live
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if fatal:
            raise fatal[0]
        if len(results) != len(batches):
            raise WorkerUnavailableError(
                f"{len(batches) - len(results)} batch(es) undelivered: every "
                f"worker host in {self.hosts} is unreachable"
            )
        return [results[batch_id] for batch_id, _, _ in batches]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        up = sum(1 for c in self._conns if c.connected)
        return f"SocketHostPool(hosts={self.hosts}, up={up})"


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
