"""Length-prefixed frames: the codec and the two endpoints built on it.

Everything that crosses a TCP connection in this repository — the
socket transport's segment batches, the ``popqc serve`` job
protocol — is one *frame*: a fixed 16-byte header
(magic, frame type, payload length) followed by the payload.  This
module is the bottom of that stack and imports nothing from the
executors above it:

* **The codec.**  :func:`pack_frame`, the incremental
  :class:`FrameReader` (fed arbitrary ``recv`` chunks; a partial frame
  waits for more bytes, a stream that *ends* mid-frame raises
  :class:`FrameProtocolError` instead of yielding a torn message) and
  the single table of frame types with its unknown-type and length
  checks.  Segment and result batches embed the flat packed-segment
  format of :mod:`repro.circuits.encoding` unchanged, so a segment's
  bytes are identical in a pipe, an arena or a TCP stream, and
  consecutive segments are walked with
  :func:`~repro.circuits.encoding.packed_segment_span` alone.
* **One server endpoint**, :class:`FrameServer`: listener, accept loop,
  a handler thread per connection, the idle timeout, the constant-time
  AUTH gate, byte counters and the stop sequence.
  :class:`~repro.parallel.worker.WorkerHost` and
  :class:`repro.service.OptimizationService` subclass it and supply a
  frame → reply handler, nothing else.
* **One client endpoint**, :class:`FrameConnection`: connect, AUTH,
  request/reply, byte counters, ping, close.
  :class:`~repro.parallel.hostpool.HostConnection` and
  :class:`repro.service.ServiceClient` subclass it and supply their
  requests, nothing else.

Frame layout (all integers little-endian)::

    frame      <4sBxxxQ: magic b"PQCF", frame type, payload nbytes
    REGISTER   <Q generation> + pickled oracle
    REGISTER_OK<Q generation>
    SEGMENTS   <QQQ: generation, batch id, count> + count packed segments
    RESULTS    <QQ: batch id, count> + count packed segments
    ERROR      <B kind> + utf-8 message
    PING/PONG  empty payload
    SHUTDOWN   empty payload
    AUTH       the shared secret as utf-8 bytes  (client -> server)
    AUTH_OK    empty payload                     (server -> client)

JOB, RESULT, STATUS and BUSY have their numbers in the table below and
their payloads in :mod:`repro.service.frames`, the only package that
speaks them.  No frame reads or writes a cache: the result cache
belongs to the ``popqc serve`` daemon, and only its own oracle
dispatches fill it.
"""

from __future__ import annotations

import contextlib
import hmac
import pickle
import socket
import struct
import threading
import time
from typing import Iterator, Optional, Sequence

from ..circuits.encoding import (
    EncodedSegment,
    pack_segment,
    packed_segment_span,
    unpack_segment_from,
)

__all__ = [
    "CONNECTION_FAILURES",
    "FRAME_AUTH",
    "FRAME_AUTH_OK",
    "FRAME_BUSY",
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
    "ConnectionClosedError",
    "FrameConnection",
    "FrameProtocolError",
    "FrameReader",
    "FrameServer",
    "RemoteOracleError",
    "StaleOracleError",
    "error_frame",
    "iter_results_payload",
    "join_segments_payload",
    "pack_frame",
    "pack_register_ok_payload",
    "pack_register_payload",
    "pack_results_payload",
    "pack_segments_payload",
    "parse_address",
    "raise_remote_error",
    "recv_frame",
    "unpack_error_payload",
    "unpack_register_ok_payload",
    "unpack_register_payload",
    "unpack_segments_payload",
]


# -- frame codec ---------------------------------------------------------------

#: Magic prefix of every frame; a connection speaking anything else is
#: rejected at the first header.
FRAME_MAGIC = b"PQCF"

_FRAME_HEADER = struct.Struct("<4sBxxxQ")

#: Size of the fixed frame header in bytes — the number to add to a
#: payload length when accounting wire traffic, instead of a literal.
FRAME_HEADER_SIZE = _FRAME_HEADER.size

#: The frame-type table: every type any endpoint speaks, numbered
#: contiguously.  A number outside it is a protocol error at the header.
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

_KNOWN_FRAMES = range(FRAME_REGISTER, FRAME_BUSY + 1)

#: Upper bound on a frame payload (1 GiB); a corrupt length field must
#: fail loudly instead of waiting forever for bytes that never come.
MAX_FRAME_BYTES = 1 << 30

#: The cap a server that demands a token applies until the connection
#: has presented it: an AUTH payload is a token, so a peer that has
#: proved nothing cannot make the reader buffer more than this.
PRE_AUTH_FRAME_BYTES = 4096

_SEGMENTS_HEADER = struct.Struct("<QQQ")  # generation, batch id, count
_RESULTS_HEADER = struct.Struct("<QQ")  # batch id, count
_REGISTER_HEADER = struct.Struct("<Q")  # generation
_ERROR_HEADER = struct.Struct("<B")  # error kind

#: Error kinds carried by ERROR frames.
ERR_STALE_ORACLE = 1
ERR_NO_ORACLE = 2
ERR_ORACLE_FAILED = 3
ERR_BAD_FRAME = 4
ERR_JOB_FAILED = 5
ERR_AUTH = 6


class FrameProtocolError(RuntimeError):
    """The byte stream violates the frame protocol: bad magic, an
    unknown frame type, an implausible length, a stream that ended in
    the middle of a frame, or a peer that refused a frame."""


class ConnectionClosedError(RuntimeError):
    """The peer closed the connection cleanly at a frame boundary."""


class StaleOracleError(RuntimeError):
    """A worker received a task tagged with an oracle generation other
    than the one it registered.  Without this check a worker
    initialized for oracle A would silently apply A to tasks meant for
    oracle B."""


class RemoteOracleError(RuntimeError):
    """The oracle raised an exception on the worker host; the message
    carries the remote ``repr``."""


class AuthenticationError(RuntimeError):
    """The peer refused the connection's credentials: a missing or
    wrong AUTH token.  Never retried — a bad token fails identically
    everywhere, so reconnect loops must not absorb it."""


#: What a connection that failed raises (as opposed to a peer that
#: answered with a refusal): clients absorb these by reconnecting,
#: servers by dropping the connection.
CONNECTION_FAILURES = (OSError, ConnectionClosedError, FrameProtocolError)


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

    __slots__ = ("_buf", "max_frame_bytes")

    def __init__(self) -> None:
        self._buf = bytearray()
        #: Largest payload a header may declare (a server lowers it
        #: until its peer has authenticated).
        self.max_frame_bytes = MAX_FRAME_BYTES

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
        if length > self.max_frame_bytes:
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


def parse_address(spec: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (host defaults to loopback)."""
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {spec!r}")
    return host or "127.0.0.1", int(port)


# -- payload codecs ------------------------------------------------------------


def pack_register_payload(oracle_blob: bytes, generation: int) -> bytes:
    """REGISTER payload: generation header + the pickled oracle bytes."""
    return _REGISTER_HEADER.pack(generation) + oracle_blob


def unpack_register_payload(payload: bytes) -> tuple[int, object]:
    """(generation, oracle) from a REGISTER payload."""
    (generation,) = _REGISTER_HEADER.unpack_from(payload, 0)
    return generation, pickle.loads(payload[_REGISTER_HEADER.size :])


def pack_register_ok_payload(generation: int) -> bytes:
    """REGISTER_OK payload: the echoed generation."""
    return _REGISTER_HEADER.pack(generation)


def unpack_register_ok_payload(payload: bytes) -> int:
    """The generation a REGISTER_OK payload echoes: its first 8 bytes
    (an older worker's reply carries 8 more, which are ignored)."""
    if len(payload) < _REGISTER_HEADER.size:
        raise FrameProtocolError("REGISTER_OK payload shorter than its header")
    return _REGISTER_HEADER.unpack_from(payload, 0)[0]


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


def iter_results_payload(
    payload: bytes, batch_id: int
) -> Iterator[tuple[int, bytes]]:
    """``(gate count, packed blob)`` of each result in the RESULTS
    payload answering batch ``batch_id``.

    The one reply reader of the transports that ship packed bytes by
    value (pool pipe and TCP alike).  It splits on
    :func:`packed_segment_span` header reads only — no per-gate
    decoding, so results stay lazy — and hands the gate count that
    walk reads anyway on, sparing
    :meth:`LazySegmentResult.from_packed` a second parse.  A reply to
    another batch raises :class:`FrameProtocolError`.
    """
    if len(payload) < _RESULTS_HEADER.size:
        raise FrameProtocolError("RESULTS payload shorter than its header")
    got_batch, count = _RESULTS_HEADER.unpack_from(payload, 0)
    if got_batch != batch_id:
        raise FrameProtocolError(
            f"result batch {got_batch} does not match request {batch_id}"
        )
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


def error_frame(kind: int, message: str) -> bytes:
    """One ERROR frame: kind byte + utf-8 message."""
    return pack_frame(FRAME_ERROR, _ERROR_HEADER.pack(kind) + message.encode("utf-8"))


def unpack_error_payload(payload: bytes) -> tuple[int, str]:
    """(kind, message) from an ERROR payload."""
    if len(payload) < _ERROR_HEADER.size:
        raise FrameProtocolError("ERROR payload shorter than its header")
    (kind,) = _ERROR_HEADER.unpack_from(payload, 0)
    return kind, payload[_ERROR_HEADER.size :].decode("utf-8", "replace")


def raise_remote_error(payload: bytes, refusal: type = FrameProtocolError) -> None:
    """Turn an ERROR payload into the matching typed client exception;
    kinds without a type of their own raise ``refusal``."""
    kind, message = unpack_error_payload(payload)
    if kind == ERR_STALE_ORACLE:
        raise StaleOracleError(message)
    if kind == ERR_ORACLE_FAILED:
        raise RemoteOracleError(message)
    if kind == ERR_AUTH:
        raise AuthenticationError(message)
    raise refusal(f"peer refused the frame (kind {kind}): {message}")


# -- the server endpoint -------------------------------------------------------


class FrameServer:
    """A TCP endpoint answering frames, one handler thread per connection.

    Subclasses supply :meth:`handle` (a frame → its reply frame) and,
    when they keep per-connection state, :meth:`open_session`;
    everything a daemon on this protocol has in common lives here,
    once.  ``port=0`` binds an ephemeral port and :attr:`address`
    reports the bound endpoint either way.

    ``auth_token`` demands an AUTH frame carrying the shared secret
    before any other frame is accepted on a connection; the compare is
    constant-time, and a missing or wrong token is refused with a typed
    ``ERR_AUTH`` error and a closed connection; until the token has
    been presented a header declaring more than
    ``PRE_AUTH_FRAME_BYTES`` is hung up on like any oversized frame, so
    a peer that has proved nothing cannot make the server buffer a
    payload.  Without a token AUTH is a friendly no-op, so one client
    configuration works against both.  ``idle_timeout_seconds`` bounds
    how long a handler thread blocks waiting for a client's next frame,
    so a slow-loris connection (opened, then silent) cannot pin a
    thread for the life of the process; ``None`` disables it.  PING is
    answered with PONG,
    SHUTDOWN closes the connection, and a frame :meth:`handle` does
    not know is refused with a typed ``ERR_BAD_FRAME`` error.

    Attributes
    ----------
    bytes_received / bytes_sent:
        Frame bytes in and out, payloads included.
    auth_failures:
        Connections refused for a missing or wrong AUTH token.
    """

    #: How long :meth:`stop` waits for each handler thread to notice
    #: its closed connection.
    _JOIN_SECONDS = 1.0

    def __init__(
        self,
        host: str,
        port: int,
        auth_token: Optional[str],
        idle_timeout_seconds: Optional[float],
    ):
        self._auth_token = (
            auth_token.encode("utf-8") if auth_token is not None else None
        )
        self.idle_timeout_seconds = idle_timeout_seconds
        self.auth_failures = 0
        self.bytes_received = 0
        self.bytes_sent = 0
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._closing = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: list[threading.Thread] = []
        self._conns: list[socket.socket] = []

    @property
    def address(self) -> str:
        """The bound endpoint as ``"host:port"``."""
        return f"{self.host}:{self.port}"

    # -- what a subclass supplies ----------------------------------------------

    def open_session(self, peer: str) -> object:
        """Per-connection state handed to every :meth:`handle` call of
        the connection from ``peer`` (an IP address)."""
        return None

    def handle(
        self, session: object, frame_type: int, payload: bytes
    ) -> Optional[bytes]:
        """The reply frame for one authenticated request frame, or
        ``None`` for a frame type this server does not serve."""
        raise NotImplementedError

    def _tally(self, session: object, **counts: int) -> None:
        """Add ``counts`` to the counters of those names, atomically."""
        with self._lock:
            for name, n in counts.items():
                self._count(session, name, n)

    def _count(self, session: object, name: str, n: int) -> None:
        """Book ``n`` under counter ``name`` (the lock is held); a
        subclass that also counts per session extends this."""
        setattr(self, name, getattr(self, name) + n)

    # -- lifecycle -------------------------------------------------------------

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

    def start(self):
        """Serve in a daemon thread (for in-process use); returns self."""
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
        self._hang_up(self._listener)
        with self._lock:
            conns, self._conns = self._conns, []
            threads = list(self._conn_threads)
        for conn in conns:
            self._hang_up(conn)
        for thread in threads:
            thread.join(timeout=self._JOIN_SECONDS)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)

    @staticmethod
    def _hang_up(sock: socket.socket) -> None:
        # shutdown() (not just close()) wakes a thread blocked in
        # accept(): on Linux, close() alone leaves the in-flight accept
        # holding the listening socket open, silently accepting the
        # very reconnects a stopped host must refuse
        with contextlib.suppress(OSError):
            sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            sock.close()

    # -- connection handling ---------------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        """Serve one client until it disconnects, goes silent past the
        idle timeout, fails the AUTH gate, or the server stops."""
        reader = FrameReader()
        try:
            peer = conn.getpeername()[0]
        except OSError:
            peer = "unknown"
        session = self.open_session(peer)
        authed = self._auth_token is None
        if not authed:
            reader.max_frame_bytes = PRE_AUTH_FRAME_BYTES
        try:
            while True:
                frame_type, payload = recv_frame(conn, reader)
                self._tally(
                    session, bytes_received=FRAME_HEADER_SIZE + len(payload)
                )
                refusal = None
                if frame_type == FRAME_AUTH:
                    if self._auth_token is None or hmac.compare_digest(
                        payload, self._auth_token
                    ):
                        authed = True
                        reader.max_frame_bytes = MAX_FRAME_BYTES
                        reply = pack_frame(FRAME_AUTH_OK)
                    else:
                        refusal = "invalid auth token"
                elif not authed:
                    refusal = "authentication required before any other frame"
                elif frame_type == FRAME_PING:
                    reply = pack_frame(FRAME_PONG)
                elif frame_type == FRAME_SHUTDOWN:
                    return
                else:
                    reply = self.handle(session, frame_type, payload) or error_frame(
                        ERR_BAD_FRAME, f"unexpected frame type {frame_type}"
                    )
                if refusal is not None:
                    self._tally(session, auth_failures=1)
                    reply = error_frame(ERR_AUTH, refusal)
                conn.sendall(reply)
                self._tally(session, bytes_sent=len(reply))
                if refusal is not None:
                    return  # wrong or missing secret: drop the connection
        except CONNECTION_FAILURES:
            return  # client went away; nothing to answer
        finally:
            with self._lock:
                if conn in self._conns:
                    self._conns.remove(conn)
            with contextlib.suppress(OSError):
                conn.close()


# -- the client endpoint -------------------------------------------------------


class FrameConnection:
    """One client connection to a :class:`FrameServer`.

    Request/response is synchronous; the connection opens on the first
    request (or an explicit :meth:`connect`) and, when an
    ``auth_token`` is configured, presents it in an AUTH frame as part
    of connecting — so every reconnect re-authenticates before any
    other frame, and a refused token raises
    :class:`AuthenticationError` (never retried).  Usable as a context
    manager.

    ``bytes_sent`` / ``bytes_received`` count frame bytes, payloads
    included; ``last_used`` is the monotonic time of the last reply.
    """

    #: What an ERROR reply without a typed exception of its own raises.
    refusal_error: type = FrameProtocolError

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
        self._sock: Optional[socket.socket] = None
        self._reader = FrameReader()

    @property
    def connected(self) -> bool:
        """Whether a socket is currently open (not a liveness probe)."""
        return self._sock is not None

    def connect(self):
        """Open the TCP connection and authenticate (no-op when already
        open); returns self."""
        if self._sock is None:
            self._sock = socket.create_connection(
                parse_address(self.address), timeout=self.connect_timeout
            )
            self._sock.settimeout(self.request_timeout)
            self._reader = FrameReader()
            self.last_used = time.monotonic()
            if self.auth_token is not None:
                try:
                    self.request(
                        FRAME_AUTH, self.auth_token.encode("utf-8"), FRAME_AUTH_OK
                    )
                except BaseException:
                    self.close()
                    raise
        return self

    def close(self) -> None:
        """Close the socket (idempotent)."""
        if self._sock is not None:
            with contextlib.suppress(OSError):
                self._sock.close()
            self._sock = None

    def __enter__(self):
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(
        self, frame_type: int, payload: bytes = b"", *expect: int
    ) -> tuple[int, bytes]:
        """One request frame → its reply ``(frame type, payload)``.

        An ERROR reply raises the matching typed exception
        (:func:`raise_remote_error`, falling back to
        :attr:`refusal_error`); a reply of a type not in ``expect``
        raises :class:`FrameProtocolError`.
        """
        sock = self.connect()._sock
        if sock is None:  # closed from another thread since connect()
            raise ConnectionClosedError(f"{self.address} was closed")
        frame = pack_frame(frame_type, payload)
        sock.sendall(frame)
        self.bytes_sent += len(frame)
        got, reply = recv_frame(sock, self._reader)
        self.bytes_received += FRAME_HEADER_SIZE + len(reply)
        self.last_used = time.monotonic()
        if got == FRAME_ERROR:
            raise_remote_error(reply, self.refusal_error)
        if got not in expect:
            raise FrameProtocolError(
                f"expected frame type {' or '.join(map(str, expect))} in reply "
                f"to {frame_type}, got {got}"
            )
        return got, reply

    def ping(self) -> None:
        """Heartbeat round trip; raises if the connection is dead."""
        self.request(FRAME_PING, b"", FRAME_PONG)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.connected else "down"
        return f"{type(self).__name__}({self.address}, {state})"
