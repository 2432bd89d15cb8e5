"""The client side of the socket transport: a registry of worker hosts.

:class:`SocketHostPool` is what ``ProcessMap(transport="socket")``
dispatches a round through — one :class:`HostConnection` (and one
dispatcher thread) per ``popqc worker`` host, claiming the round's
batches from one queue, with heartbeats and reconnect-and-requeue, so
a killed worker costs latency, never correctness.  Results come back as
flat packed segments and flow into
:class:`~repro.parallel.results.LazySegmentResult` unchanged, so lazy
decode and byte-identical equivalence hold on the socket transport
exactly as on the other four.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import deque
from typing import Optional, Sequence

from .frames import (
    FRAME_REGISTER,
    FRAME_REGISTER_OK,
    FRAME_RESULTS,
    FRAME_SEGMENTS,
    CONNECTION_FAILURES,
    AuthenticationError,
    FrameConnection,
    FrameProtocolError,
    iter_results_payload,
    pack_register_payload,
    unpack_register_ok_payload,
)

__all__ = ["HostConnection", "SocketHostPool", "WorkerUnavailableError"]


class WorkerUnavailableError(RuntimeError):
    """No worker host could be reached (or every host died mid-round
    and reconnection failed), so the batch queue cannot drain."""


class HostConnection(FrameConnection):
    """One client connection to a :class:`~repro.parallel.worker.WorkerHost`.

    Request/response is synchronous per connection (the registry runs
    one dispatcher thread per host, so the cluster as a whole is
    parallel).  Byte counters feed the executor's wire statistics.
    """

    def register(self, oracle_blob: bytes, generation: int) -> None:
        """Install a pickled oracle + generation on the worker, which
        echoes the generation back."""
        _, reply = self.request(
            FRAME_REGISTER,
            pack_register_payload(oracle_blob, generation),
            FRAME_REGISTER_OK,
        )
        echoed = unpack_register_ok_payload(reply)
        if echoed != generation:
            raise FrameProtocolError(
                f"worker acknowledged generation {echoed}, expected {generation}"
            )

    def run_batch(self, batch_id: int, payload: bytes) -> list[tuple[int, bytes]]:
        """Send one SEGMENTS payload; return the ``(gate count, packed
        blob)`` of each result."""
        _, reply = self.request(FRAME_SEGMENTS, payload, FRAME_RESULTS)
        return list(iter_results_payload(reply, batch_id))


class SocketHostPool:
    """Client-side registry of worker hosts with failover dispatch.

    ``run_round`` puts the round's batches in **one queue** and drains
    it with one dispatcher thread per connected host: whenever its host
    is free, a dispatcher claims the next batch, so a fast host serves
    more of the round than a slow one and no host idles while a batch
    waits.  A host failing mid-batch puts that batch back at the head
    of the queue, where the next free dispatcher claims it, and is
    reconnected (and re-registered with the current oracle) so it can
    rejoin; when no host remains the round raises
    :class:`WorkerUnavailableError`.
    Remote stale-generation refusals surface as
    :class:`~repro.parallel.StaleOracleError` and oracle exceptions as
    :class:`~repro.parallel.RemoteOracleError` — both abort the round instead of being
    retried, because they would fail identically everywhere.

    The pool is **elastic**: :meth:`add_host` and :meth:`remove_host`
    adjust the registry between (or during) rounds, which is how the
    optimization service's autoscaler grows and shrinks the fleet.
    Removing a host closes its connection, so a batch in flight on it
    goes back to the head of the queue like any failed host's, and the
    retired host is not reconnected — retirement costs latency, never a
    round.

    Attributes
    ----------
    reconnects:
        Successful reconnect-and-re-register cycles after a failure.
    heartbeats:
        Heartbeat pings sent by :meth:`ensure_ready`.
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
        self.host_segments: dict[str, int] = {addr: 0 for addr in hosts}
        self.host_seconds: dict[str, float] = {addr: 0.0 for addr in hosts}
        self._connect_timeout = connect_timeout
        self._request_timeout = request_timeout
        self._auth_token = auth_token
        self._conns = [self._connection(addr) for addr in hosts]
        self._retired_bytes_sent = 0
        self._retired_bytes_received = 0
        self._oracle_blob: Optional[bytes] = None
        self._generation = -1
        self._lock = threading.Lock()

    def _connection(self, address: str) -> HostConnection:
        """A (closed) connection with the pool's timeouts and token."""
        return HostConnection(
            address, self._connect_timeout, self._request_timeout, self._auth_token
        )

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
    def bytes_sent(self) -> int:
        """Total frame bytes sent to every host the pool ever had (a
        connection counts across its reconnects)."""
        return self._retired_bytes_sent + sum(
            c.bytes_sent for c in self._snapshot()
        )

    @property
    def bytes_received(self) -> int:
        """Total frame bytes received from every host the pool ever had."""
        return self._retired_bytes_received + sum(
            c.bytes_received for c in self._snapshot()
        )

    def counters(self) -> dict:
        """The pool's monotone counters, as the socket transport
        reports them: wire bytes, reconnects and the per-host segment
        and second totals."""
        return {
            "socket_bytes_sent": self.bytes_sent,
            "socket_bytes_received": self.bytes_received,
            "socket_reconnects": self.reconnects,
            "socket_host_segments": dict(self.host_segments),
            "socket_host_seconds": dict(self.host_seconds),
        }

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
        so the next round's dispatchers include it.  Returns whether the
        host was reachable (an unreachable host stays in the registry
        and is retried by :meth:`ensure_ready`, exactly like a
        configured host that was down at startup).
        """
        conn = self._connection(address)
        with self._lock:
            self._conns.append(conn)
            self.host_segments.setdefault(address, 0)
            self.host_seconds.setdefault(address, 0.0)
        return self._connect_and_register(conn, count_reconnect=False)

    def remove_host(self, address: str) -> bool:
        """Retire one host with ``address`` from the pool (scale-down).

        Closes its connection, so a dispatcher mid-batch on it
        observes the ordinary host failure and puts the batch back at
        the head of the queue — no round is lost to a retirement.  Per-host
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
            # the connection's byte counters leave with it: fold them
            # into the pool tally so the totals never go backwards
            self._retired_bytes_sent += found.bytes_sent
            self._retired_bytes_received += found.bytes_received
        found.close()
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
                except CONNECTION_FAILURES:
                    conn.close()
            self._connect_and_register(conn, count_reconnect=conn.last_used > 0)

    def _connect_and_register(
        self, conn: HostConnection, count_reconnect: bool
    ) -> bool:
        """(Re)open ``conn`` and install the current oracle on it."""
        try:
            conn.connect()
            if self._oracle_blob is not None:
                conn.register(self._oracle_blob, self._generation)
        except CONNECTION_FAILURES:
            conn.close()
            return False
        if count_reconnect:
            with self._lock:
                self.reconnects += 1
        return True

    # -- round dispatch --------------------------------------------------------

    def run_round(
        self, batches: Sequence[tuple[int, int, bytes]]
    ) -> list[list[tuple[int, bytes]]]:
        """Drain ``batches`` across the live hosts; return each batch's
        ``(gate count, packed blob)`` results, in batch order.

        ``batches`` holds ``(batch id, segment count, SEGMENTS
        payload)`` triples, queued in order; each live host's
        dispatcher claims the next one whenever its host is free (see
        the class docstring for failures).
        """
        live = [conn for conn in self._snapshot() if conn.connected]
        queue = deque(batches)
        results: dict[int, list[tuple[int, bytes]]] = {}
        fatal: list[BaseException] = []
        in_flight = [0]
        cond = threading.Condition()

        def claim() -> Optional[tuple[int, int, bytes]]:
            """The next batch, or ``None`` once the round is over."""
            with cond:
                # an empty queue is not the end of the round: a batch
                # in flight on a dying host may come back to it
                while not fatal and not queue and in_flight[0]:
                    cond.wait()
                if fatal or not queue:
                    return None
                in_flight[0] += 1
                return queue.popleft()

        def settle(requeue=None, error=None) -> None:
            """Close one claim: put its batch back, or record an error."""
            with cond:
                if requeue is not None:
                    queue.appendleft(requeue)
                if error is not None:
                    fatal.append(error)
                in_flight[0] -= 1
                cond.notify_all()

        def dispatch(conn: HostConnection) -> None:
            while (item := claim()) is not None:
                batch_id, nsegs, payload = item
                t0 = time.perf_counter()
                try:
                    blobs = conn.run_batch(batch_id, payload)
                except CONNECTION_FAILURES:
                    settle(requeue=item)
                    conn.close()
                    if conn not in self._snapshot():
                        return  # retired by remove_host: never reconnect it
                    try:
                        if not self._connect_and_register(
                            conn, count_reconnect=True
                        ):
                            return  # host is gone; the others claim on
                    except AuthenticationError as exc:
                        # the host now refuses our token: that is a
                        # configuration failure, not a flaky network —
                        # fail the round loudly instead of silently
                        # draining without this host
                        with cond:
                            fatal.append(exc)
                            cond.notify_all()
                        return
                    continue
                except BaseException as exc:  # stale oracle / remote error
                    settle(error=exc)
                    return
                elapsed = time.perf_counter() - t0
                with cond:
                    results[batch_id] = blobs
                    address = conn.address
                    self.host_segments[address] = (
                        self.host_segments.get(address, 0) + nsegs
                    )
                    self.host_seconds[address] = (
                        self.host_seconds.get(address, 0.0) + elapsed
                    )
                settle()

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
