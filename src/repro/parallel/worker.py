"""The worker host: ``popqc worker``, the server side of the socket transport.

:class:`WorkerHost` is a :class:`~repro.parallel.frames.FrameServer`
whose handler registers an oracle per connection through the same
generation-token protocol the process transports use (a ``REGISTER``
frame carrying the pickled oracle and its generation; segment frames
tagged with a different generation are refused with a typed error,
never silently served) and answers batched ``SEGMENTS`` frames with
batched ``RESULTS`` frames.  A worker host runs the oracle, full stop:
it holds no cache and asks none — a segment only reaches it after the
run's memo and, in a daemon, the content cache in front of the fleet
(:class:`~repro.service.cache.CacheFront`) missed.

What a worker runs per segment is chosen when an oracle is registered
(:func:`wire_entry`): its wire entry (``NamOracle.run_packed``, no
``Gate`` built) if it has one, else a gate-list round trip.
Worker-side code calls the codec through *direct* imports rather than
module attributes, so the parent-side decode spies of
``tests/parallel/test_lazy_decode.py`` observe only what the driver
decodes, even with in-process test clusters.
"""

from __future__ import annotations

import contextlib
from functools import partial
from types import SimpleNamespace
from typing import Callable, Iterator, Optional

from ..circuits.encoding import EncodedSegment, pack_segment
from ..circuits.intern import thread_table
from .frames import (
    ERR_BAD_FRAME,
    ERR_NO_ORACLE,
    ERR_ORACLE_FAILED,
    ERR_STALE_ORACLE,
    FRAME_REGISTER,
    FRAME_REGISTER_OK,
    FRAME_RESULTS,
    FRAME_SEGMENTS,
    FrameProtocolError,
    FrameServer,
    error_frame,
    pack_frame,
    pack_register_ok_payload,
    pack_results_payload,
    unpack_register_payload,
    unpack_segments_payload,
)

__all__ = ["WorkerHost", "local_cluster", "wire_entry"]


def wire_entry(oracle) -> Optional[Callable[[EncodedSegment], EncodedSegment]]:
    """What a byte worker calls per segment for ``oracle``: its
    ``run_packed`` when it has one, else :func:`_oracle_encoded_result`
    (``None`` for no oracle)."""
    if oracle is None:
        return None
    native = getattr(oracle, "run_packed", None)
    return native if native is not None else partial(_oracle_encoded_result, oracle)


def _oracle_encoded_result(oracle, encoded: EncodedSegment) -> EncodedSegment:
    """Run an oracle without a wire entry on a packed segment.

    The oracle sees a gate list and returns one, both through the
    calling thread's bounded :class:`~repro.circuits.intern.GateTable`:
    a ``Gate`` is built only for a wire value this thread has not met,
    and the gates the oracle passed through re-encode by identity.  An
    oracle that found nothing to rewrite is answered with its input.
    """
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

    A connection's batches are answered one at a time, so one client
    has at most one batch in flight per host; a machine with several
    cores runs one ``popqc worker`` per core.

    Attributes
    ----------
    segments_served / batches_served:
        Totals across all connections (for the CLI status line).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        auth_token: Optional[str] = None,
        idle_timeout_seconds: Optional[float] = 600.0,
    ):
        super().__init__(host, port, auth_token, idle_timeout_seconds)
        self.segments_served = 0
        self.batches_served = 0

    # -- the handler -----------------------------------------------------------

    def open_session(self, peer: str) -> SimpleNamespace:
        """A connection's registration: no oracle until REGISTER."""
        return SimpleNamespace(entry=None, generation=-1)

    def handle(
        self, session: SimpleNamespace, frame_type: int, payload: bytes
    ) -> Optional[bytes]:
        """REGISTER installs the connection's oracle, SEGMENTS runs it."""
        if frame_type == FRAME_SEGMENTS:
            return self._answer_segments(payload, session)
        if frame_type != FRAME_REGISTER:
            return None
        try:
            generation, oracle = unpack_register_payload(payload)
        except Exception as exc:  # torn header / corrupt pickle
            # the previous registration stays in force
            return error_frame(ERR_BAD_FRAME, f"bad REGISTER payload: {exc!r}")
        session.generation, session.entry = generation, wire_entry(oracle)
        return pack_frame(FRAME_REGISTER_OK, pack_register_ok_payload(generation))

    def _answer_segments(self, payload: bytes, session: SimpleNamespace) -> bytes:
        """The reply frame for one SEGMENTS request."""
        try:
            generation, batch_id, segments = unpack_segments_payload(payload)
        except FrameProtocolError as exc:
            return error_frame(ERR_BAD_FRAME, str(exc))
        if session.entry is None:
            return error_frame(
                ERR_NO_ORACLE, "no oracle registered on this connection"
            )
        if generation != session.generation:
            return error_frame(
                ERR_STALE_ORACLE,
                f"batch expects oracle generation {generation}, "
                f"connection registered {session.generation}",
            )
        try:
            results = [pack_segment(session.entry(segment)) for segment in segments]
        except Exception as exc:  # noqa: BLE001 - forwarded to the client
            return error_frame(ERR_ORACLE_FAILED, repr(exc))
        with self._lock:
            self.segments_served += len(segments)
            self.batches_served += 1
        return pack_frame(FRAME_RESULTS, pack_results_payload(batch_id, results))


@contextlib.contextmanager
def local_cluster(
    num_hosts: int = 2, auth_token: Optional[str] = None
) -> Iterator[list[str]]:
    """Start ``num_hosts`` in-process :class:`WorkerHost` servers.

    Yields their ``host:port`` addresses and stops them on exit.
    ``auth_token`` starts every host demanding the shared token
    (clients must pass the same one).  This is the localhost cluster
    fixture the equivalence suite and the transport benchmark run
    against; CI's ``dist-smoke`` job exercises the same protocol
    against real ``popqc worker`` processes.
    """
    hosts = [WorkerHost(auth_token=auth_token).start() for _ in range(num_hosts)]
    try:
        yield [host.address for host in hosts]
    finally:
        for host in hosts:
            host.stop()
