"""Endpoint conformance: what every daemon on the frame protocol does.

``popqc worker`` (:class:`~repro.parallel.WorkerHost`) and ``popqc
serve`` (:class:`~repro.service.OptimizationService`) are both a
:class:`~repro.parallel.FrameServer` with a handler, so the trust
boundary — the AUTH gate, the idle timeout, the frame-size cap — and
the lifecycle are written once and pinned once, here, against both.
The client is the bare :class:`~repro.parallel.FrameConnection` every
client class is built on.
"""

import pickle
import socket
import time

import pytest

from repro.circuits import H
from repro.circuits.encoding import encode_segment
from repro.oracles import IdentityOracle, NamOracle
from repro.parallel import AuthenticationError, FrameConnection, WorkerHost
from repro.parallel.frames import (
    _FRAME_HEADER,
    FRAME_JOB,
    FRAME_MAGIC,
    FRAME_PING,
    FRAME_PONG,
    FRAME_REGISTER,
    FRAME_REGISTER_OK,
    FRAME_RESULT,
    MAX_FRAME_BYTES,
    PRE_AUTH_FRAME_BYTES,
    pack_register_payload,
)
from repro.service import OptimizationService
from repro.service.frames import pack_job_payload, unpack_result_payload


def _service(**kwargs):
    return OptimizationService(NamOracle(), workers=2, transport="threads", **kwargs)


#: Per endpoint — ``worker``: :class:`WorkerHost`, ``service``:
#: :class:`OptimizationService`; short ids, because test reports
#: truncate long names — how to build it, a request only it serves (the
#: first frame a real client would send) with the reply type it draws,
#: and what that reply must say when the request was really served.
ENDPOINTS = {
    "worker": (
        WorkerHost,
        (
            FRAME_REGISTER,
            pack_register_payload(pickle.dumps(IdentityOracle()), 1),
            FRAME_REGISTER_OK,
        ),
        # generation 1 acknowledged, in the reply's 8 golden bytes
        lambda reply: reply == bytes.fromhex("0100000000000000"),
    ),
    "service": (
        _service,
        (
            FRAME_JOB,
            pack_job_payload(1, 8, 1, None, encode_segment([H(0), H(0)] * 20)),
            FRAME_RESULT,
        ),
        # job tag 1 echoed, the 40 cancelling gates optimized away
        lambda reply: unpack_result_payload(reply)[0] == 1
        and len(unpack_result_payload(reply)[2]) == 0,
    ),
}


def _hung_up_on(server, data: bytes) -> bool:
    """Whether ``server`` answers ``data``, sent raw on a fresh
    connection, with nothing but a closed connection."""
    with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
        sock.settimeout(5.0)
        sock.sendall(data)
        return sock.recv(1) == b""


@pytest.fixture(params=list(ENDPOINTS))
def endpoint(request):
    """``start(**server kwargs)`` for the endpoint under test, plus its
    own request and reply check; every started server is stopped
    afterwards."""
    make, own_request, served = ENDPOINTS[request.param]
    started = []

    def start(**kwargs):
        started.append(make(**kwargs).start())
        return started[-1]

    yield start, own_request, served
    for server in started:
        server.stop()


class TestEndpoints:
    def test_token_round_trip(self, endpoint):
        start, own_request, served = endpoint
        server = start(auth_token="s3cret")
        with FrameConnection(server.address, auth_token="s3cret") as conn:
            conn.ping()
            _, reply = conn.request(*own_request)
            assert served(reply)
        assert server.auth_failures == 0

    def test_wrong_token_refused_counted_and_never_retried(self, endpoint):
        start, _, _ = endpoint
        server = start(auth_token="s3cret")
        conn = FrameConnection(server.address, auth_token="wrong")
        with pytest.raises(AuthenticationError, match="invalid auth token"):
            conn.connect()
        assert not conn.connected  # the failed socket was torn down
        assert server.auth_failures == 1
        if isinstance(server, OptimizationService):
            admission = server.status()["admission"]
            assert admission["auth_required"] is True
            assert admission["auth_failures"] == 1

    def test_frame_before_auth_refused_with_typed_error(self, endpoint):
        """A client that skips AUTH gets a typed ``ERR_AUTH`` on its
        first frame — never service, never a hang — and the endpoint
        keeps serving authenticated clients."""
        start, own_request, _ = endpoint
        server = start(auth_token="s3cret")
        with FrameConnection(server.address) as bare:  # no token configured
            with pytest.raises(AuthenticationError, match="authentication required"):
                bare.request(*own_request)
        assert server.auth_failures == 1
        with FrameConnection(server.address, auth_token="s3cret") as conn:
            conn.ping()  # still healthy

    def test_token_is_a_noop_on_an_open_endpoint(self, endpoint):
        """Presenting a token to an endpoint that demands none still
        gets AUTH_OK, so one client config works against both."""
        start, _, _ = endpoint
        server = start()
        with FrameConnection(server.address, auth_token="anything") as conn:
            conn.ping()
        assert server.auth_failures == 0

    def test_silent_connection_dropped_after_idle_timeout(self, endpoint):
        """A connected client that never sends a frame is cut loose
        instead of pinning a handler thread (slow-loris defence)."""
        start, _, _ = endpoint
        server = start(idle_timeout_seconds=0.2)
        sock = socket.create_connection((server.host, server.port), timeout=5.0)
        sock.settimeout(5.0)
        try:
            assert sock.recv(1) == b""  # server closed on us
        finally:
            sock.close()

    def test_active_connection_outlives_the_idle_timeout(self, endpoint):
        start, _, _ = endpoint
        server = start(idle_timeout_seconds=0.3)
        with FrameConnection(server.address) as conn:
            for _ in range(3):
                time.sleep(0.15)
                conn.ping()  # traffic resets the idle clock

    def test_oversized_frame_header_is_hung_up_on(self, endpoint):
        """A header claiming a payload over ``MAX_FRAME_BYTES`` gets the
        connection dropped — over ``PRE_AUTH_FRAME_BYTES`` on a
        connection that still owes a token, which lifts the cap once
        presented — and the endpoint keeps serving others."""
        start, (frame_type, _, _), _ = endpoint
        for token, cap in ((None, MAX_FRAME_BYTES), ("s3cret", PRE_AUTH_FRAME_BYTES)):
            server = start(auth_token=token)
            header = _FRAME_HEADER.pack(FRAME_MAGIC, frame_type, cap + 1)
            assert _hung_up_on(server, header)
            with FrameConnection(server.address, auth_token=token) as conn:
                conn.request(FRAME_PING, bytes(PRE_AUTH_FRAME_BYTES + 1), FRAME_PONG)

    @pytest.mark.parametrize("frame_type", [15, 16, 17, 99])
    def test_retired_cache_frame_types_are_unknown_types(self, endpoint, frame_type):
        """15-17 were the cache lookup / result / store frames: a peer
        that sends one is hung up on at the header like any number
        outside the table, and nobody's cache is asked or written."""
        start, _, _ = endpoint
        server = start()
        cache = getattr(server, "cache", None)
        frame = _FRAME_HEADER.pack(FRAME_MAGIC, frame_type, 8) + bytes(8)
        assert _hung_up_on(server, frame)  # no reply frame at all
        if cache is not None:
            assert cache.stats.lookups == 0 and cache.stats.stores == 0
        with FrameConnection(server.address) as conn:
            conn.ping()

    def test_stop_closes_live_connections_and_is_idempotent(self, endpoint):
        start, _, _ = endpoint
        server = start()
        conn = FrameConnection(server.address).connect()
        try:
            conn.ping()
            assert len(server._conns) == 1
            server.stop()
            assert server._conns == []
            with pytest.raises((OSError, RuntimeError)):
                conn.ping()  # our end observes the close
            server.stop()  # a second stop is a no-op
        finally:
            conn.close()
        # and a stopped endpoint refuses new connections
        with pytest.raises(OSError):
            FrameConnection(server.address, connect_timeout=0.5).connect()
