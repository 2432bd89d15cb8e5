"""Fault injection across the oracle transports.

A networked or multi-process transport meets failure before it meets
scale: workers die mid-round, connections half-close mid-frame, shared
memory runs out.  Every scenario here must end in one of exactly two
ways — recovery with a byte-identical result, or a *typed* error the
driver can catch — and must never corrupt a result, leak a
shared-memory arena (asserted against ``/dev/shm`` like the shm
lifecycle suite) or leave a dangling socket.
"""

import errno
import os
import socket
import threading
import time

import pytest

from repro.circuits import CNOT, H, RZ, X
from repro.oracles import IdentityOracle, NamOracle
from repro.parallel import (
    HAVE_SHM,
    ProcessMap,
    WorkerHost,
    WorkerUnavailableError,
    local_cluster,
)
from repro.parallel import shm as shm_mod
from repro.parallel.frames import (
    FRAME_PING,
    FRAME_PONG,
    FRAME_REGISTER,
    FRAME_REGISTER_OK,
    FRAME_RESULTS,
    FRAME_SEGMENTS,
    FrameReader,
    pack_frame,
    recv_frame,
)

SHM_DIR = "/dev/shm"
HAVE_SHM_DIR = os.path.isdir(SHM_DIR)


def _shm_entries() -> set:
    return set(os.listdir(SHM_DIR)) if HAVE_SHM_DIR else set()


def _segments(count=8):
    return [[H(0), H(0), X(1), CNOT(0, 1)] for _ in range(count)]


class CrashingOracle:
    """Kills its worker process outright (a crash, not an exception)."""

    def __call__(self, segment):
        os._exit(13)


class SlowIdentityOracle:
    """Identity with a delay, so a round is reliably in flight when a
    fault is injected."""

    def __init__(self, delay=0.03):
        self.delay = delay

    def __call__(self, segment):
        time.sleep(self.delay)
        return list(segment)


class GrowingOracle:
    """Returns a strictly larger (still equivalent) segment — the
    result-arena overflow case, where the reply cannot fit the
    parent-reserved region and must fall back to the pipe."""

    def __call__(self, segment):
        grown = list(segment)
        for _ in range(4):
            grown.extend([RZ(0, 0.25), RZ(0, -0.25), X(1), X(1)])
        return grown


# -- process transports: worker killed mid-round -------------------------------


@pytest.mark.parametrize(
    "transport",
    ["encoded", pytest.param("shm", marks=pytest.mark.skipif(
        not HAVE_SHM, reason="no shared_memory here"))],
)
def test_worker_killed_mid_round_raises_then_recovers(transport):
    """A worker crash fails the round with the pool's typed error; the
    *next* round must rebuild the pool and produce a byte-identical
    result — a crash costs one round, not the executor."""
    from concurrent.futures.process import BrokenProcessPool

    before = _shm_entries()
    pm = ProcessMap(2, serial_cutoff=0, transport=transport)
    try:
        with pytest.raises(BrokenProcessPool):
            pm.map_segments(CrashingOracle(), _segments())
        oracle = NamOracle()
        want = [oracle(list(seg)) for seg in _segments()]
        got = pm.map_segments(oracle, _segments())
        assert [list(res) for res in got] == want
    finally:
        pm.close()
    assert _shm_entries() - before == set()


# -- shm transport: arena exhaustion and result overflow -----------------------


@pytest.mark.skipif(not HAVE_SHM, reason="no shared_memory here")
def test_arena_exhaustion_raises_cleanly_and_recovers(monkeypatch):
    """When /dev/shm has no room the round fails with the OS error —
    never a corrupt result — nothing leaks, and the executor works
    again once memory is available."""
    before = _shm_entries()
    pm = ProcessMap(2, serial_cutoff=0, transport="shm")
    real_shared_memory = shm_mod._shared_memory

    class ExhaustedSharedMemory:
        """Stands in for multiprocessing.shared_memory: every create
        fails the way a full /dev/shm does."""

        @staticmethod
        def SharedMemory(*args, **kwargs):
            if kwargs.get("create"):
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_shared_memory.SharedMemory(*args, **kwargs)

    try:
        monkeypatch.setattr(shm_mod, "_shared_memory", ExhaustedSharedMemory)
        with pytest.raises(OSError, match="No space left"):
            pm.map_segments(NamOracle(), _segments())
        assert _shm_entries() - before == set()

        monkeypatch.setattr(shm_mod, "_shared_memory", real_shared_memory)
        oracle = NamOracle()
        want = [oracle(list(seg)) for seg in _segments()]
        got = pm.map_segments(oracle, _segments())
        assert [list(res) for res in got] == want
    finally:
        pm.close()
    assert _shm_entries() - before == set()


@pytest.mark.skipif(not HAVE_SHM, reason="no shared_memory here")
def test_exhaustion_between_acquires_returns_first_block(monkeypatch):
    """ENOSPC on the *second* arena of a round must hand the first
    block back to the ring instead of stranding it."""
    pm = ProcessMap(2, serial_cutoff=0, transport="shm")
    try:
        pm.map_segments(NamOracle(), _segments())  # populate the ring
        pool = pm.wire.arenas
        free_before = len(pool._free)
        calls = {"n": 0}
        real_acquire = pool.acquire

        def second_acquire_fails(nbytes):
            calls["n"] += 1
            if calls["n"] == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_acquire(nbytes)

        monkeypatch.setattr(pool, "acquire", second_acquire_fails)
        with pytest.raises(OSError, match="No space left"):
            pm.map_segments(NamOracle(), _segments())
        assert len(pool._free) == free_before  # first block returned
    finally:
        pm.close()


@pytest.mark.skipif(not HAVE_SHM, reason="no shared_memory here")
def test_result_overflow_falls_back_to_pipe_byte_identically():
    """An oracle that grows its segment past the reserved result region
    must still return exactly its output (via the pipe fallback)."""
    oracle = GrowingOracle()
    want = [oracle(list(seg)) for seg in _segments()]
    pm = ProcessMap(2, serial_cutoff=0, transport="shm")
    try:
        got = pm.map_segments(oracle, _segments())
        assert [list(res) for res in got] == want
    finally:
        pm.close()


# -- socket transport: hosts dying, torn frames, total outage ------------------


def test_host_killed_mid_round_requeues_to_survivor():
    """Stopping one of two hosts mid-round must requeue its batches to
    the survivor and still produce a byte-identical result."""
    oracle = SlowIdentityOracle()
    segments = _segments(20)
    want = [list(seg) for seg in segments]
    h1, h2 = WorkerHost().start(), WorkerHost().start()
    pm = ProcessMap(serial_cutoff=0, transport="socket",
                    hosts=[h1.address, h2.address])
    try:
        killer = threading.Timer(0.08, h2.stop)
        killer.start()
        got = pm.map_segments(oracle, segments)
        killer.join()
        assert [list(res) for res in got] == want
        # the survivor keeps serving subsequent rounds
        got = pm.map_segments(oracle, segments)
        assert [list(res) for res in got] == want
    finally:
        pm.close()
        h1.stop()
        h2.stop()
    assert pm.wire._pool is None  # close() dropped the registry


def test_all_hosts_down_is_a_typed_error_then_recovers():
    """Losing every host fails the round with WorkerUnavailableError;
    once a host returns on the same port, the next round reconnects,
    re-registers the oracle, and completes byte-identically."""
    oracle = IdentityOracle()
    segments = _segments(10)
    host = WorkerHost().start()
    port = host.port
    pm = ProcessMap(serial_cutoff=0, transport="socket", hosts=[host.address])
    try:
        assert [list(r) for r in pm.map_segments(oracle, segments)] == segments
        host.stop()
        with pytest.raises(WorkerUnavailableError, match="unreachable"):
            pm.map_segments(oracle, segments)
        host = WorkerHost(port=port).start()  # same address, new process-alike
        got = pm.map_segments(oracle, segments)
        assert [list(res) for res in got] == segments
        assert pm.counters()["socket_reconnects"] >= 1
    finally:
        pm.close()
        host.stop()


class TornResultServer:
    """A worker impostor that speaks the protocol until the first
    segment batch, then sends *half* a RESULTS frame and drops the
    connection — the torn-frame fault a flaky network produces.

    ``delay`` holds the batch in flight before tearing it, so the
    other host can drain the rest of the queue first — the exact
    interleaving where a dispatcher that treats "queue empty" as "round
    over" would strand the requeued batch.
    """

    def __init__(self, delay: float = 0.0):
        self.delay = delay
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        from repro.parallel.frames import ConnectionClosedError

        conn, _ = self._listener.accept()
        self._listener.close()  # one victim is enough; reconnects are refused
        reader = FrameReader()
        try:
            while True:
                frame_type, payload = recv_frame(conn, reader)
                if frame_type == FRAME_REGISTER:
                    conn.sendall(pack_frame(FRAME_REGISTER_OK, payload[:8]))
                elif frame_type == FRAME_PING:
                    conn.sendall(pack_frame(FRAME_PONG))
                elif frame_type == FRAME_SEGMENTS:
                    if self.delay:
                        time.sleep(self.delay)
                    torn = pack_frame(FRAME_RESULTS, b"\x00" * 64)
                    conn.sendall(torn[: len(torn) // 2])
                    break
        except (ConnectionClosedError, OSError):
            pass  # client hung up before sending work: nothing to tear
        finally:
            conn.close()

    def stop(self):
        self._thread.join(timeout=2.0)


def test_half_closed_connection_mid_frame_requeues_to_good_host():
    """A half-delivered result frame must be treated as a host failure
    (typed, requeued), never parsed as a short result."""
    torn = TornResultServer()
    good = WorkerHost().start()
    oracle = IdentityOracle()
    segments = _segments(12)
    pm = ProcessMap(serial_cutoff=0, transport="socket",
                    hosts=[torn.address, good.address])
    try:
        got = pm.map_segments(oracle, segments)
        assert [list(res) for res in got] == segments
        assert good.segments_served == len(segments)  # good host did it all
    finally:
        pm.close()
        torn.stop()
        good.stop()


def test_requeued_batch_after_queue_drained_is_not_stranded():
    """Regression: the good host drains the whole queue while the torn
    host still holds one batch in flight; when that batch is requeued
    the idle dispatcher must pick it up instead of having already
    declared the round over (which surfaced as a spurious
    WorkerUnavailableError with a healthy host attached)."""
    torn = TornResultServer(delay=0.25)
    good = WorkerHost().start()
    oracle = IdentityOracle()
    segments = _segments(12)
    pm = ProcessMap(serial_cutoff=0, transport="socket",
                    hosts=[torn.address, good.address])
    try:
        got = pm.map_segments(oracle, segments)
        assert [list(res) for res in got] == segments
        assert good.segments_served == len(segments)
    finally:
        pm.close()
        torn.stop()
        good.stop()


def test_no_dangling_sockets_after_close():
    """close() must close every client connection, and stop() every
    worker-side connection."""
    with local_cluster(2) as hosts:
        pm = ProcessMap(serial_cutoff=0, transport="socket", hosts=hosts)
        pm.map_segments(IdentityOracle(), _segments())
        pool = pm.wire._pool
        conns = list(pool._conns)
        assert all(conn.connected for conn in conns)
        pm.close()
        assert all(not conn.connected for conn in conns)


def test_worker_host_closes_connections_on_stop():
    host = WorkerHost().start()
    pm = ProcessMap(serial_cutoff=0, transport="socket", hosts=[host.address])
    try:
        pm.map_segments(IdentityOracle(), _segments())
        assert len(host._conns) == 1
    finally:
        pm.close()
        host.stop()
    assert host._conns == []
    for thread in host._conn_threads:
        assert not thread.is_alive()


class BusyServiceImpostor:
    """A ``popqc serve`` impostor that answers every JOB with BUSY
    (optionally torn) — the pathological overload case the client's
    retry budget must bound."""

    def __init__(self, torn: bool = False):
        self.torn = torn
        self.jobs_seen = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        from repro.parallel.frames import (
            FRAME_BUSY,
            FRAME_JOB,
            ConnectionClosedError,
        )
        from repro.service.frames import BUSY_MAX_ACTIVE, pack_busy_payload

        conn, _ = self._listener.accept()
        self._listener.close()
        reader = FrameReader()
        try:
            while True:
                frame_type, _payload = recv_frame(conn, reader)
                if frame_type != FRAME_JOB:
                    continue
                self.jobs_seen += 1
                payload = pack_busy_payload(BUSY_MAX_ACTIVE, 0.01, "always busy")
                if self.torn:
                    payload = payload[:2]  # shorter than the BUSY header
                conn.sendall(pack_frame(FRAME_BUSY, payload))
        except (ConnectionClosedError, OSError):
            pass
        finally:
            conn.close()

    def stop(self):
        self._thread.join(timeout=2.0)


def test_auth_refusal_is_not_absorbed_by_host_failover():
    """A wrong worker token must surface as AuthenticationError — the
    reconnect/requeue machinery treats host failures as transient, but
    a bad secret fails identically everywhere and retrying it forever
    would just hammer the host."""
    from repro.parallel import AuthenticationError, SocketHostPool

    host = WorkerHost(auth_token="right").start()
    try:
        pool = SocketHostPool([host.address], auth_token="wrong")
        try:
            with pytest.raises(AuthenticationError):
                pool.register(IdentityOracle(), 1)
        finally:
            pool.close()
    finally:
        host.stop()


def test_busy_flood_exhausts_client_retry_budget():
    """Against a server that is *always* busy, the client's bounded
    backoff gives up with a typed error after exactly its budget —
    never an unbounded retry storm."""
    from repro.circuits import Circuit
    from repro.service import ServiceBusyError, ServiceClient

    impostor = BusyServiceImpostor()
    client = ServiceClient(
        impostor.address,
        busy_retries=3,
        busy_backoff_seconds=0.001,
        busy_backoff_max_seconds=0.002,
    )
    try:
        with pytest.raises(ServiceBusyError, match="after 3 retries"):
            client.optimize(Circuit([H(0)], 1), omega=8)
        assert client.busy_rejections == 4  # 1 attempt + 3 retries
        assert impostor.jobs_seen == 4
    finally:
        client.close()
        impostor.stop()


def test_torn_busy_payload_is_a_typed_protocol_error():
    from repro.circuits import Circuit
    from repro.parallel.frames import FrameProtocolError
    from repro.service import ServiceClient

    impostor = BusyServiceImpostor(torn=True)
    client = ServiceClient(impostor.address, busy_retries=3)
    try:
        with pytest.raises(FrameProtocolError, match="BUSY payload"):
            client.optimize(Circuit([H(0)], 1), omega=8)
    finally:
        client.close()
        impostor.stop()


# -- socket transport: elastic fleet faults ------------------------------------


def test_host_killed_mid_round_leaves_the_rest_to_the_survivor():
    """Killing one of two hosts mid-round puts its batch back at the
    head of the queue, and the survivor claims that and every batch
    after it: the round completes, in batch order."""
    from repro.circuits.encoding import encode_segment
    from repro.parallel import SocketHostPool
    from repro.parallel.frames import pack_segments_payload

    doomed, survivor = WorkerHost().start(), WorkerHost().start()
    pool = SocketHostPool([doomed.address, survivor.address])
    try:
        pool.register(SlowIdentityOracle(0.03), 1)
        encoded = [encode_segment([X(0)] * (i + 1)) for i in range(16)]
        batches = [
            (i, 1, pack_segments_payload(1, i, [encoded[i]]))
            for i in range(16)
        ]
        killer = threading.Timer(0.08, doomed.stop)
        killer.start()
        results = pool.run_round(batches)
        killer.join()
        assert [[n for n, _ in blobs] for blobs in results] == [
            [i + 1] for i in range(16)
        ]
        assert survivor.segments_served > doomed.segments_served
        assert survivor.segments_served + doomed.segments_served >= 16
    finally:
        pool.close()
        doomed.stop()
        survivor.stop()


def test_host_killed_mid_round_is_byte_identical_through_the_executor():
    """The same fault through ProcessMap: one host dies mid-round, the
    survivor claims the rest, and the result is byte-identical."""
    oracle = SlowIdentityOracle()
    segments = [[X(0)] * (i + 1) + [H(1)] for i in range(20)]
    want = [list(seg) for seg in segments]
    doomed, survivor = WorkerHost().start(), WorkerHost().start()
    pm = ProcessMap(
        serial_cutoff=0,
        transport="socket",
        hosts=[doomed.address, survivor.address],
    )
    try:
        killer = threading.Timer(0.08, doomed.stop)
        killer.start()
        got = pm.map_segments(oracle, segments)
        killer.join()
        assert [list(res) for res in got] == want
        assert survivor.segments_served > doomed.segments_served
    finally:
        pm.close()
        doomed.stop()
        survivor.stop()
