"""The distributed socket transport: worker host, registry, executor.

Covers the pieces the frame-codec property tests don't: the
:class:`~repro.parallel.frames.WorkerHost` request loop, the
generation-token protocol over the wire, the client registry's
dispatch and statistics, the ``ProcessMap(transport="socket")``
integration (byte-identical with serial, stats recorded), and the
``popqc worker`` CLI subcommand against a real subprocess
(``dist``-marked; CI's ``dist-smoke`` job points it at externally
launched workers through ``POPQC_DIST_HOSTS``).
"""

import os
import pickle
import re
import subprocess
import sys
import threading
import time

import pytest

from repro.circuits import CNOT, H, X, random_redundant_circuit, to_qasm
from repro.circuits.encoding import encode_segment
from repro.core import popqc
from repro.oracles import IdentityOracle, NamOracle
from repro.parallel import (
    ProcessMap,
    SocketHostPool,
    StaleOracleError,
    WorkerHost,
    WorkerUnavailableError,
    local_cluster,
)
from repro.parallel.frames import (
    RemoteOracleError,
    pack_segments_payload,
    parse_address,
)
from repro.parallel.hostpool import HostConnection


def _segments(count=8):
    return [[H(0), H(0), X(1), CNOT(0, 1)] for _ in range(count)]


class RaisingOracle:
    """Fails every call with an ordinary exception."""

    def __call__(self, segment):
        raise ValueError("boom over the wire")


class TestParseAddress:
    def test_host_and_port(self):
        assert parse_address("10.0.0.7:9001") == ("10.0.0.7", 9001)

    def test_bare_port_defaults_to_loopback(self):
        assert parse_address(":9001") == ("127.0.0.1", 9001)

    @pytest.mark.parametrize("bad", ["nohost", "host:", "host:abc"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address(bad)


class TestWorkerHostProtocol:
    def test_register_ping_and_batch(self):
        with local_cluster(1) as hosts:
            conn = HostConnection(hosts[0])
            conn.connect()
            try:
                conn.register(pickle.dumps(NamOracle()), 1)
                conn.ping()
                payload = pack_segments_payload(
                    1, 0, [encode_segment(seg) for seg in _segments(3)]
                )
                results = conn.run_batch(0, payload)
                assert len(results) == 3
                # (gate count, packed blob) pairs, straight off the header walk
                assert all(isinstance(b, bytes) and b for _, b in results)
                assert [n for n, _ in results] == [
                    len(NamOracle()(seg)) for seg in _segments(3)
                ]
            finally:
                conn.close()

    def test_stale_generation_refused_with_typed_error(self):
        with local_cluster(1) as hosts:
            conn = HostConnection(hosts[0])
            conn.connect()
            try:
                conn.register(pickle.dumps(IdentityOracle()), 3)
                payload = pack_segments_payload(
                    4, 0, [encode_segment(_segments(1)[0])]
                )
                with pytest.raises(StaleOracleError, match="generation 4"):
                    conn.run_batch(0, payload)
            finally:
                conn.close()

    def test_unregistered_connection_refused(self):
        from repro.parallel.frames import FrameProtocolError

        with local_cluster(1) as hosts:
            conn = HostConnection(hosts[0])
            conn.connect()
            try:
                payload = pack_segments_payload(
                    0, 0, [encode_segment(_segments(1)[0])]
                )
                with pytest.raises(FrameProtocolError, match="no oracle"):
                    conn.run_batch(0, payload)
            finally:
                conn.close()

    def test_remote_oracle_exception_propagates(self):
        with local_cluster(1) as hosts:
            conn = HostConnection(hosts[0])
            conn.connect()
            try:
                conn.register(pickle.dumps(RaisingOracle()), 1)
                payload = pack_segments_payload(
                    1, 0, [encode_segment(_segments(1)[0])]
                )
                with pytest.raises(RemoteOracleError, match="boom over the wire"):
                    conn.run_batch(0, payload)
                # the connection survives the failed batch
                conn.ping()
            finally:
                conn.close()

    def test_worker_counts_traffic(self):
        host = WorkerHost().start()
        try:
            pm = ProcessMap(serial_cutoff=0, transport="socket", hosts=[host.address])
            try:
                pm.map_segments(NamOracle(), _segments())
            finally:
                pm.close()
            assert host.segments_served == 8
            assert host.batches_served >= 1
            assert host.bytes_received > 0 and host.bytes_sent > 0
        finally:
            host.stop()


class TestSocketHostPool:
    def test_requires_hosts(self):
        with pytest.raises(ValueError, match="at least one host"):
            SocketHostPool([])

    def test_register_with_no_reachable_host_raises(self):
        pool = SocketHostPool(["127.0.0.1:1"])  # port 1: nothing listens
        with pytest.raises(WorkerUnavailableError, match="no worker host"):
            pool.register(IdentityOracle(), 1)

    def test_round_spreads_work_across_hosts(self):
        with local_cluster(2) as hosts:
            pool = SocketHostPool(hosts)
            try:
                pool.register(IdentityOracle(), 1)
                encoded = [encode_segment(seg) for seg in _segments(12)]
                batches = [
                    (i, 2, pack_segments_payload(1, i, encoded[2 * i : 2 * i + 2]))
                    for i in range(6)
                ]
                results = pool.run_round(batches)
                assert [len(blobs) for blobs in results] == [2] * 6
                assert sum(pool.host_segments.values()) == 12
                assert pool.bytes_sent > 0 and pool.bytes_received > 0
            finally:
                pool.close()


class TestProcessMapSocket:
    def test_requires_hosts(self):
        with pytest.raises(ValueError, match="requires hosts"):
            ProcessMap(transport="socket")

    def test_hosts_rejected_for_other_transports(self):
        with pytest.raises(ValueError, match="only applies"):
            ProcessMap(transport="encoded", hosts=["127.0.0.1:9001"])

    def test_workers_default_to_host_count(self):
        with local_cluster(2) as hosts:
            pm = ProcessMap(transport="socket", hosts=hosts)
            try:
                assert pm.workers == 2
            finally:
                pm.close()

    def test_map_segments_matches_inline(self):
        oracle = NamOracle()
        segments = _segments(10)
        want = [oracle(list(seg)) for seg in segments]
        with local_cluster(2) as hosts:
            pm = ProcessMap(serial_cutoff=0, transport="socket", hosts=hosts)
            try:
                got = pm.map_segments(oracle, segments)
            finally:
                pm.close()
        assert [list(res) for res in got] == want

    def test_popqc_stats_record_socket_run(self):
        circuit = random_redundant_circuit(5, 300, seed=101, redundancy=0.6)
        with local_cluster(2) as hosts:
            pm = ProcessMap(serial_cutoff=0, transport="socket", hosts=hosts)
            try:
                res = popqc(circuit, NamOracle(), 16, parmap=pm)
            finally:
                pm.close()
        assert res.stats.transport == "socket"
        counters = res.stats.counters
        assert counters["socket_bytes_sent"] > 0
        assert counters["socket_bytes_received"] > 0
        assert counters["socket_reconnects"] == 0
        assert sum(counters["socket_host_segments"].values()) > 0
        assert all(s >= 0 for s in counters["socket_host_seconds"].values())
        assert counters["pool_dispatches"] > 0

    def test_heartbeat_pings_idle_connections_between_rounds(self):
        """With a zero heartbeat interval every idle connection is
        pinged before the next round; a host that died since the last
        round is detected by the failed ping and reconnected (or
        dropped) *before* any batch is risked on it."""
        oracle = IdentityOracle()
        with local_cluster(2) as hosts:
            pm = ProcessMap(serial_cutoff=0, transport="socket", hosts=hosts)
            try:
                pm.map_segments(oracle, _segments())
                pm.wire._pool.heartbeat_seconds = 0.0
                pm.map_segments(oracle, _segments())
                assert pm.wire._pool.heartbeats >= 2  # both conns pinged
            finally:
                pm.close()

    def test_failed_heartbeat_triggers_reconnect(self):
        oracle = IdentityOracle()
        host = WorkerHost().start()
        port = host.port
        pm = ProcessMap(serial_cutoff=0, transport="socket", hosts=[host.address])
        try:
            assert [list(r) for r in pm.map_segments(oracle, _segments())]
            host.stop()
            host = WorkerHost(port=port).start()  # same address, fresh server
            pm.wire._pool.heartbeat_seconds = 0.0
            got = pm.map_segments(oracle, _segments())
            assert [list(res) for res in got] == _segments()
            assert pm.counters()["socket_reconnects"] >= 1
        finally:
            pm.close()
            host.stop()

    def test_oracle_swap_bumps_generation(self):
        with local_cluster(1) as hosts:
            pm = ProcessMap(serial_cutoff=0, transport="socket", hosts=hosts)
            try:
                pm.map_segments(NamOracle(), _segments())
                gen_first = pm.wire.generation
                pm.map_segments(IdentityOracle(), _segments())
                assert pm.wire.generation == gen_first + 1
            finally:
                pm.close()


@pytest.mark.dist
class TestWorkerSubprocess:
    """The socket transport against real ``popqc worker`` processes.

    CI's ``dist-smoke`` job launches the workers itself and passes
    their addresses through ``POPQC_DIST_HOSTS``; elsewhere the test
    spawns (and reaps) its own subprocess workers.
    """

    @pytest.fixture()
    def worker_addresses(self):
        env_hosts = os.environ.get("POPQC_DIST_HOSTS")
        if env_hosts:
            yield [h.strip() for h in env_hosts.split(",") if h.strip()]
            return
        procs, addresses = [], []
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        try:
            for _ in range(2):
                proc = subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", "worker", "--bind",
                     "127.0.0.1:0"],
                    stdout=subprocess.PIPE,
                    text=True,
                    env=env,
                )
                procs.append(proc)
                line = proc.stdout.readline()
                match = re.search(r"listening on (\S+)", line)
                assert match, f"unexpected worker banner: {line!r}"
                addresses.append(match.group(1))
            yield addresses
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                proc.wait(timeout=10)

    def test_socket_equivalence_against_real_workers(self, worker_addresses):
        circuit = random_redundant_circuit(5, 300, seed=101, redundancy=0.6)
        want = popqc(circuit, NamOracle(), 16)
        pm = ProcessMap(
            serial_cutoff=0, transport="socket", hosts=worker_addresses
        )
        try:
            got = popqc(circuit, NamOracle(), 16, parmap=pm)
        finally:
            pm.close()
        assert got.circuit.gates == want.circuit.gates
        assert to_qasm(got.circuit) == to_qasm(want.circuit)
        assert got.stats.rounds == want.stats.rounds
        assert got.stats.oracle_calls == want.stats.oracle_calls
        assert got.stats.transport == "socket"


class TestWorkerAuth:
    """The shared token through the client registry and the executor
    (the AUTH gate itself is pinned for both daemons in
    ``tests/test_endpoints.py``)."""

    def test_socket_pool_authenticates_every_host(self):
        with local_cluster(2, auth_token="s3cret") as hosts:
            pool = SocketHostPool(hosts, auth_token="s3cret")
            try:
                pool.register(IdentityOracle(), 1)
                encoded = [encode_segment(seg) for seg in _segments(4)]
                batches = [
                    (i, 1, pack_segments_payload(1, i, [encoded[i]]))
                    for i in range(4)
                ]
                assert len(pool.run_round(batches)) == 4
            finally:
                pool.close()

    def test_process_map_carries_the_token(self):
        circuit = random_redundant_circuit(5, 240, seed=104, redundancy=0.6)
        reference = popqc(circuit, NamOracle(), 16)
        with local_cluster(1, auth_token="s3cret") as hosts:
            pm = ProcessMap(
                serial_cutoff=0,
                transport="socket",
                hosts=hosts,
                auth_token="s3cret",
            )
            try:
                res = popqc(circuit, NamOracle(), 16, parmap=pm)
            finally:
                pm.close()
        assert to_qasm(res.circuit) == to_qasm(reference.circuit)


class SleepyIdentityOracle:
    """Identity with a fixed delay, so queue depth is observable."""

    def __init__(self, delay=0.01):
        self.delay = delay

    def __call__(self, segment):
        import time as time_mod

        time_mod.sleep(self.delay)
        return list(segment)


def _single_segment_batches(count):
    encoded = [encode_segment(seg) for seg in _segments(count)]
    return [
        (i, 1, pack_segments_payload(1, i, [encoded[i]])) for i in range(count)
    ]


class SlowHost(WorkerHost):
    """A worker host that sleeps before answering each batch."""

    def __init__(self, delay):
        super().__init__()
        self.delay = delay

    def _answer_segments(self, payload, session):
        time.sleep(self.delay)
        return super()._answer_segments(payload, session)


class TestClaimDrain:
    def test_fast_host_claims_more_of_the_round(self):
        """Each dispatcher claims the next batch when its host is free:
        a host 10x slower serves fewer batches, and the round still
        comes back complete and in batch order."""
        fast, slow = WorkerHost().start(), SlowHost(0.05).start()
        pool = SocketHostPool([fast.address, slow.address])
        try:
            pool.register(IdentityOracle(), 1)
            encoded = [encode_segment([X(0)] * (i + 1)) for i in range(16)]
            batches = [
                (i, 1, pack_segments_payload(1, i, [encoded[i]]))
                for i in range(16)
            ]
            results = pool.run_round(batches)
            assert [[n for n, _ in blobs] for blobs in results] == [
                [i + 1] for i in range(16)
            ]
            served = pool.host_segments
            assert served[fast.address] + served[slow.address] == 16
            assert served[fast.address] > served[slow.address]
        finally:
            pool.close()
            fast.stop()
            slow.stop()


class TestElasticMembership:
    def test_add_host_joins_the_next_round(self):
        with local_cluster(2) as hosts:
            pool = SocketHostPool([hosts[0]])
            try:
                pool.register(SleepyIdentityOracle(0.005), 1)
                assert pool.add_host(hosts[1]) is True
                assert pool.hosts == [hosts[0], hosts[1]]
                results = pool.run_round(_single_segment_batches(12))
                assert len(results) == 12
                assert sum(pool.host_segments.values()) == 12
                # the joined host claimed real work
                assert pool.host_segments[hosts[1]] > 0
            finally:
                pool.close()

    def test_add_unreachable_host_reports_false_but_stays(self):
        with local_cluster(1) as hosts:
            pool = SocketHostPool(hosts, connect_timeout=0.2)
            try:
                pool.register(IdentityOracle(), 1)
                assert pool.add_host("127.0.0.1:1") is False
                assert "127.0.0.1:1" in pool.hosts
                # the dead member does not block the live one
                assert len(pool.run_round(_single_segment_batches(4))) == 4
            finally:
                pool.close()

    def test_remove_host_mid_round_hands_its_batch_to_the_others(self):
        """A host retired while it holds a batch is closed for good:
        the batch goes back to the queue, the other host claims it and
        the rest, and the retired connection is never reopened."""
        with local_cluster(2) as hosts:
            pool = SocketHostPool(hosts)
            try:
                pool.register(SleepyIdentityOracle(0.03), 1)
                (retired,) = [c for c in pool._snapshot() if c.address == hosts[1]]
                timer = threading.Timer(0.08, pool.remove_host, args=(hosts[1],))
                timer.start()
                results = pool.run_round(_single_segment_batches(16))
                timer.join()
                assert [len(blobs) for blobs in results] == [1] * 16
                assert not retired.connected
                assert pool.reconnects == 0
                assert pool.host_segments[hosts[0]] > pool.host_segments[hosts[1]]
            finally:
                pool.close()

    def test_remove_host_retires_it_from_dispatch(self):
        with local_cluster(2) as hosts:
            pool = SocketHostPool(hosts)
            try:
                pool.register(IdentityOracle(), 1)
                assert pool.remove_host(hosts[1]) is True
                assert pool.hosts == [hosts[0]]
                results = pool.run_round(_single_segment_batches(6))
                assert len(results) == 6
                assert pool.host_segments[hosts[1]] == 0
                assert pool.remove_host(hosts[1]) is False
            finally:
                pool.close()
