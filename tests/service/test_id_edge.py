"""The served edge: JOB wire arrays -> ids -> rounds -> ids -> RESULT.

A served job never decodes its circuit into per-gate ``Gate`` objects,
on either side of the socket — and the edge is still a trust boundary:
a well-framed JOB with hostile content is answered with a typed ERROR,
on a connection that keeps serving.  Output bytes are those of a
standalone ``popqc`` run, cold and warm.
"""

import math
import sys
import threading
import time

import numpy as np
import pytest

from repro.benchgen import family_names, generate
from repro.circuits import CNOT, RZ, Circuit, Gate, H, X
from repro.circuits import gate as gate_module
from repro.circuits import intern
from repro.circuits.encoding import (
    EncodedSegment,
    decode_segment,
    encode_segment,
    pack_segment,
)
from repro.core import GateStore, popqc, popqc_rounds
from repro.oracles import NamOracle
from repro.parallel import LazySegmentResult, transports
from repro.parallel.frames import (
    ERR_BAD_FRAME,
    ERR_JOB_FAILED,
    FRAME_JOB,
    FRAME_RESULT,
)
from repro.service import OptimizationService, ServiceClient, ServiceError
from repro.service import server as server_module
from repro.service.frames import pack_job_payload, unpack_result_payload

GOOD = [H(0), H(0), CNOT(0, 1), RZ(1, 0.5), RZ(1, 0.25)]
#: swap is narrow (two qubits), ccx is not: it takes the per-gate codec.
WIDE = [
    gate
    for k in range(40)
    for gate in (H(0), H(0), Gate("swap", (0, 1)), Gate("ccx", (2, 0, 1)), X(k % 3))
]


@pytest.fixture(scope="module")
def service():
    srv = OptimizationService(NamOracle(), workers=2, transport="threads").start()
    yield srv
    srv.stop()


def _segment(names, ops, arities, qubits, mask, params=()):
    """An ``EncodedSegment`` of exactly these arrays, consistent or not."""
    return EncodedSegment(
        names=tuple(names),
        ops=np.asarray(ops, dtype=np.uint8),
        arities=np.asarray(arities, dtype=np.uint8),
        qubits=np.asarray(qubits, dtype=np.int32),
        param_mask=np.packbits(np.asarray(mask, dtype=bool)),
        params=np.asarray(params, dtype=np.float64),
        length=len(ops),
    )


def _job(encoded, num_qubits=None):
    return pack_job_payload(7, 4, num_qubits, None, encoded)


def _undecodable_name():
    payload = bytearray(_job(encode_segment([H(0)])))
    payload[payload.index(b"\x01\x00h") + 2] = 0xFF  # <H length 1> + "h"
    return bytes(payload)


RZ3 = dict(names=["rz"], ops=[0] * 3, arities=[1] * 3, qubits=[0] * 3, mask=[1] * 3)

HOSTILE = {
    "num_qubits below the span": (_job(encode_segment(GOOD), 1), ERR_JOB_FAILED),
    "undecodable gate name": (_undecodable_name(), ERR_BAD_FRAME),
    "parametrised unknown gate": (
        _job(_segment(["foo"], [0], [1], [0], [1], [0.5])),
        ERR_JOB_FAILED,
    ),
    "rz without its angle": (_job(_segment(["rz"], [0], [1], [0], [0])), ERR_JOB_FAILED),
    "cnot(1, 1)": (_job(_segment(["cnot"], [0], [2], [1, 1], [0])), ERR_JOB_FAILED),
    "NaN angle": (
        _job(_segment(["rz"], [0], [1], [0], [1], [math.nan])),
        ERR_JOB_FAILED,
    ),
    "infinite angle": (
        _job(_segment(["rz"], [0], [1], [0], [1], [-math.inf])),
        ERR_JOB_FAILED,
    ),
    "negative qubit": (_job(_segment(["h"], [0], [1], [-1], [0])), ERR_JOB_FAILED),
    "opcode past the name table": (
        _job(_segment(["h"], [0, 3], [1, 1], [0, 0], [0, 0])),
        ERR_JOB_FAILED,
    ),
    "qubits shorter than the arities": (
        _job(_segment(["cnot"], [0, 0], [2, 2], [0, 1, 1], [0, 0])),
        ERR_JOB_FAILED,
    ),
    "params shorter than the mask": (
        _job(_segment(**RZ3, params=[0.1, 0.2])),
        ERR_JOB_FAILED,
    ),
    "one param for three gates": (_job(_segment(**RZ3, params=[0.1])), ERR_JOB_FAILED),
    "params longer than the mask": (
        _job(_segment(**RZ3, params=[0.1, 0.2, 0.3, 0.4])),
        ERR_JOB_FAILED,
    ),
    "arity 0": (_job(_segment(["h"], [0], [0], [], [0])), ERR_JOB_FAILED),
    "base-set name, wrong arity": (
        _job(_segment(["h"], [0], [2], [0, 1], [0])),
        ERR_JOB_FAILED,
    ),
}


class TestHostileContent:
    """Well-framed JOBs whose *content* is wrong (torn frames are
    ``test_service.py``'s)."""

    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_answered_with_a_typed_error_and_the_connection_lives(self, service, case):
        payload, kind = HOSTILE[case]
        failed = service.jobs_failed
        with ServiceClient(service.address) as client:
            with pytest.raises(ServiceError, match=rf"\(kind {kind}\)"):
                client.request(FRAME_JOB, payload, FRAME_RESULT)
            assert service.jobs_active == 0
            assert service.jobs_failed == failed + (kind == ERR_JOB_FAILED)
            # the *same connection* serves a good job next
            job = client.optimize(GOOD, omega=4)
        assert job.circuit.gates == (CNOT(0, 1), RZ(1, 0.75))
        assert service.jobs_active == 0

    def test_an_unparametrised_unknown_name_is_an_opaque_gate(self, service):
        """There is no gate-name registry: ``Gate`` takes any name, and
        ``swap``/``ccx`` are exactly such names to the service."""
        gates = [Gate("foo", (0,)), H(1), H(1), Gate("foo", (0, 1))]
        with ServiceClient(service.address) as client:
            job = client.optimize(gates, omega=4)
        assert job.circuit.gates == popqc(gates, NamOracle(), 4).circuit.gates
        assert Gate("foo", (0, 1)) in job.circuit.gates

    def test_opaque_gates_pass_through_a_served_job(self, service):
        """t t is s, not the identity; swap h swap is h on the other
        wire: the oracle must not rewrite either as a known gate."""
        t, swap = Gate("t", (0,)), Gate("swap", (0, 1))
        gates = [t, t, H(0), swap, H(1), swap, X(2), X(2)]
        with ServiceClient(service.address) as client:
            job = client.optimize(Circuit(gates, 3), omega=4)
        assert job.circuit.gates == tuple(gates[:6])
        assert job.circuit.gates == popqc(gates, NamOracle(), 4).circuit.gates

    def test_gates_outside_the_narrow_path_round_trip(self, service):
        want = pack_segment(encode_segment(popqc(WIDE, NamOracle(), 6).circuit.gates))
        with ServiceClient(service.address) as client:
            for _ in ("cold", "warm"):
                _, payload = client.request(
                    FRAME_JOB,
                    pack_job_payload(1, 6, 3, None, encode_segment(WIDE)),
                    FRAME_RESULT,
                )
                assert pack_segment(unpack_result_payload(payload)[2]) == want
            job = client.optimize(Circuit(WIDE, 3), omega=6)
        assert pack_segment(encode_segment(job.circuit.gates)) == want
        assert Gate("ccx", (2, 0, 1)) in job.circuit.gates


def _result_bytes(client, circuit, omega):
    job = pack_job_payload(
        1, omega, circuit.num_qubits, None, encode_segment(circuit.gates)
    )
    _, payload = client.request(FRAME_JOB, job, FRAME_RESULT)
    return pack_segment(unpack_result_payload(payload)[2])


def _standalone_bytes(circuit, omega):
    return pack_segment(
        encode_segment(popqc(circuit, NamOracle(), omega).circuit.gates)
    )


class TestByteIdentity:
    """RESULT circuit bytes are the reference encoder's on a standalone
    ``popqc`` output: all eight families, two Ω, on the first submission
    to a fresh daemon (oracle calls, and memo hits for the segments the
    job repeats), the second and the third (memo hits throughout)."""

    @pytest.fixture
    def fresh_service(self):
        srv = OptimizationService(NamOracle(), workers=2, transport="threads")
        yield srv.start()
        srv.stop()

    @pytest.mark.parametrize("omega", [25, 100])
    @pytest.mark.parametrize("family", family_names())
    def test_result_bytes_equal_standalone_popqc(
        self, fresh_service, job_stats, family, omega
    ):
        circuit = generate(family, 0, seed=3)
        want = _standalone_bytes(circuit, omega)
        with ServiceClient(fresh_service.address) as client:
            for _ in ("miss", "memo hit", "memo hit"):
                assert _result_bytes(client, circuit, omega) == want
        first, second, third = job_stats
        calls = first.oracle_calls
        assert second.oracle_calls == third.oracle_calls == calls > 0
        # the memo takes every answer on first sight: a hit on the first
        # pass is a segment the job itself repeats, answered by the memo,
        # and a job that repeats none reads 0, calls, calls
        memo = [stats.counters["cache_memo_hits"] for stats in job_stats]
        assert memo == [first.cache_hits, calls, calls]
        assert first.cache_hits < calls
        assert second.cache_hits == third.cache_hits == calls
        if family in ("Grover", "HHL", "VQE") and omega == 100:
            assert first.cache_hits == 0
        assert third.cache_bytes_saved == second.cache_bytes_saved == 0


class FailsOnDemand(NamOracle):
    """Raises on its ``fail_at``-th call from now, through any entry (a
    class attribute: the oracle's pickle, hence its cache namespace,
    never changes)."""

    fail_at = None

    def _count(self):
        cls = type(self)
        if cls.fail_at is not None:
            cls.fail_at -= 1
            if cls.fail_at <= 0:
                cls.fail_at = None
                raise RuntimeError("oracle fell over")

    def __call__(self, gates):
        self._count()
        return super().__call__(gates)

    def run_ids(self, ids, table):
        self._count()
        return super().run_ids(ids, table)

    def run_packed(self, encoded):
        self._count()
        return super().run_packed(encoded)


class TestSharedTable:
    """Every job of a daemon interns into one table and asks its memo:
    a bad job leaves nothing in either, and replacing them is invisible."""

    def test_hostile_jobs_leave_no_row_key_or_memo_entry(self, service):
        table, memo = service._table, service._memo

        def state():
            return len(table), len(table._by_key), len(table._by_value), len(memo)

        with ServiceClient(service.address) as client:
            client.optimize(GOOD, omega=4)
            # h() on no qubit is a value ``Gate`` takes (it is the oracle
            # that does not): it may have its row, here it gets it first
            with pytest.raises(ServiceError):
                client.request(FRAME_JOB, HOSTILE["arity 0"][0], FRAME_RESULT)
            for case in sorted(HOSTILE):
                before, failed = state(), service.jobs_failed
                payload, kind = HOSTILE[case]
                with pytest.raises(ServiceError, match=rf"\(kind {kind}\)"):
                    client.request(FRAME_JOB, payload, FRAME_RESULT)
                assert state() == before, case
                assert service.jobs_failed == failed + (kind == ERR_JOB_FAILED)
            assert service._table is table
            # every row is still a gate the reference codec round-trips ...
            ids = np.arange(len(table), dtype=np.int32)
            assert decode_segment(table.encoded(ids)) == table.gates
            assert set(table._by_key.values()) <= set(range(len(table)))
            # ... and the next job is served from it, byte for byte
            circuit = generate("Sqrt", 0, seed=11)
            want = _standalone_bytes(circuit, 25)
            assert [_result_bytes(client, circuit, 25) for _ in range(3)] == [want] * 3

    def test_a_job_that_raises_mid_run_leaves_the_table_usable(self, job_stats):
        circuit = generate("Grover", 0, seed=2)
        want = _standalone_bytes(circuit, 25)
        srv = OptimizationService(FailsOnDemand(), workers=2, transport="threads")
        srv.start()
        try:
            table = srv._table
            with ServiceClient(srv.address) as client:
                FailsOnDemand.fail_at = 30  # a few rounds in
                with pytest.raises(ServiceError, match=rf"\(kind {ERR_JOB_FAILED}\)"):
                    _result_bytes(client, circuit, 25)
                assert FailsOnDemand.fail_at is None and len(table) > 0
                assert srv.jobs_failed == 1 and srv.jobs_active == 0
                assert [_result_bytes(client, circuit, 25) for _ in range(3)] == [want] * 3
            assert srv._table is table
            *_, last = job_stats
            assert last.counters["cache_memo_hits"] == last.oracle_calls > 0
        finally:
            FailsOnDemand.fail_at = None
            srv.stop()

    def test_rotation_is_invisible_and_the_memo_keeps_to_its_bound(self, monkeypatch):
        """Small caps: a replay stream crosses table generations and
        every RESULT is still the standalone bytes; a memo stops at its
        bound and the next admission replaces table and memo together."""
        monkeypatch.setattr(intern, "TABLE_CAP", 400)
        monkeypatch.setattr(server_module, "MEMO_CAP", 150)
        suite = [(generate(f, 0, seed=4), 25) for f in ("Grover", "HHL", "VQE", "Shor")]
        want = [_standalone_bytes(circuit, omega) for circuit, omega in suite]
        srv = OptimizationService(NamOracle(), workers=2, transport="threads").start()
        generations, memo_sizes = [(srv._table, srv._memo)], []
        try:
            with ServiceClient(srv.address) as client:
                for _ in range(4):
                    for (circuit, omega), expected in zip(suite, want):
                        assert _result_bytes(client, circuit, omega) == expected
                        if srv._table is not generations[-1][0]:
                            generations.append((srv._table, srv._memo))
                        memo_sizes.append(len(generations[-1][1]))
        finally:
            srv.stop()
        assert len(generations) > 3 and srv.jobs_completed == 16
        assert max(memo_sizes) == 150  # reached, never passed
        assert all(len(memo) <= 150 for _, memo in generations)
        assert srv.cache.stats.hits > srv.cache.stats.misses  # still a warm stream

    def test_the_memo_keeps_an_answer_as_its_ids(self):
        """The wire forms a cache lookup or store derived on an answer
        held as ids stay out of the memo; any other answer goes in as is."""
        table = intern.GateTable()
        answer = LazySegmentResult.from_ids(table.intern(GOOD), table)
        answer.packed_bytes()
        memo = server_module._Memo()
        memo.update({b"ids": answer, b"gates": GOOD})
        kept = memo[b"ids"]
        assert kept.interned[0] is answer.interned[0] and kept.interned[1] is table
        assert kept._packed is kept._encoded is None and kept == GOOD
        assert memo[b"gates"] is GOOD

    def test_racing_inserts_keep_the_memo_to_its_bound(self, monkeypatch):
        """Eight threads insert past the bound, shared keys and their own,
        switching every microsecond: the memo stops at exactly its bound."""
        monkeypatch.setattr(server_module, "MEMO_CAP", 500)
        memo = server_module._Memo()

        def insert(t):
            for k in range(200):
                own = 1000 * (t + 1) + k
                memo.update({k.to_bytes(4, "little"): t, own.to_bytes(4, "little"): t})

        threads = [threading.Thread(target=insert, args=(t,)) for t in range(8)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert len(memo) == 500 and memo.full

    def test_an_in_flight_job_finishes_on_the_table_it_started_on(self, monkeypatch):
        monkeypatch.setattr(intern, "TABLE_CAP", 8)  # every job fills its table
        slow, quick = generate("HHL", 0, seed=6), generate("VQE", 0, seed=6)
        started, resume = threading.Event(), threading.Event()
        tables = {}

        def watched(circuit, omega, **kwargs):
            _, table = circuit.interned
            if omega == 25:  # the slow job: parked until the quick one is done
                started.set()
                assert resume.wait(30)
            result = yield from popqc_rounds(circuit, omega, **kwargs)
            assert result.gates.interned[1] is table
            tables[omega] = table
            return result

        monkeypatch.setattr(server_module, "popqc_rounds", watched)
        srv = OptimizationService(NamOracle(), workers=2, transport="threads").start()
        try:
            first, got = srv._table, {}

            def submit_slow():
                with ServiceClient(srv.address) as client:
                    got["slow"] = _result_bytes(client, slow, 25)

            worker = threading.Thread(target=submit_slow)
            worker.start()
            assert started.wait(30)
            with ServiceClient(srv.address) as client:
                got["quick"] = _result_bytes(client, quick, 24)
            assert srv._table is not first  # replaced at the quick job's admission
            resume.set()
            worker.join(30)
        finally:
            resume.set()
            srv.stop()
        assert tables[25] is first and tables[24] is not first
        assert got == {
            "slow": _standalone_bytes(slow, 25),
            "quick": _standalone_bytes(quick, 24),
        }


    def test_merged_fleet_rounds_span_a_table_rotation(self, monkeypatch):
        """A process fleet ships its rounds by id, and with a table
        replaced at nearly every admission the rounds it merges across
        concurrent jobs hold segments of two tables: rows are gathered
        per table, and every RESULT is still the standalone bytes."""
        monkeypatch.setattr(intern, "TABLE_CAP", 8)  # every job fills its table
        tables_per_round = []
        real_ship_ids = transports._ship_ids

        def watched(segments, *args):
            tables_per_round.append(len({id(seg.interned[1]) for seg in segments}))
            return real_ship_ids(segments, *args)

        monkeypatch.setattr(transports, "_ship_ids", watched)
        jobs = [
            (generate(family, 0, seed=seed), 25)
            for seed in (5, 6)
            for family in ("Grover", "HHL", "VQE")
        ]
        want = {i: _standalone_bytes(*job) for i, job in enumerate(jobs)}
        srv = OptimizationService(NamOracle(), workers=2).start()
        got = {}

        def submit(first):
            with ServiceClient(srv.address) as client:
                for i in range(first, len(jobs), 3):
                    got[i] = _result_bytes(client, *jobs[i])

        try:
            clients = [threading.Thread(target=submit, args=(k,)) for k in range(3)]
            for client in clients:
                client.start()
            for client in clients:
                client.join(120)
        finally:
            srv.stop()
        assert got == want
        assert max(tables_per_round) > 1


class TestClientTable:
    """A client decodes every RESULT of its connection through one table:
    a value it has seen costs no row and no ``Gate``, and a table past
    its cap is replaced without a byte of output changing."""

    def test_a_repeat_adds_no_row_and_shares_its_gates(self, service):
        circuit = generate("HHL", 0, seed=6)
        with ServiceClient(service.address) as client:
            first = client.optimize(circuit, omega=25)
            table, rows = client._table, len(client._table)
            second = client.optimize(circuit, omega=25)
            assert client._table is table and len(table) == rows > 0
        assert second.circuit.gates == first.circuit.gates
        assert second.circuit.num_qubits == first.circuit.num_qubits
        assert all(a is b for a, b in zip(first.circuit.gates, second.circuit.gates))

    def test_a_full_table_is_replaced_and_output_is_unchanged(self, monkeypatch):
        monkeypatch.setattr(intern, "TABLE_CAP", 100)
        suite = [
            (generate(f, 0, seed=2), omega)
            for f in ("Grover", "BWT", "HHL", "VQE")
            for omega in (25, 100)
        ]
        want = [_standalone_bytes(circuit, omega) for circuit, omega in suite]
        srv = OptimizationService(NamOracle(), workers=2, transport="threads").start()
        try:
            with ServiceClient(srv.address) as client:
                tables = [client._table]
                for _ in range(2):
                    for (circuit, omega), expected in zip(suite, want):
                        job = client.optimize(circuit, omega=omega)
                        got = pack_segment(encode_segment(job.circuit.gates))
                        assert got == expected
                        if client._table is not tables[-1]:
                            tables.append(client._table)
        finally:
            srv.stop()
        assert 2 < len(tables) < 2 * len(suite)
        assert all(table.full for table in tables[:-1])  # replaced only when full


class TestNeverBuildsAGatePerGate:
    def test_gate_constructions_on_both_sides_of_the_socket(self, monkeypatch):
        """Grover:1 (5587 gates, 50 distinct values) cold then warm,
        through a process fleet: the daemon's threads construct a
        ``Gate`` for a value a job's table has not seen, the client for
        a distinct value of the result its connection has not decoded
        before — neither per gate."""
        circuit = generate("Grover", 1, seed=0)
        reference = popqc(circuit, NamOracle(), 100)
        built = {"daemon": 0, "client": 0}
        client_thread = threading.get_ident()
        real_init = gate_module.Gate.__post_init__

        def counting(self):
            side = "client" if threading.get_ident() == client_thread else "daemon"
            built[side] += 1
            real_init(self)

        tables = []
        real_store_init = GateStore.__init__

        def watching(self, gates, tree_factory):
            real_store_init(self, gates, tree_factory)
            tables.append(self.table)

        srv = OptimizationService(NamOracle(), workers=2).start()
        try:
            with ServiceClient(srv.address) as client:
                client.optimize(generate("Grover", 0, seed=0), omega=100)  # fork first
                monkeypatch.setattr(gate_module.Gate, "__post_init__", counting)
                monkeypatch.setattr(GateStore, "__init__", watching)
                for run in ("cold", "warm"):
                    built.update(daemon=0, client=0)
                    tables.clear()
                    job = client.optimize(circuit, omega=100)
                    (table,) = tables
                    distinct = len(set(job.circuit.gates))
                    assert job.circuit.gates == reference.circuit.gates
                    assert (job.cache_hit_rate == 1.0) is (run == "warm")
                    assert built["daemon"] <= len(table) < 150, run
                    assert built["client"] <= distinct < 150, run
                    if run == "warm":  # the connection has seen every value
                        assert built["client"] == 0
                    assert len(circuit.gates) > 30 * len(table)
        finally:
            monkeypatch.undo()
            srv.stop()

    def test_an_all_hit_job_never_visits_the_dispatcher(self, service, monkeypatch):
        """What ROADMAP 4b suspected is not there: a job whose every
        segment is cached is resolved in its own handler thread."""
        circuit = generate("Grover", 0, seed=5)
        with ServiceClient(service.address) as client:
            client.optimize(circuit, omega=25)
            scheduler = service._scheduler
            rounds, merged = scheduler.rounds_dispatched, scheduler.requests_merged
            entered = []
            monkeypatch.setattr(
                type(scheduler.fleet.wire),
                "run_round",
                lambda *args, **kwargs: entered.append(args) or pytest.fail("entered"),
            )
            job = client.optimize(circuit, omega=25)
        assert job.cache_hit_rate == 1.0 and job.stats["rounds"] > 1
        assert scheduler.rounds_dispatched == rounds
        assert scheduler.requests_merged == merged
        assert entered == []


def test_wall_seconds_runs_until_the_reply_arrays_are_ready(service, monkeypatch):
    """``wall_seconds`` (and with it ``STATUS.job_latency`` and the
    BUSY retry hint) covers building the output arrays, not only the
    rounds before them."""

    class SlowToEncode:
        def __init__(self, gates):
            self._gates = gates

        def encoded(self):
            time.sleep(0.05)
            return self._gates.encoded()

    def popqc_slow_to_encode(*args, **kwargs):
        result = yield from popqc_rounds(*args, **kwargs)
        result.gates = SlowToEncode(result.gates)
        return result

    monkeypatch.setattr(server_module, "popqc_rounds", popqc_slow_to_encode)
    with ServiceClient(service.address) as client:
        job = client.optimize(GOOD, omega=4)
        status = client.status()
    assert job.circuit.gates == (CNOT(0, 1), RZ(1, 0.75))
    assert job.stats["wall_seconds"] >= 0.05
    assert status["job_latency"]["last_seconds"] >= 0.05
