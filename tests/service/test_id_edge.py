"""The served edge: JOB wire arrays -> ids -> rounds -> ids -> RESULT.

A served job never decodes its circuit into per-gate ``Gate`` objects,
on either side of the socket — and the edge is still a trust boundary:
a well-framed JOB with hostile content is answered with a typed ERROR,
on a connection that keeps serving.  Output bytes are those of a
standalone ``popqc`` run, cold and warm.
"""

import math
import threading
import time

import numpy as np
import pytest

from repro.benchgen import family_names, generate
from repro.circuits import CNOT, RZ, Circuit, Gate, H, X
from repro.circuits import gate as gate_module
from repro.circuits.encoding import EncodedSegment, encode_segment, pack_segment
from repro.core import GateStore, popqc
from repro.oracles import NamOracle
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


class TestByteIdentity:
    """RESULT circuit bytes are the reference encoder's on a standalone
    ``popqc`` output: all eight families, cold then warm, two Ω."""

    @pytest.mark.parametrize("omega", [25, 100])
    @pytest.mark.parametrize("family", family_names())
    def test_result_bytes_equal_standalone_popqc(self, service, family, omega):
        circuit = generate(family, 0, seed=3)
        want = pack_segment(
            encode_segment(popqc(circuit, NamOracle(), omega).circuit.gates)
        )
        job = pack_job_payload(
            1, omega, circuit.num_qubits, None, encode_segment(circuit.gates)
        )
        with ServiceClient(service.address) as client:
            for _ in ("cold", "warm"):
                _, payload = client.request(FRAME_JOB, job, FRAME_RESULT)
                assert pack_segment(unpack_result_payload(payload)[2]) == want


class TestNeverBuildsAGatePerGate:
    def test_gate_constructions_on_both_sides_of_the_socket(self, monkeypatch):
        """Grover:1 (5587 gates, 50 distinct values) cold then warm,
        through a process fleet: the daemon's threads construct a
        ``Gate`` for a value a job's table has not seen, the client for
        a distinct value of the result — neither per gate."""
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
        result = popqc(*args, **kwargs)
        result.gates = SlowToEncode(result.gates)
        return result

    monkeypatch.setattr(server_module, "popqc", popqc_slow_to_encode)
    with ServiceClient(service.address) as client:
        job = client.optimize(GOOD, omega=4)
        status = client.status()
    assert job.circuit.gates == (CNOT(0, 1), RZ(1, 0.75))
    assert job.stats["wall_seconds"] >= 0.05
    assert status["job_latency"]["last_seconds"] >= 0.05
