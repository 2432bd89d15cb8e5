"""Interned gates across the byte transports.

Two claims ride on the :class:`~repro.circuits.intern.GateTable` being
only a cache.  Replacing a worker's table between segments — forced here
by a tiny cap — must not change one output byte on any transport that
decodes through it (a worker does, for an oracle without a wire entry).
And on the parent side of a byte transport the driver must build
``Gate`` objects per *distinct value*, not per gate it accepts: that is
where the per-gate Python of the old round loop went.  A worker serving
an oracle *with* a wire entry (``NamOracle.run_packed``) needs no table
at all: wire arrays in, wire arrays out, no ``Gate`` built.
"""

import pickle

import pytest

from repro.circuits import decode_segment, encode_segment, pack_segment
from repro.circuits import gate as gate_module
from repro.circuits import intern, random_redundant_circuit, to_qasm
from repro.core import popqc
from repro.oracles import NamOracle
from repro.parallel import ProcessMap, WorkerHost, local_cluster, transports
from repro.parallel.frames import (
    FRAME_REGISTER,
    FRAME_RESULTS,
    FRAME_SEGMENTS,
    iter_results_payload,
    pack_frame,
    pack_register_payload,
    pack_segments_payload,
)

CIRCUIT = random_redundant_circuit(8, 1500, seed=29, redundancy=0.5)
OMEGA = 40


class GateListOracle:
    """A third-party oracle: the Nam rules behind ``__call__`` alone, so
    a worker serves it through its thread's table."""

    def __call__(self, gates):
        return NamOracle()(gates)


@pytest.fixture(scope="module")
def serial():
    return popqc(CIRCUIT, NamOracle(), OMEGA)


@pytest.mark.parametrize("transport", ["encoded", "shm", "socket"])
def test_tiny_table_cap_changes_no_output_byte(transport, serial, monkeypatch):
    """Worker tables that are replaced every few segments (pool workers
    fork after the patch; socket hosts are threads of this process)."""
    monkeypatch.setattr(intern, "TABLE_CAP", 64)
    tables = []
    real_init = intern.GateTable.__init__
    monkeypatch.setattr(
        intern.GateTable, "__init__", lambda self: (tables.append(1), real_init(self))[1]
    )
    with local_cluster(2) as hosts:
        pm = ProcessMap(
            2,
            serial_cutoff=0,
            transport=transport,
            hosts=hosts if transport == "socket" else None,
        )
        try:
            got = popqc(CIRCUIT, GateListOracle(), OMEGA, parmap=pm)
        finally:
            pm.close()
    assert to_qasm(got.circuit) == to_qasm(serial.circuit)
    assert got.circuit.gates == serial.circuit.gates
    assert got.stats.rounds == serial.stats.rounds
    assert got.stats.oracle_accepted == serial.stats.oracle_accepted
    if transport == "socket":  # in this process: the cap was really hit
        assert len(tables) > 4  # the run's own, one per host, and replacements


def test_parent_builds_gates_per_distinct_value(serial, monkeypatch):
    """A default-cost ``ProcessMap`` run: the parent constructs a
    ``Gate`` for a result value it has not seen, never per accepted gate."""
    built = []
    real_init = gate_module.Gate.__post_init__

    def counting(self):
        built.append(self)
        real_init(self)

    tables, gates_read = [], []
    real_from_wire = intern.GateTable.ids_from_encoded

    def watching(self, encoded):
        tables.append(self)
        gates_read.append(len(encoded))
        return real_from_wire(self, encoded)

    pm = ProcessMap(2, serial_cutoff=0)
    try:
        pm.map_segments(NamOracle(), [list(CIRCUIT.gates[:40])] * 4)  # fork first
        monkeypatch.setattr(gate_module.Gate, "__post_init__", counting)
        monkeypatch.setattr(intern.GateTable, "ids_from_encoded", watching)
        got = popqc(CIRCUIT, NamOracle(), OMEGA, parmap=pm)
    finally:
        pm.close()
        monkeypatch.undo()
    assert got.circuit.gates == serial.circuit.gates
    # every accepted result was read back as wire arrays, into one
    # table: the run's own
    assert len(gates_read) == got.stats.oracle_accepted > 20
    assert len(set(map(id, tables))) == 1
    # each construction added a row for a new value ...
    assert len(built) < len(tables[0]) < 150
    # ... of which there are few, against the gates that came back
    assert sum(gates_read) > 10 * len(built)


def _packed(gates) -> bytes:
    return pack_segment(encode_segment(gates))


def test_byte_workers_build_no_gate_for_a_wire_entry_oracle(monkeypatch):
    """The ``encoded`` pool task and a ``WorkerHost`` answer ``NamOracle``
    batches without constructing a ``Gate`` or adding a table row — and
    answer exactly what the oracle does on the decoded gates."""
    gates = list(CIRCUIT.gates)
    segments = [encode_segment(gates[k : k + 80]) for k in range(0, 800, 80)]
    payload = pack_segments_payload(1, 7, segments)
    want = [_packed(NamOracle()(decode_segment(s))) for s in segments]
    register = pack_register_payload(pickle.dumps(NamOracle()), 1)
    built, rows = [], []
    real_init, real_add = gate_module.Gate.__post_init__, intern.GateTable._add
    monkeypatch.setattr(
        gate_module.Gate, "__post_init__", lambda g: (built.append(g), real_init(g))[1]
    )
    monkeypatch.setattr(
        intern.GateTable, "_add", lambda t, *a: (rows.append(a), real_add(t, *a))[1]
    )
    transports._register_worker_oracle(NamOracle(), 1)
    try:
        pool_reply = transports._apply_registered_oracle(payload)
    finally:
        transports._register_worker_oracle(None, -1)
    host = WorkerHost()
    try:
        session = host.open_session("peer")
        host.handle(session, FRAME_REGISTER, register)
        host_reply = host.handle(session, FRAME_SEGMENTS, payload)
    finally:
        host.stop()
    assert built == [] and rows == []
    assert [blob for _, blob in iter_results_payload(pool_reply, 7)] == want
    assert host_reply == pack_frame(FRAME_RESULTS, pool_reply)
