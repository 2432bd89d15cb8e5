"""Interned gates across the byte transports.

Two claims ride on the :class:`~repro.circuits.intern.GateTable` being
only a cache.  Replacing a worker's table between segments — forced here
by a tiny cap — must not change one output byte on any transport that
decodes through it (a worker does, for an oracle without a wire entry).
And on the parent side of a byte transport the driver must build
``Gate`` objects per *distinct value*, not per gate it accepts: that is
where the per-gate Python of the old round loop went.  A worker serving
an oracle *with* a wire entry (``NamOracle.run_packed``) needs no table
at all: wire arrays in, wire arrays out, no ``Gate`` built.  An oracle
with an id entry (``NamOracle.run_ids``) is not even handed wire
arrays by the local pool: a batch is positions into the rows it
carries, and neither side packs, unpacks or builds a ``Gate`` per gate.
"""

import os
import pickle
import threading

import pytest

from repro.circuits import decode_segment, encode_segment, encoding, pack_segment
from repro.circuits import gate as gate_module
from repro.circuits import intern, random_redundant_circuit, to_qasm
from repro.core import popqc
from repro.oracles import NamOracle
from repro.parallel import (
    LazySegmentResult,
    ProcessMap,
    WorkerHost,
    local_cluster,
    transports,
)
from repro.parallel.frames import (
    FRAME_REGISTER,
    FRAME_RESULTS,
    FRAME_SEGMENTS,
    pack_frame,
    pack_register_payload,
    pack_results_payload,
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


class ByValueNam(NamOracle):
    """The Nam rules without the id entry: its pooled rounds go by value."""

    run_ids = None


class UnmemoizedNam(NamOracle):
    """The Nam rules, undeclared deterministic: a run keeps no memo, so
    every round reaches the executor and each one is a pool dispatch."""

    deterministic = False


def _parent_side_run(oracle, monkeypatch):
    """``popqc`` of ``CIRCUIT`` through a forced pool, spying in the
    parent on ``Gate`` construction and on wire arrays read back as ids:
    ``(result, gates built, tables read into, gates read)``."""
    built, tables, gates_read = [], [], []
    real_init = gate_module.Gate.__post_init__
    real_from_wire = intern.GateTable.ids_from_encoded

    def counting(self):
        built.append(self)
        real_init(self)

    def watching(self, encoded):
        tables.append(self)
        gates_read.append(len(encoded))
        return real_from_wire(self, encoded)

    pm = ProcessMap(2, serial_cutoff=0)
    try:
        pm.map_segments(oracle, [list(CIRCUIT.gates[:40])] * 4)  # fork first
        monkeypatch.setattr(gate_module.Gate, "__post_init__", counting)
        monkeypatch.setattr(intern.GateTable, "ids_from_encoded", watching)
        got = popqc(CIRCUIT, oracle, OMEGA, parmap=pm)
    finally:
        pm.close()
        monkeypatch.undo()
    return got, built, tables, gates_read


def test_parent_builds_gates_per_distinct_value(serial, monkeypatch):
    """A default-cost ``ProcessMap`` run: the parent constructs a
    ``Gate`` for a result value it has not seen, never per accepted gate.
    ``NamOracle`` has an id entry, so its rounds go by id: no result
    comes back as bytes and none is read back from wire arrays."""
    got, built, tables, gates_read = _parent_side_run(UnmemoizedNam(), monkeypatch)
    assert got.circuit.gates == serial.circuit.gates
    assert got.stats.oracle_accepted > 20
    assert gates_read == [] and tables == []
    counters = got.stats.counters
    assert counters["results_returned"] == counters["results_decoded"] == 0
    assert counters["pool_dispatches"] == got.stats.rounds
    # each construction added a row for a new value, of which there are few
    table = got.gates.interned[1]
    assert len(built) < len(table) < 150


def test_parent_builds_gates_per_distinct_value_by_value(serial, monkeypatch):
    """The same for an oracle without an id entry: its results come back
    packed and every accepted one is read back as wire arrays, into the
    run's one table, constructing a ``Gate`` per distinct new value."""
    got, built, tables, gates_read = _parent_side_run(ByValueNam(), monkeypatch)
    assert got.circuit.gates == serial.circuit.gates
    # every accepted result was read back as wire arrays, into one
    # table: the run's own
    assert len(gates_read) == got.stats.oracle_accepted > 20
    assert len(set(map(id, tables))) == 1
    # each construction added a row for a new value ...
    assert len(built) < len(tables[0]) < 150
    # ... of which there are few, against the gates that came back
    assert sum(gates_read) > 10 * len(built)


def test_an_id_round_packs_and_unpacks_nothing_in_the_parent(serial, monkeypatch):
    """A ``NamOracle`` pool round ships ids and rows: the parent never
    packs, unpacks, gathers wire arrays or reads them back as ids."""
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda *a, **k: (calls.append(name), real(*a, **k))[1]
        )

    pm = ProcessMap(2, serial_cutoff=0)
    try:
        pm.map_segments(UnmemoizedNam(), [list(CIRCUIT.gates[:40])] * 4)  # fork first
        spy(encoding, "pack_segment")
        spy(encoding, "unpack_segment_from")
        spy(intern.GateTable, "encoded")
        spy(intern.GateTable, "ids_from_encoded")
        got = popqc(CIRCUIT, UnmemoizedNam(), OMEGA, parmap=pm)
    finally:
        pm.close()
        monkeypatch.undo()
    assert calls == []
    assert got.stats.counters["pool_dispatches"] == got.stats.rounds > 0
    assert got.circuit.gates == serial.circuit.gates


def _packed(gates) -> bytes:
    return pack_segment(encode_segment(gates))


def test_byte_workers_build_no_gate_for_a_wire_entry_oracle(monkeypatch):
    """The ``encoded`` pool's answer steps — by value and by id — and a
    ``WorkerHost`` answer ``NamOracle`` segments without constructing a
    ``Gate`` or adding a table row, and answer exactly what the oracle
    does on the decoded gates."""
    gates = list(CIRCUIT.gates)
    segments = [encode_segment(gates[k : k + 80]) for k in range(0, 800, 80)]
    payload = pack_segments_payload(1, 7, segments)
    want = [_packed(NamOracle()(decode_segment(s))) for s in segments]
    register = pack_register_payload(pickle.dumps(NamOracle()), 1)
    # the id round also gets a fixpoint, which must come back as its input
    fixpoint = NamOracle()(gates[:80])
    table = intern.GateTable()
    handles = [
        LazySegmentResult.from_ids(table.intern(seg), table)
        for seg in [gates[k : k + 80] for k in range(0, 800, 80)] + [fixpoint]
    ]
    worker_built = []

    def id_worker(task):  # the parent's side of the id round is not counted
        del built[:], rows[:]
        reply = transports._answer_claims(task)
        worker_built.extend(built + rows)
        return reply

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
        # one child of a by-value claim round, which takes every segment
        # of round 2, then of an id round, round 3
        cell = threading.Lock(), [2, 0, 0], 0, os.getppid()
        monkeypatch.setattr(transports, "_WORKER_CELL", cell)
        blobs = [pack_segment(seg) for seg in segments]
        pool_reply = [blob for _, blob in transports._answer_packed((2, 1, blobs))]
        assert built == [] and rows == []
        cell[1][:] = [3, 0, 0]
        parts, where, tables = transports._claim_parts(handles)
        by_id = list(handles)
        reply = id_worker((3, 1, parts, where))
        transports._received(by_id, [reply], where, tables)
    finally:
        transports._register_worker_oracle(None, -1)
    assert worker_built == []
    assert [result.packed_bytes() for result in by_id] == want + [_packed(fixpoint)]
    assert by_id[-1] is handles[-1]
    del built[:], rows[:]
    host = WorkerHost()
    try:
        session = host.open_session("peer")
        host.handle(session, FRAME_REGISTER, register)
        host_reply = host.handle(session, FRAME_SEGMENTS, payload)
    finally:
        host.stop()
    assert built == [] and rows == []
    assert pool_reply == want
    assert host_reply == pack_frame(FRAME_RESULTS, pack_results_payload(7, want))
