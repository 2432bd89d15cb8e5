"""Interned gates across the byte transports.

Two claims ride on the :class:`~repro.circuits.intern.GateTable` being
only a cache.  Replacing a worker's table between segments — forced here
by a tiny cap — must not change one output byte on any transport that
decodes through it.  And on the parent side of a byte transport the
driver must build ``Gate`` objects per *distinct value*, not per gate it
accepts: that is where the per-gate Python of the old round loop went.
"""

import pytest

from repro.circuits import gate as gate_module
from repro.circuits import intern, random_redundant_circuit, to_qasm
from repro.core import popqc
from repro.oracles import NamOracle
from repro.parallel import ProcessMap, local_cluster

CIRCUIT = random_redundant_circuit(8, 1500, seed=29, redundancy=0.5)
OMEGA = 40


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
            got = popqc(CIRCUIT, NamOracle(), OMEGA, parmap=pm)
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
