"""Integration test: POPQC over a real process pool.

The paper's implementation uses fork-join threads; our ProcessMap is
the CPython-realistic equivalent (the GIL blocks thread speedups for a
pure-Python oracle).  This test verifies the full pipeline across
process boundaries: oracle pickling, segment shipping, result
reassembly — and that the output is identical to the serial run.
"""

import pytest

from repro.circuits import random_redundant_circuit
from repro.core import popqc
from repro.oracles import NamOracle
from repro.parallel import ProcessMap, SerialMap


@pytest.mark.slow
def test_process_map_matches_serial():
    c = random_redundant_circuit(5, 400, seed=13, redundancy=0.6)
    oracle = NamOracle()
    serial = popqc(c, oracle, 20, parmap=SerialMap())
    pm = ProcessMap(2, serial_cutoff=0)
    try:
        parallel = popqc(c, oracle, 20, parmap=pm)
    finally:
        pm.close()
    assert parallel.circuit.gates == serial.circuit.gates
    assert parallel.stats.oracle_calls == serial.stats.oracle_calls


def test_process_map_small_batch_fallback():
    # below the serial cutoff no pool is spawned; results still correct
    c = random_redundant_circuit(4, 60, seed=14)
    pm = ProcessMap(2, serial_cutoff=64)
    try:
        res = popqc(c, NamOracle(), 8, parmap=pm)
    finally:
        pm.close()
    assert res.circuit.num_gates <= c.num_gates
    assert pm.wire._pool is None  # never escalated to processes
