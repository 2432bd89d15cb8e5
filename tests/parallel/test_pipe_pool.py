"""The piped pool behind the process transports.

A pooled round runs on the caller plus ``W - 1`` forked children with
``ProcessMap``'s default cutoff, and wholly on ``W`` children with a
fixed ``serial_cutoff``; each child answers on a pipe of its own, so a
failed round must leave no reply behind for the next one to misread.
"""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.circuits import CNOT, H, RZ, X, random_redundant_circuit
from repro.circuits.intern import GateTable
from repro.oracles import NamOracle
from repro.parallel import ProcessMap
from repro.parallel import transports
from repro.parallel.results import LazySegmentResult

MARKER = RZ(5, 0.125)


def _segments(count=8, shift=0):
    return [
        [H(0), H(0), X(1), CNOT(0, 1), RZ(2, 0.25 * (k + shift)), RZ(2, 0.5)]
        for k in range(count)
    ]


def _children() -> set:
    return {proc.pid for proc in multiprocessing.active_children()}


class FailsOnMarker:
    """Nam's answer, a little slowly — except that a segment holding
    :data:`MARKER` fails at once, while the round's other segments are
    still being answered."""

    def __call__(self, gates):
        if MARKER in gates:
            raise ValueError("marker segment")
        time.sleep(0.02)
        return NamOracle()(gates)


class PidRecorder:
    """Identity that appends the pid of every process it runs in to a
    file, slowly enough that no stream of a claim round can take every
    segment before the others are awake."""

    def __init__(self, path):
        self.path = str(path)

    def __call__(self, gates):
        with open(self.path, "a") as log:
            log.write(f"{os.getpid()}\n")
        time.sleep(0.01)
        return list(gates)


def _pids(path) -> set:
    return {int(line) for line in path.read_text().split()}


# -- a failed round leaves no stale reply behind --------------------------------


@pytest.mark.parametrize("cutoff,where", [(0, 0), (None, 1)])
def test_raising_batch_then_a_byte_identical_clean_round(cutoff, where):
    """One segment of a round raises — on a child (fixed cutoff,
    segment 0) or on whichever stream claims it (default cutoff,
    segment 1, while the other stream still answers segment 0) — and
    the very next round, with the same oracle on the same children, is
    exactly the serial answer."""
    oracle = FailsOnMarker()
    failing = _segments()
    failing[where] = failing[where] + [MARKER]
    pm = ProcessMap(2, serial_cutoff=cutoff)
    try:
        with pytest.raises(ValueError, match="marker"):
            pm.map_segments(oracle, failing)
        pool = pm.wire._pool
        clean = _segments(shift=3)
        got = pm.map_segments(oracle, clean)
        assert pm.wire._pool is pool  # a task's failure keeps the children
        assert [list(res) for res in got] == [oracle(seg) for seg in clean]
        assert pm.pool_dispatches == 2
    finally:
        pm.close()


@pytest.mark.parametrize("cutoff", [0, None])
def test_child_killed_between_rounds_fails_one_round_then_recovers(cutoff):
    """A child SIGKILLed while idle: the next round fails with the typed
    error, and the one after respawns and answers byte-identically."""
    from concurrent.futures.process import BrokenProcessPool

    oracle = NamOracle()
    segments = _segments()
    want = [oracle(seg) for seg in segments]
    before = _children()
    pm = ProcessMap(2, serial_cutoff=cutoff)
    try:
        assert [list(res) for res in pm.map_segments(oracle, segments)] == want
        victim = next(
            proc for proc in multiprocessing.active_children() if proc.pid not in before
        )
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(10)
        assert not victim.is_alive()
        with pytest.raises(BrokenProcessPool):
            pm.map_segments(oracle, segments)
        assert pm.wire._pool is None
        assert [list(res) for res in pm.map_segments(oracle, segments)] == want
    finally:
        pm.close()
    assert _children() - before == set()


def test_caller_and_more_children_than_cores_match_serial():
    """Four streams on a smaller host: every round above the floor is a
    claim round the caller and three children take segments from, and
    the optimized circuit is the serial one, round for round."""
    from repro.core.popqc import popqc
    from repro.parallel import SerialMap

    circuit = random_redundant_circuit(6, 1500, seed=3, redundancy=0.5)
    want = popqc(circuit, NamOracle(), 25, parmap=SerialMap())
    pm = ProcessMap(4)
    try:
        got = popqc(circuit, NamOracle(), 25, parmap=pm)
    finally:
        pm.close()
    assert got.circuit.gates == want.circuit.gates
    assert got.stats.rounds == want.stats.rounds
    assert got.stats.counters["pool_dispatches"] > 0


# -- the pool's shape ------------------------------------------------------------


def test_measured_map_of_two_is_the_caller_and_one_child(tmp_path):
    log = tmp_path / "pids"
    before = _children()
    pm = ProcessMap(2)
    try:
        pm.map_segments(PidRecorder(log), _segments())
        spawned = _children() - before
        assert pm.pool_dispatches == 1 and len(spawned) == 1
        assert _pids(log) == {os.getpid()} | spawned
    finally:
        pm.close()
    assert _children() - before == set()


def test_fixed_cutoff_map_of_two_is_two_children_and_an_idle_caller(tmp_path):
    log = tmp_path / "pids"
    before = _children()
    pm = ProcessMap(2, serial_cutoff=0)
    try:
        pm.map_segments(PidRecorder(log), _segments())
        spawned = _children() - before
        assert pm.pool_dispatches == 1 and len(spawned) == 2
        assert os.getpid() not in _pids(log) and _pids(log) <= spawned
    finally:
        pm.close()


def test_measured_map_of_one_spawns_nothing(tmp_path):
    log = tmp_path / "pids"
    before = _children()
    pm = ProcessMap(1)
    try:
        got = pm.map_segments(PidRecorder(log), _segments())
        assert pm.pool_dispatches == 1 and _children() == before
        assert _pids(log) == {os.getpid()}
        assert [list(res) for res in got] == _segments()
    finally:
        pm.close()


# -- a claim round's distinct rows -------------------------------------------------


def _by_sorting(ids):
    rows, positions = np.unique(np.concatenate(ids), return_inverse=True)
    return rows, positions.astype(np.int32)


def _same(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("seed", range(5))
def test_distinct_rows_match_a_sorting_unique(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 400))
    ids = [
        rng.integers(0, size, int(rng.integers(0, 60))).astype(np.int32)
        for _ in range(int(rng.integers(1, 8)))
    ]
    ids.insert(int(rng.integers(0, len(ids) + 1)), np.empty(0, dtype=np.int32))
    _same(transports._distinct_rows(ids, size), _by_sorting(ids))


def test_distinct_rows_of_only_empty_segments():
    empty = [np.empty(0, dtype=np.int32)] * 2
    _same(transports._distinct_rows(empty, 10), _by_sorting(empty))


def test_two_table_id_round_ships_each_tables_distinct_rows():
    """A claim round over two tables is a part per table, whose rows and
    positions are the sorting unique's of that table's segments alone,
    and each segment names its part and its span of positions."""
    first, second = GateTable(), GateTable()
    gates = _segments(4)
    handles = [
        LazySegmentResult.from_ids(table.intern(seg), table)
        for seg, table in zip(gates, [first, second, first, second])
    ]
    parts, where, tables = transports._claim_parts(handles)
    assert len(parts) == 2 and [table for table, _ in tables] == [first, second]
    for part, ((rows_table, positions), members) in enumerate(zip(parts, ([0, 2], [1, 3]))):
        ids = [handles[i].interned[0] for i in members]
        rows, want = _by_sorting(ids)
        _same([positions], [want])
        assert len(rows_table._rows) == len(rows)
        assert [where[i] for i in members] == [
            (part, 0, len(ids[0])), (part, len(ids[0]), len(ids[0]) + len(ids[1]))
        ]
