"""Claim rounds: how the local pool runs every round above its floor.

A pooled round is one message per child — for an id round (segments
all ids of a table, an oracle with an id entry) the round's distinct
rows and every segment's positions; by value, the transport's packed
bytes, gate lists or arena names — and every compute stream (each
child, and the caller when it computes) takes the next unclaimed
segment from one shared cell until none is left.  The caller waits
only for the children that claimed; a child that wakes after its round
closed replies empty, and that reply is dropped by a later round.
Which stream answers a segment is timing; what the round returns is
not.
"""

import itertools
import multiprocessing
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.benchgen import family_names, generate
from repro.circuits import CNOT, RZ, H, X, decode_segment, random_redundant_circuit
from repro.circuits.intern import GateTable
from repro.core import popqc
from repro.oracles import NamOracle
from repro.parallel import ProcessMap, SerialMap, StaleOracleError, transports
from repro.parallel.results import LazySegmentResult

MARKER = RZ(5, 0.125)


def _children() -> set:
    return {proc.pid for proc in multiprocessing.active_children()}


def _id_segments(count=8, shift=0, table=None, marked=()):
    """``count`` id segments of ``table``, segment ``k`` holding the angle
    ``_angle(k + shift)`` (so each one is told apart), those in
    ``marked`` also :data:`MARKER`."""
    table = GateTable() if table is None else table
    segments = []
    for k in range(count):
        gates = [H(0), H(0), X(1), CNOT(0, 1), RZ(2, _angle(k + shift)), RZ(2, 0.5)]
        if k in marked:
            gates.append(MARKER)
        segments.append(LazySegmentResult.from_ids(table.intern(gates), table))
    return segments


def _angle(k: int) -> float:
    return 0.01 * (k + 1)


def _gates(results) -> list:
    return [list(res) for res in results]


class Unmemoized(NamOracle):
    """Nam's rules, undeclared deterministic: every segment reaches the
    executor."""

    deterministic = False


class SegmentLog(Unmemoized):
    """Nam's answer by id, logging to a file which process answered which
    segment (its largest angle, unique per segment of ``_id_segments``)."""

    def __init__(self, path):
        super().__init__()
        self.path = str(path)

    def _note(self, angle):
        with open(self.path, "a") as log:
            log.write(f"{os.getpid()} {float(angle)!r}\n")

    def run_ids(self, ids, table):
        self._note(table.columns(ids)[3][4])
        return super().run_ids(ids, table)


class ByValueNam(NamOracle):
    """Nam's rules without the id entry: a pooled round goes by value."""

    run_ids = None


class ByValueLog(SegmentLog):
    """:class:`SegmentLog` by value: the gate-list entry (``pickle``
    children) and the wire entry (every other stream) log instead."""

    run_ids = None

    def __call__(self, gates):
        self._note(gates[4].param)
        return super().__call__(gates)

    def run_packed(self, encoded):
        self._note(decode_segment(encoded)[4].param)
        return super().run_packed(encoded)


def _log(path) -> list:
    return [
        (int(pid), float(angle))
        for pid, angle in (line.split() for line in path.read_text().splitlines())
    ]


class MarkerFault(Unmemoized):
    """Nam's answer, except on a segment holding :data:`MARKER`: there
    ``fault`` happens in ``where`` — ``"child"`` processes or the
    ``"caller"`` — and the other side sleeps, so a marked round is
    still open when it happens.  ``fault`` is ``"raise"`` or ``"kill"``
    (the process SIGKILLs itself)."""

    def __init__(self, where, fault="raise"):
        super().__init__()
        self.caller, self.where, self.fault = os.getpid(), where, fault

    def run_ids(self, ids, table):
        if MARKER.qubits[0] in table.columns(ids)[1].tolist():
            here = "caller" if os.getpid() == self.caller else "child"
            if here != self.where:
                time.sleep(0.05)
            elif self.fault == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            else:
                raise ValueError(f"marker segment on the {here}")
        return super().run_ids(ids, table)


# -- byte identity ---------------------------------------------------------------


@pytest.fixture(scope="module")
def pools():
    """One ``ProcessMap`` per shape, shared by the byte-identity runs."""
    made = {}

    def get(workers, cutoff, transport):
        if (workers, cutoff, transport) not in made:
            made[workers, cutoff, transport] = ProcessMap(
                workers, serial_cutoff=cutoff, transport=transport
            )
        return made[workers, cutoff, transport]

    yield get
    for pm in made.values():
        pm.close()


@pytest.mark.parametrize("omega", [25, 100])
@pytest.mark.parametrize("family", family_names())
@pytest.mark.parametrize("cutoff", [None, 0])
@pytest.mark.parametrize(
    "workers,transport,oracle",
    [pytest.param(n, "encoded", NamOracle, id=str(n)) for n in (2, 3, 4)]
    + [
        pytest.param(2, transport, ByValueNam, id=f"2-{transport}-by-value")
        for transport in ("encoded", "pickle", "shm")
    ],
)
def test_claim_rounds_match_serial_map(
    pools, workers, transport, oracle, cutoff, family, omega
):
    circuit = generate(family, 0, seed=0)
    want = popqc(circuit, NamOracle(), omega, parmap=SerialMap())
    pm = pools(workers, cutoff, transport)
    got = popqc(circuit, oracle(), omega, parmap=pm)
    assert got.circuit.gates == want.circuit.gates
    assert got.stats.rounds == want.stats.rounds
    assert got.stats.oracle_calls == want.stats.oracle_calls
    counters = got.stats.counters
    assert counters["pool_dispatches"] > 0
    if oracle is NamOracle:  # an id round returns no bytes
        assert counters["results_returned"] == 0
    else:  # by value, only accepted results are ever decoded
        assert counters["results_decoded"] <= got.stats.oracle_accepted


def test_every_segment_is_answered_once_across_the_streams(tmp_path):
    """Four streams on a smaller host, round after round: a claim lost
    or taken twice would answer some segment twice or never."""
    log = tmp_path / "answers"
    before = _children()
    shapes = [(SegmentLog, "encoded")]
    shapes += [(ByValueLog, transport) for transport in ("encoded", "pickle", "shm")]
    for (logger, transport), cutoff in itertools.product(shapes, (None, 0)):
        oracle = logger(log)
        pm = ProcessMap(4, serial_cutoff=cutoff, transport=transport)
        try:
            for shift in range(0, 300, 60):
                log.write_text("")
                segments = _id_segments(60, shift)
                got = pm.map_segments(oracle, segments)
                answered = sorted(angle for _, angle in _log(log))
                assert answered == [_angle(k + shift) for k in range(60)]
                want = SerialMap().map_segments(NamOracle(), segments)
                assert _gates(got) == _gates(want)
            if cutoff == 0:  # the caller never computes
                assert os.getpid() not in {pid for pid, _ in _log(log)}
            assert pm.pool_dispatches == 5
        finally:
            pm.close()
    assert _children() - before == set()


@pytest.mark.parametrize("cutoff", [None, 0])
def test_a_round_over_two_tables(cutoff):
    first, second = GateTable(), GateTable()
    segments = [
        seg
        for pair in zip(_id_segments(6, 0, first), _id_segments(6, 10, second))
        for seg in pair
    ]
    want = SerialMap().map_segments(NamOracle(), segments)
    pm = ProcessMap(3, serial_cutoff=cutoff)
    try:
        got = pm.map_segments(NamOracle(), segments)
    finally:
        pm.close()
    assert _gates(got) == _gates(want)
    for seg, res in zip(segments, got):
        assert res.interned[1] is seg.interned[1]  # ids of the segment's own table


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_one_cpu_for_the_caller_and_every_child(monkeypatch):
    """With every stream on one CPU a child mostly wakes after its round
    has closed: its empty reply is read and dropped by a later round,
    and the output is the serial one."""
    circuit = random_redundant_circuit(6, 3000, seed=5, redundancy=0.5)
    want = popqc(circuit, NamOracle(), 25, parmap=SerialMap())
    stale = []
    real_read = transports._Children._read

    def read(self, conn):
        reply = real_read(self, conn)
        stale.append(reply is None)
        return reply

    monkeypatch.setattr(transports._Children, "_read", read)
    cpus = os.sched_getaffinity(0)
    before = _children()
    os.sched_setaffinity(0, {min(cpus)})
    try:
        pm = ProcessMap(3)
        try:
            got = popqc(circuit, Unmemoized(), 25, parmap=pm)
        finally:
            pm.close()
    finally:
        os.sched_setaffinity(0, cpus)
    assert got.circuit.gates == want.circuit.gates
    assert got.stats.rounds == want.stats.rounds
    assert got.stats.counters["pool_dispatches"] > 0
    assert any(stale)
    assert _children() - before == set()


# -- faults ------------------------------------------------------------------------


@pytest.mark.parametrize("cutoff,where", [(0, "child"), (None, "caller")])
def test_a_raising_stream_then_a_clean_round_on_the_same_children(cutoff, where):
    oracle = MarkerFault(where)
    pm = ProcessMap(2, serial_cutoff=cutoff)
    before = _children()
    try:
        pm.map_segments(oracle, _id_segments())  # the children start
        pool = pm.wire._pool
        with pytest.raises(ValueError, match=f"on the {where}"):
            pm.map_segments(oracle, _id_segments(marked=range(8)))
        for shift in (3, 20):
            clean = _id_segments(shift=shift)
            got = pm.map_segments(oracle, clean)
            assert pm.wire._pool is pool  # a task's failure keeps the children
            assert _gates(got) == _gates(SerialMap().map_segments(oracle, clean))
        assert pm.pool_dispatches == 4
    finally:
        pm.close()
    assert _children() - before == set()


@pytest.mark.parametrize("cutoff", [None, 0])
def test_a_child_killed_mid_round_fails_one_round_then_recovers(cutoff):
    oracle = MarkerFault("child", fault="kill")
    clean = _id_segments(shift=5)
    want = _gates(SerialMap().map_segments(oracle, clean))
    before = _children()
    pm = ProcessMap(2, serial_cutoff=cutoff)
    try:
        assert _gates(pm.map_segments(oracle, clean)) == want
        with pytest.raises(BrokenProcessPool):
            pm.map_segments(oracle, _id_segments(marked=range(8)))
        assert pm.wire._pool is None
        assert _gates(pm.map_segments(oracle, clean)) == want
    finally:
        pm.close()
    assert _children() - before == set()


@pytest.mark.parametrize("cutoff", [None, 0])
def test_a_child_dead_holding_the_cell_lock_breaks_the_pool(cutoff, monkeypatch):
    """The cell's lock held with a child dead (as if it died inside it):
    the caller's bounded wait ends in one BrokenProcessPool, not a hang,
    and the next round respawns the children."""
    monkeypatch.setattr(transports, "CELL_LOCK_TIMEOUT", 0.05)
    oracle = NamOracle()
    segments = _id_segments()
    want = _gates(SerialMap().map_segments(oracle, segments))
    before = _children()
    pm = ProcessMap(2, serial_cutoff=cutoff)
    try:
        pm.map_segments(oracle, segments)
        children = pm.wire._pool
        victim = children._procs[0]
        children._lock.acquire()
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(10)
        assert not victim.is_alive()
        with pytest.raises(BrokenProcessPool, match="claim cell"):
            pm.map_segments(oracle, segments)
        assert pm.wire._pool is None
        assert _gates(pm.map_segments(oracle, segments)) == want
    finally:
        pm.close()
    assert _children() - before == set()


def test_a_child_stops_when_its_parent_died_holding_the_cell_lock(monkeypatch):
    """A child's wait for the cell's lock is bounded too: once its parent
    is gone (it has another parent pid) the task fails and the child's
    reply, to a closed pipe, ends it instead of a wait forever."""
    monkeypatch.setattr(transports, "CELL_LOCK_TIMEOUT", 0.01)
    lock = multiprocessing.get_context().Lock()
    lock.acquire()
    orphaned = lock, [1, 0, 0], 0, os.getppid() + 1
    monkeypatch.setattr(transports, "_WORKER_CELL", orphaned)
    with pytest.raises(EOFError, match="parent is gone"):
        transports._answer_claims((1, 0, [], [(0, 0, 0)]))
    lock.release()


def test_a_stale_generation_fails_the_round():
    """A message tagged for another oracle generation than the children
    serve: the first child that claims refuses it, and the round raises,
    by id or by value."""
    for oracle in (Unmemoized(), ByValueNam()):
        pm = ProcessMap(2, serial_cutoff=0)
        try:
            pm.map_segments(oracle, _id_segments())
            pm.wire.generation += 1
            with pytest.raises(StaleOracleError, match="generation"):
                pm.map_segments(oracle, _id_segments(shift=9))
        finally:
            pm.close()
