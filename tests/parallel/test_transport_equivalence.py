"""Cross-executor equivalence: every transport yields the same result.

POPQC's output must be a pure function of (circuit, oracle, Ω) no
matter which executor or wire format carried the segments.  This suite
runs a fixed set of seeded circuits through SerialMap, a map-only
process pool and ProcessMap with all five transports — encoded, shm, threads, pickle,
and socket (against a localhost worker cluster) — and requires
byte-identical optimized circuits plus identical round/oracle
accounting.  The socket transport additionally gets the lazy-decode
spy pin of ``tests/parallel/test_lazy_decode.py``: results crossing a
TCP wire must stay packed until a rewrite is actually accepted.

Above its floor a ``ProcessMap`` runs every round as a claim round, so
which stream answers which segment differs run to run; the property at
the end of this file draws claim patterns — the caller claims every
segment, none, or a share decided by the clock — and requires the same
bytes and the same dynamics under every one of them.
"""

import functools
import random
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.benchgen import generate
from repro.circuits import Circuit, Gate, encoding, random_redundant_circuit, to_qasm
from repro.core import popqc
from repro.oracles import IdentityOracle, NamOracle
from repro.parallel import ProcessMap, SerialMap, local_cluster

OMEGA = 16

SUITE = [
    random_redundant_circuit(5, 300, seed=101, redundancy=0.6),
    random_redundant_circuit(7, 300, seed=202, redundancy=0.3),
    random_redundant_circuit(4, 250, seed=303, redundancy=0.8),
]


def _run_suite(parmap):
    oracle = NamOracle()
    try:
        return [popqc(c, oracle, OMEGA, parmap=parmap) for c in SUITE]
    finally:
        parmap.close()


class _MapOnly:
    """A process pool reachable through ``map`` alone (what a
    third-party executor without ``map_segments`` looks like)."""

    workers = 2

    def __init__(self):
        self._pool = ProcessPoolExecutor(self.workers)

    def map(self, fn, items):
        return list(self._pool.map(fn, items))

    def close(self):
        self._pool.shutdown()


@pytest.fixture(scope="module")
def serial_results():
    return _run_suite(SerialMap())


@pytest.fixture(scope="module")
def socket_hosts():
    """A localhost two-worker cluster for the socket transport."""
    with local_cluster(2) as hosts:
        yield hosts


@pytest.mark.parametrize(
    "make_parmap",
    [
        lambda: ProcessMap(2, serial_cutoff=0, transport="encoded"),
        lambda: ProcessMap(2, serial_cutoff=0, transport="shm"),
        lambda: ProcessMap(2, serial_cutoff=0, transport="threads"),
        lambda: ProcessMap(2, serial_cutoff=0, transport="pickle"),
        _MapOnly,  # the driver's map seam
    ],
    ids=[
        "process-encoded",
        "process-shm",
        "process-threads",
        "process-pickle",
        "process-legacy-map",
    ],
)
def test_executors_match_serial(serial_results, make_parmap):
    results = _run_suite(make_parmap())
    for got, want in zip(results, serial_results):
        # byte-identical circuits ...
        assert got.circuit.gates == want.circuit.gates
        assert to_qasm(got.circuit) == to_qasm(want.circuit)
        # ... and identical optimization dynamics
        assert got.stats.rounds == want.stats.rounds
        assert got.stats.oracle_calls == want.stats.oracle_calls
        assert got.stats.oracle_accepted == want.stats.oracle_accepted


def test_socket_executor_matches_serial(serial_results, socket_hosts):
    """The fifth transport: packed bytes over TCP must reproduce the
    serial result byte for byte, completing the five-way matrix."""
    results = _run_suite(
        ProcessMap(2, serial_cutoff=0, transport="socket", hosts=socket_hosts)
    )
    for got, want in zip(results, serial_results):
        assert got.circuit.gates == want.circuit.gates
        assert to_qasm(got.circuit) == to_qasm(want.circuit)
        assert got.stats.rounds == want.stats.rounds
        assert got.stats.oracle_calls == want.stats.oracle_calls
        assert got.stats.oracle_accepted == want.stats.oracle_accepted


def test_socket_transport_recorded_in_stats(socket_hosts):
    pm = ProcessMap(2, serial_cutoff=0, transport="socket", hosts=socket_hosts)
    results = _run_suite(pm)
    assert all(r.stats.transport == "socket" for r in results)
    # wire accounting flows into the run stats ...
    assert all(r.stats.counters["socket_bytes_sent"] > 0 for r in results)
    assert all(r.stats.counters["socket_bytes_received"] > 0 for r in results)
    assert all(r.stats.counters["socket_reconnects"] == 0 for r in results)
    # ... including per-host throughput over the cluster
    for r in results:
        assert sum(r.stats.counters["socket_host_segments"].values()) > 0
    assert all(r.stats.counters["pool_dispatches"] > 0 for r in results)


def test_socket_results_stay_lazy(socket_hosts, monkeypatch):
    """Spy pin (mirroring tests/parallel/test_lazy_decode.py): a fully
    rejecting run over the socket transport must never unpack a single
    result in the driver — `len()` comes from the packed header even
    when the bytes crossed a TCP wire."""
    calls = {"unpack": 0, "decode": 0}
    real_unpack = encoding.unpack_segment_from
    real_decode = encoding.decode_segment

    def spy_unpack(*args, **kwargs):
        calls["unpack"] += 1
        return real_unpack(*args, **kwargs)

    def spy_decode(*args, **kwargs):
        calls["decode"] += 1
        return real_decode(*args, **kwargs)

    monkeypatch.setattr(encoding, "unpack_segment_from", spy_unpack)
    monkeypatch.setattr(encoding, "decode_segment", spy_decode)
    pm = ProcessMap(2, serial_cutoff=0, transport="socket", hosts=socket_hosts)
    try:
        res = popqc(SUITE[0], IdentityOracle(), OMEGA, parmap=pm)
    finally:
        pm.close()
    assert res.stats.oracle_accepted == 0
    assert res.stats.results_returned > 0
    assert res.stats.results_decoded == 0
    counters = res.stats.counters
    assert counters["result_bytes_returned"] - counters["result_bytes_decoded"] > 0
    assert calls["unpack"] == 0
    assert calls["decode"] == 0
    assert list(res.circuit.gates) == list(SUITE[0].gates)


def test_transport_recorded_in_stats(serial_results):
    assert all(r.stats.transport == "inline" for r in serial_results)
    pm = ProcessMap(2, serial_cutoff=0)
    results = _run_suite(pm)
    assert all(r.stats.transport == "encoded" for r in results)
    assert all(r.stats.serialization_time >= 0.0 for r in results)


def test_shm_transport_recorded_in_stats():
    pm = ProcessMap(2, serial_cutoff=0, transport="shm")
    results = _run_suite(pm)
    assert all(r.stats.transport == "shm" for r in results)
    # dispatch + arena accounting flow into the run stats
    counters = [r.stats.counters for r in results]
    assert all(c["pool_dispatches"] > 0 for c in counters)
    assert all(c["arena_allocations"] + c["arena_reuses"] > 0 for c in counters)
    # the second and third runs recycle the first run's arena ring
    last = counters[-1]
    assert last["arena_reuses"] / (last["arena_allocations"] + last["arena_reuses"]) > 0.5


def test_threads_transport_recorded_in_stats():
    pm = ProcessMap(2, serial_cutoff=0, transport="threads")
    results = _run_suite(pm)
    assert all(r.stats.transport == "threads" for r in results)
    # per-task and wall accounting flow into the run stats ...
    assert all(r.stats.counters["thread_wall_seconds"] > 0.0 for r in results)
    assert all(r.stats.counters["thread_task_seconds"] > 0.0 for r in results)
    # ... and lazy-decode accounting reports what was skipped (a plain
    # gate-list oracle on threads has no bytes to skip, so use stats
    # only where defined)
    assert all(r.stats.results_decoded <= r.stats.results_returned for r in results)


def test_threads_equivalence_with_vector_oracle():
    """threads + the vector oracle == pickle + the same oracle, byte
    for byte (the acceptance pin for the threads wire)."""
    oracle = NamOracle(engine="vector")
    want = [popqc(c, oracle, OMEGA) for c in SUITE]
    for transport in ("pickle", "threads"):
        pm = ProcessMap(2, serial_cutoff=0, transport=transport)
        try:
            got = [popqc(c, oracle, OMEGA, parmap=pm) for c in SUITE]
        finally:
            pm.close()
        for g, w in zip(got, want):
            assert g.circuit.gates == w.circuit.gates
            assert to_qasm(g.circuit) == to_qasm(w.circuit)
            assert g.stats.rounds == w.stats.rounds


def test_inline_fallback_reported_when_nothing_dispatched():
    # a round never exceeding serial_cutoff stays in the parent, and the
    # stats must say so instead of claiming a wire format was used
    pm = ProcessMap(2, serial_cutoff=10_000)
    try:
        res = popqc(SUITE[0], NamOracle(), OMEGA, parmap=pm)
    finally:
        pm.close()
    assert res.stats.transport == "inline"
    assert res.stats.serialization_time == 0.0


# -- the claim pattern never changes output ------------------------------------


@pytest.fixture(scope="module")
def claim_maps():
    """One pool per claim pattern, shared by every example (its workers
    stay up): the caller is the only stream (``"all"``), the caller
    never computes (``"none"``), or the caller and a child race for
    every segment (``"mixed"``)."""
    maps = {
        "all": ProcessMap(1, transport="encoded"),
        "none": ProcessMap(2, serial_cutoff=0, transport="encoded"),
        "mixed": ProcessMap(2, transport="encoded"),
    }
    yield maps
    for pm in maps.values():
        pm.close()


class UnmemoizedNam(NamOracle):
    """The Nam rules, undeclared deterministic: a run keeps no memo, so
    every segment of every round reaches the executor."""

    deterministic = False


class ByValueNam(UnmemoizedNam):
    """The same without the id entry: its pooled rounds go by value."""

    run_ids = None


def _drawn_circuit(which):
    if isinstance(which, str):
        return generate(which, 0, seed=0)
    qubits, gates, seed, opaque = which
    circuit = random_redundant_circuit(qubits, gates, seed=seed, redundancy=0.5)
    if not opaque:
        return circuit
    # opaque gates of arity 1, 0 and 3 among the base ones: walls every
    # rule stops at, passed through untouched
    rng = random.Random(seed)
    out = []
    for gate in circuit.gates:
        out.append(gate)
        if rng.random() < 0.08:
            a, b, c = rng.sample(range(qubits), 3)
            out.append(
                rng.choice([Gate("t", (a,)), Gate("barrier", ()), Gate("ccx", (a, b, c))])
            )
    return Circuit(out, qubits)


@functools.lru_cache(maxsize=None)
def _serial_run(which, omega):
    return popqc(_drawn_circuit(which), NamOracle(), omega)


_CIRCUITS = st.one_of(
    st.sampled_from(["Grover", "Shor"]),
    st.tuples(
        st.integers(3, 7), st.integers(40, 400), st.integers(0, 10**6), st.booleans()
    ),
)
_PATTERNS = st.sampled_from(["all", "none", "mixed"])


@settings(max_examples=25)
@given(_CIRCUITS, _PATTERNS, st.sampled_from([8, 25]), st.booleans())
@example("Grover", "all", 25, True)
@example("Grover", "none", 25, True)
@example("Shor", "mixed", 25, True)
@example("Shor", "mixed", 25, False)
@example((5, 300, 3, True), "none", 8, False)
@example((5, 300, 3, True), "all", 8, False)
def test_placement_pattern_never_changes_output(
    claim_maps, which, pattern, omega, by_id
):
    """Caller claims all, none or a timed share: same QASM, same rounds,
    same per-round dynamics as ``SerialMap``, every round above the
    floor one dispatch — by id nothing returned as bytes, nothing
    decoded; by value only the accepted pooled results ever decoded."""
    want = _serial_run(which, omega)
    pmap = claim_maps[pattern]
    oracle = UnmemoizedNam() if by_id else ByValueNam()
    got = popqc(_drawn_circuit(which), oracle, omega, parmap=pmap)

    def packed(result):  # the QASM writer refuses opaque gates; bytes do not
        return encoding.pack_segment(encoding.encode_segment(result.circuit.gates))

    assert packed(got) == packed(want)
    assert got.stats.rounds == want.stats.rounds
    assert got.stats.oracle_calls == want.stats.oracle_calls

    def dynamics(stats):
        return [(r.fingers, r.selected, r.accepted) for r in stats.per_round]

    assert dynamics(got.stats) == dynamics(want.stats)
    above = [r for r in got.stats.per_round if r.selected > pmap.serial_cutoff]
    counters = got.stats.counters
    assert counters["pool_dispatches"] == len(above)
    if by_id:
        assert counters["results_returned"] == counters["results_decoded"] == 0
    else:
        assert counters["results_decoded"] == sum(r.accepted for r in above)
    assert got.stats.transport == ("encoded" if above else "inline")
