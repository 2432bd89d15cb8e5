"""The cache hook on the executor: equivalence and oracle-call savings.

The acceptance pins for the cached transport: all five wire formats
stay byte-identical with the cache on and off (and against the serial
reference), and a repeated-segment workload with the cache enabled
makes *strictly fewer* oracle calls than with it disabled — proven by
a spy oracle that counts its own invocations, not by derived stats.
"""

import pytest

from repro.circuits import random_redundant_circuit, to_qasm
from repro.circuits.intern import GateTable
from repro.core import popqc
from repro.oracles import NamOracle
from repro.parallel import LazySegmentResult, ProcessMap, local_cluster
from repro.parallel.executor import oracle_cache_namespace
from repro.service import SegmentCache

CIRCUIT = random_redundant_circuit(8, 1500, seed=23, redundancy=0.5)
OMEGA = 40


class SpyNamOracle(NamOracle):
    """NamOracle that counts how many times it is actually invoked."""

    calls = 0

    def __call__(self, segment):
        type(self).calls += 1
        return super().__call__(segment)

    def run_packed(self, encoded):
        type(self).calls += 1
        return super().run_packed(encoded)

    def run_ids(self, ids, table):
        type(self).calls += 1
        return super().run_ids(ids, table)


@pytest.fixture(scope="module")
def serial_reference():
    return popqc(CIRCUIT, NamOracle(), OMEGA)


@pytest.fixture(scope="module")
def socket_cluster():
    with local_cluster(2) as hosts:
        yield hosts


@pytest.mark.parametrize(
    "transport", ["pickle", "encoded", "shm", "threads", "socket"]
)
def test_five_way_equivalence_with_cache_on(
    transport, serial_reference, socket_cluster
):
    """Every transport with a (cold, then warm) cache produces the
    byte-identical circuit of the uncached serial reference — twice,
    so the second run is served substantially from the cache."""
    hosts = socket_cluster if transport == "socket" else None
    cache = SegmentCache()
    pm = ProcessMap(
        2, serial_cutoff=0, transport=transport, hosts=hosts, cache=cache
    )
    try:
        cold = popqc(CIRCUIT, NamOracle(), OMEGA, parmap=pm)
        warm = popqc(CIRCUIT, NamOracle(), OMEGA, parmap=pm)
    finally:
        pm.close()
    for res in (cold, warm):
        assert res.circuit.gates == serial_reference.circuit.gates
        assert to_qasm(res.circuit) == to_qasm(serial_reference.circuit)
        assert res.stats.rounds == serial_reference.stats.rounds
        assert res.stats.oracle_calls == serial_reference.stats.oracle_calls
    assert cold.stats.cache_misses > 0
    assert warm.stats.cache_hits == warm.stats.oracle_calls  # fully warm
    assert warm.stats.cache_hit_rate == 1.0
    assert warm.stats.cache_bytes_saved > 0


def test_cache_strictly_reduces_oracle_calls():
    """Oracle-call spy: the same repeated-segment workload (two
    identical runs) invokes the oracle strictly fewer times with the
    cache than without it."""

    def run_twice(cache):
        SpyNamOracle.calls = 0
        pm = ProcessMap(2, serial_cutoff=0, transport="threads", cache=cache)
        try:
            oracle = SpyNamOracle()
            popqc(CIRCUIT, oracle, OMEGA, parmap=pm)
            popqc(CIRCUIT, oracle, OMEGA, parmap=pm)
        finally:
            pm.close()
        return SpyNamOracle.calls

    uncached_calls = run_twice(None)
    cached_calls = run_twice(SegmentCache())
    assert cached_calls < uncached_calls
    assert cached_calls > 0  # cold misses still reach the oracle


def test_cached_stats_flow_into_run_stats():
    cache = SegmentCache()
    pm = ProcessMap(2, serial_cutoff=0, transport="threads", cache=cache)
    try:
        first = popqc(CIRCUIT, NamOracle(), OMEGA, parmap=pm)
        second = popqc(CIRCUIT, NamOracle(), OMEGA, parmap=pm)
    finally:
        pm.close()
    assert first.stats.cache_hits + first.stats.cache_misses == (
        first.stats.oracle_calls
    )
    assert second.stats.oracle_calls_saved == second.stats.cache_hits
    assert second.stats.cache_hit_rate == 1.0
    assert second.stats.cache_lookup_seconds > 0.0
    # per-run deltas: the first run's misses are not re-counted
    assert second.stats.cache_misses == 0


def test_cache_with_unpicklable_oracle_on_threads_transport():
    """Oracles that cannot pickle (lambdas, closures) are legal on the
    threads transport; enabling the cache must not crash them — they
    get a one-off namespace instead of a content fingerprint and still
    hit their own earlier entries."""
    calls = []

    def oracle(seg):
        calls.append(1)
        return list(seg)

    segments = [CIRCUIT.gates[i : i + 20] for i in range(0, 80, 20)]
    pm = ProcessMap(
        2, serial_cutoff=0, transport="threads", cache=SegmentCache()
    )
    try:
        first = pm.map_segments(oracle, segments)
        before = len(calls)
        second = pm.map_segments(oracle, segments)
    finally:
        pm.close()
    assert [list(r) for r in first] == [list(r) for r in second]
    assert len(calls) == before  # second round fully cached
    assert pm.counters()["cache_hits"] == len(segments)


def test_unpicklable_oracles_get_distinct_namespaces():
    from repro.parallel.executor import oracle_cache_namespace

    a = oracle_cache_namespace(lambda seg: seg)
    b = oracle_cache_namespace(lambda seg: seg)
    assert a != b  # opaque oracles must never share entries


def test_cache_serves_below_serial_cutoff():
    """The cache hook fronts the inline fallback too: tiny rounds that
    never reach a pool still hit on repeats."""
    cache = SegmentCache()
    pm = ProcessMap(2, serial_cutoff=8, transport="encoded", cache=cache)
    segments = [CIRCUIT.gates[i : i + 20] for i in range(0, 60, 20)]
    oracle = NamOracle()
    try:
        first = pm.map_segments(oracle, segments)
        second = pm.map_segments(oracle, segments)
    finally:
        pm.close()
    assert [list(r) for r in first] == [list(r) for r in second]
    assert pm.counters()["cache_hits"] == len(segments)


# -- the id-keyed memo in front of the content cache ---------------------------


def _as_ids(table):
    """``CIRCUIT`` held as ids of ``table`` (what a daemon hands ``popqc``)."""
    return LazySegmentResult.from_ids(table.intern(CIRCUIT.gates), table)


def test_memo_hits_count_where_content_hits_count():
    """First pass misses, the second is answered by the content cache
    (and fills the table's memo), the third by the memo — and the cache's
    own statistics, the run's and the bytes saved read the same for both."""
    cache = SegmentCache()
    table = GateTable(memo_cap=4096)
    pm = ProcessMap(2, serial_cutoff=0, transport="encoded", cache=cache)
    try:
        runs = [popqc(_as_ids(table), NamOracle(), OMEGA, parmap=pm) for _ in range(3)]
    finally:
        pm.close()
    want = popqc(CIRCUIT, NamOracle(), OMEGA)
    first, second, third = (run.stats for run in runs)
    assert all(run.circuit.gates == want.circuit.gates for run in runs)
    assert all(run.stats.rounds == want.stats.rounds for run in runs)
    assert second.cache_hits == third.cache_hits == want.stats.oracle_calls
    assert second.cache_bytes_saved == third.cache_bytes_saved > 0
    assert first.counters["cache_memo_hits"] <= first.cache_hits
    assert second.counters["cache_memo_hits"] < second.cache_hits
    assert third.counters["cache_memo_hits"] == third.cache_hits
    assert third.cache_misses == 0 and cache.stats.misses == first.cache_misses
    total = first.cache_hits + second.cache_hits + third.cache_hits
    assert cache.stats.hits == total and cache.stats.hit_rate == total / (
        total + first.cache_misses
    )
    assert cache.stats.bytes_saved == sum(
        stats.cache_bytes_saved for stats in (first, second, third)
    )
    assert 0 < len(table.memo) <= want.stats.oracle_calls


def test_two_oracles_never_answer_each_other_from_the_memo():
    """One executor, one cache, one table: the memo key carries the
    oracle's namespace exactly as the content key does."""
    light = NamOracle(passes=("cancellation",))
    want = [popqc(CIRCUIT, oracle, OMEGA) for oracle in (NamOracle(), light)]
    assert want[0].circuit.gates != want[1].circuit.gates
    table = GateTable(memo_cap=4096)
    pm = ProcessMap(2, serial_cutoff=0, transport="threads", cache=SegmentCache())
    try:
        for _ in range(3):  # miss, content hit, memo hit — interleaved
            for oracle, expected in zip((NamOracle(), light), want):
                got = popqc(_as_ids(table), oracle, OMEGA, parmap=pm)
                assert got.circuit.gates == expected.circuit.gates
                assert got.stats.rounds == expected.stats.rounds
        assert got.stats.counters["cache_memo_hits"] == got.stats.oracle_calls
    finally:
        pm.close()
    assert {key[0] for key in table.memo} == {
        oracle_cache_namespace(NamOracle()),
        oracle_cache_namespace(light),
    }


def test_a_table_without_a_memo_is_never_asked():
    """``popqc``'s own table carries none: a content hit stays packed
    (and unread when rejected), as the lazy-decode pins above demand."""
    pm = ProcessMap(2, serial_cutoff=0, transport="threads", cache=SegmentCache())
    try:
        for _ in range(3):
            got = popqc(_as_ids(GateTable()), NamOracle(), OMEGA, parmap=pm)
        assert got.stats.cache_hit_rate == 1.0
        assert got.stats.counters["cache_memo_hits"] == 0
    finally:
        pm.close()
