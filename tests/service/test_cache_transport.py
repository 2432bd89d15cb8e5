"""The daemon's two answer levels: its memo, then the content cache.

The acceptance pins for serving from cache: every transport gives the
serial reference's bytes when the content tier answers a fresh daemon's
job, a repeated-segment workload invokes the oracle strictly fewer times
with the cache (and its memo) than without — proven by a spy oracle that
counts its own invocations, not by derived stats — a job sends each
distinct segment to the fleet once, and a job's hit accounting, its
memo's and the cache's STATUS agree.
"""

import contextlib
import gc
import time
import weakref

import pytest

from repro.circuits import Circuit, intern, random_redundant_circuit, to_qasm
from repro.circuits.encoding import encode_segment, pack_segment
from repro.core import popqc
from repro.oracles import NamOracle
from repro.parallel import SerialMap, local_cluster
from repro.service import (
    FleetScheduler,
    OptimizationService,
    SegmentCache,
    ServiceClient,
)
from repro.service.cache import CacheFront, oracle_cache_namespace, oracle_namespace
from tests.core.test_run_memo import TWICE

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


@contextlib.contextmanager
def _daemon(oracle, cache, transport="threads", hosts=None):
    """A started daemon over ``cache`` and a client connected to it."""
    srv = OptimizationService(
        oracle, workers=2, transport=transport, hosts=hosts, cache=cache
    ).start()
    try:
        with ServiceClient(srv.address) as client:
            yield srv, client
    finally:
        srv.stop()


def _counting_closure():
    """An unpicklable oracle (a local closure) and the list it appends
    one entry to per invocation."""
    calls = []

    def oracle(seg):
        calls.append(1)
        return NamOracle()(seg)

    return oracle, calls


def _packed(gates) -> bytes:
    return pack_segment(encode_segment(gates))


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
    """Every transport produces the byte-identical circuit of the serial
    reference in a daemon with a cold cache, and in a fresh daemon over
    the cache the first one warmed — whose content tier then answers
    every segment its (empty) memo passes on."""
    hosts = socket_cluster if transport == "socket" else None
    cache = SegmentCache()
    runs = []
    for _ in ("cold", "warm"):
        with _daemon(NamOracle(), cache, transport, hosts) as (_, client):
            runs.append(client.optimize(CIRCUIT, omega=OMEGA))
    cold, warm = runs
    for res in (cold, warm):
        assert res.circuit.gates == serial_reference.circuit.gates
        assert to_qasm(res.circuit) == to_qasm(serial_reference.circuit)
        assert res.stats["rounds"] == serial_reference.stats.rounds
        assert res.stats["oracle_calls"] == serial_reference.stats.oracle_calls
    assert cold.stats["cache_misses"] > 0
    assert warm.stats["cache_hits"] == warm.stats["oracle_calls"]  # fully warm
    assert warm.cache_hit_rate == 1.0
    assert warm.stats["cache_bytes_saved"] > 0


def test_cache_strictly_reduces_oracle_calls():
    """Oracle-call spy: the same repeated-segment workload (two
    identical jobs) invokes the oracle strictly fewer times with the
    cache than without it."""

    def run_twice(cache):
        SpyNamOracle.calls = 0
        with _daemon(SpyNamOracle(), cache) as (_, client):
            for _ in range(2):
                client.optimize(CIRCUIT, omega=OMEGA)
        return SpyNamOracle.calls

    uncached_calls = run_twice(False)
    cached_calls = run_twice(SegmentCache())
    assert cached_calls < uncached_calls
    assert cached_calls > 0  # cold misses still reach the oracle


def test_cached_stats_flow_into_run_stats():
    """Each job's counts are its own: the memo outlives a job, and what
    it answers or passes on is counted per job, not read off its size."""
    other = random_redundant_circuit(8, 1200, seed=24, redundancy=0.5)
    with _daemon(NamOracle(), SegmentCache()) as (_, client):
        first, second, third = (
            client.optimize(circuit, omega=OMEGA)
            for circuit in (CIRCUIT, CIRCUIT, other)
        )
    for job in (first, second, third):
        assert job.stats["cache_hits"] + job.stats["cache_misses"] == (
            job.stats["oracle_calls"]
        )
    assert second.stats["oracle_calls_saved"] == second.stats["cache_hits"]
    assert second.cache_hit_rate == 1.0
    assert first.stats["cache_lookup_seconds"] > 0.0
    # per-run deltas: the first run's misses are not re-counted
    assert second.stats["cache_misses"] == 0
    assert 0 < third.stats["cache_misses"] < third.stats["oracle_calls"]


def test_cache_with_unpicklable_oracle_on_threads_transport(serial_reference):
    """Oracles that cannot pickle (lambdas, closures) are legal on the
    threads transport; enabling the cache must not crash them — they
    get a one-off namespace instead of a content fingerprint, and the
    oracle answers each distinct segment once."""
    oracle, calls = _counting_closure()
    with _daemon(oracle, SegmentCache()) as (_, client):
        first = client.optimize(CIRCUIT, omega=OMEGA)
        second = client.optimize(CIRCUIT, omega=OMEGA)
    assert first.circuit.gates == second.circuit.gates
    assert first.circuit.gates == serial_reference.circuit.gates
    assert len(calls) == first.stats["cache_misses"]  # the second job made none
    assert second.cache_hit_rate == 1.0


def test_a_rotated_memo_still_finds_an_unpicklable_oracles_entries(monkeypatch):
    """Every admission replaces the table and its memo, so repeats reach
    the content tier, in the namespace the oracle's first job drew."""
    monkeypatch.setattr(intern, "TABLE_CAP", 8)  # every job fills its table
    oracle, calls = _counting_closure()
    with _daemon(oracle, SegmentCache()) as (srv, client):
        memos = []
        jobs = []
        for _ in range(3):
            jobs.append(client.optimize(CIRCUIT, omega=OMEGA))
            memos.append(srv._memo)
    first, *repeats = jobs
    assert len({id(memo) for memo in memos}) == 3
    assert len(calls) == first.stats["cache_misses"] > 0
    for job in repeats:
        assert job.circuit.gates == first.circuit.gates
        assert job.cache_hit_rate == 1.0 and job.stats["cache_bytes_saved"] > 0


def test_fronts_for_one_unpicklable_oracle_share_a_namespace():
    sched = FleetScheduler(SerialMap(), cache=SegmentCache())
    try:
        oracle, _ = _counting_closure()
        front = sched.front(oracle)
        assert sched.front(oracle).namespace == front.namespace
        assert sched.front(_counting_closure()[0]).namespace != front.namespace
        assert sched.front(NamOracle()).namespace == oracle_namespace(NamOracle())
    finally:
        sched.close()


def test_unpicklable_oracles_get_distinct_namespaces():
    a = oracle_cache_namespace(lambda seg: seg)
    b = oracle_cache_namespace(lambda seg: seg)
    assert a != b  # opaque oracles must never share entries


def test_cache_serves_below_serial_cutoff():
    """The cache fronts rounds the fleet runs inline too: a job whose
    rounds never reach a pool fills it, and a fresh daemon's repeat of
    the job is all hits."""
    small = Circuit(CIRCUIT.gates[:120], CIRCUIT.num_qubits)
    cache = SegmentCache()
    runs = []
    for _ in ("cold", "warm"):
        with _daemon(NamOracle(), cache, "encoded") as (srv, client):
            runs.append(client.optimize(small, omega=OMEGA))
            fleet = srv._scheduler.fleet.counters()
        assert fleet["pool_dispatches"] == 0
    cold, warm = runs
    assert cold.stats["cache_misses"] > 0 and warm.cache_hit_rate == 1.0
    assert warm.circuit.gates == cold.circuit.gates


def test_memo_hits_count_where_content_hits_count(job_stats):
    """The first job's hits are memo answers to segments it repeats;
    the two repeats are memo answers throughout — and STATUS counts every
    memo answer as a cache hit, so its hits are the jobs' summed hits."""
    cache = SegmentCache()
    with _daemon(NamOracle(), cache) as (_, client):
        first, second, third = (
            client.optimize(CIRCUIT, omega=OMEGA).stats for _ in range(3)
        )
        status = client.status()["cache"]
    calls = first["oracle_calls"]
    memo = [stats.counters["cache_memo_hits"] for stats in job_stats]
    assert memo == [first["cache_hits"], calls, calls]
    assert second["cache_hits"] == third["cache_hits"] == calls
    assert third["cache_misses"] == 0 and cache.stats.misses == first["cache_misses"]
    total = first["cache_hits"] + second["cache_hits"] + third["cache_hits"]
    assert status["hits"] == cache.stats.hits == total
    assert cache.stats.hit_rate == total / (total + first["cache_misses"])
    assert cache.stats.bytes_saved == sum(
        stats["cache_bytes_saved"] for stats in (first, second, third)
    )


def test_a_table_rotation_is_answered_by_the_cache(job_stats, monkeypatch):
    """Past the table cap the daemon starts a fresh table and memo at
    the next admission: the repeat's every segment the new memo does not
    answer is a content hit, translated from the retired table into the
    new one, with the first job's bytes — and once every entry has moved,
    nothing keeps the retired table alive."""
    monkeypatch.setattr(intern, "TABLE_CAP", 8)
    with _daemon(NamOracle(), SegmentCache()) as (srv, client):
        first = client.optimize(CIRCUIT, omega=OMEGA)
        retired = weakref.ref(srv._table)
        second = client.optimize(CIRCUIT, omega=OMEGA)
        assert srv._table is not retired()
        # the dispatcher may still be returning from job 1's last round
        deadline = time.monotonic() + 5.0
        gc.collect()
        while retired() is not None:
            assert time.monotonic() < deadline, "the retired table is still held"
            time.sleep(0.01)
            gc.collect()
    counters = job_stats[1].counters
    memo = counters["cache_memo_hits"]
    assert counters["cache_hits"] - memo == second.stats["oracle_calls"] - memo > 0
    assert _packed(second.circuit.gates) == _packed(first.circuit.gates)


def test_two_oracles_never_answer_each_other_from_the_cache():
    """One cache, a daemon per oracle, interleaved: the content key
    carries the oracle's namespace, so each daemon reads only its own
    oracle's entries."""
    light = NamOracle(passes=("cancellation",))
    want = [popqc(CIRCUIT, oracle, OMEGA) for oracle in (NamOracle(), light)]
    assert want[0].circuit.gates != want[1].circuit.gates
    cache = SegmentCache()
    for run in ("cold", "warm"):
        for oracle, expected in zip((NamOracle(), light), want):
            with _daemon(oracle, cache) as (_, client):
                got = client.optimize(CIRCUIT, omega=OMEGA)
            assert got.circuit.gates == expected.circuit.gates
            assert got.stats["rounds"] == expected.stats.rounds
            assert (got.cache_hit_rate == 1.0) is (run == "warm")


def test_a_served_job_sends_each_distinct_segment_to_the_fleet_once():
    """Two equal halves: segments repeat within a round and across
    rounds, and the fleet sees each distinct one once — as many as a
    standalone run asks its oracle — with the standalone output bytes."""
    want = popqc(TWICE, NamOracle(), 20)
    with _daemon(NamOracle(), SegmentCache()) as (srv, client):
        job = client.optimize(TWICE, omega=20)
        dispatched = srv._scheduler.segments_dispatched
    assert dispatched == job.stats["cache_misses"] == want.stats.cache_misses
    assert dispatched < job.stats["oracle_calls"] == want.stats.oracle_calls
    assert _packed(job.circuit.gates) == _packed(want.circuit.gates)


def test_a_front_around_an_executor_scopes_keys_by_oracle():
    """A front hits only for the oracle it was built for, and a hit is a
    lazy handle on the stored bytes: nothing decoded until read."""
    segments = [CIRCUIT.gates[i : i + 20] for i in range(0, 60, 20)]
    cache = SegmentCache()
    front = CacheFront(cache, oracle_namespace(NamOracle()))
    results, misses = front.lookup(segments)
    answers = SerialMap().map_segments(NamOracle(), [seg for _, seg, _ in misses])
    front.store(results, misses, answers)
    hits, missed = front.lookup(segments)
    assert len(misses) == len(segments) and missed == []
    assert not any(hit.decoded for hit in hits)
    assert [hit.packed_bytes() for hit in hits] == [_packed(r) for r in answers]
    light = CacheFront(cache, oracle_namespace(NamOracle(passes=("cancellation",))))
    assert len(light.lookup(segments)[1]) == len(segments)
    assert front.counters() == {
        "cache_hits": len(segments),
        "cache_misses": len(segments),
        "cache_bytes_saved": sum(map(len, map(_packed, answers))),
        "cache_lookup_seconds": front.lookup_seconds,
    }
