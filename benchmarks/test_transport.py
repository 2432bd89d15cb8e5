"""Oracle-transport benchmark: pickle vs encoded vs shm vs threads vs socket.

The seed ``ProcessMap`` re-pickled the oracle callable and every
``list[Gate]`` segment on every round.  PR 1's encoded transport
registers the oracle once per worker (as each child starts) and ships
segments as compact numpy arrays; the shm transport packs each round's
segments into one pooled shared-memory arena, so the executor pipe
carries only the arenas' names;
the threads transport drops pipes and arenas entirely and relies on
the GIL-releasing vectorized rule engine
(:mod:`repro.oracles.vector_engine`); the socket transport ships the
same packed bytes as length-prefixed frames over TCP to worker hosts
(:mod:`repro.parallel.frames`), measured here against a localhost
multi-worker cluster.  These benchmarks measure all five wire formats
on the segment stream of a ≥20k-gate circuit, prove the transports
byte-identical end to end, compare the two rule-engine
implementations, record what lazy result decode skipped, and emit a
machine-readable ``BENCH_transport.json`` (schema v6) that CI uploads
on every push and diffs against the committed baseline (see
``benchmarks/README.md``).

Timing assertions use min-of-repeats, the standard way to compare two
implementations under scheduler noise; wall-clock *assertions* are
``slow``-marked and meant for real hardware (the nightly workflow),
not shared 2-vCPU CI runners.
"""

import json
import os
import platform
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.circuits import (
    decode_segment,
    encode_segment,
    encoded_nbytes,
    random_redundant_circuit,
    to_qasm,
)
from repro.circuits.intern import GateTable
from repro.core import popqc
from repro.oracles import IdentityOracle, NamOracle
from repro.parallel import LazySegmentResult, ProcessMap, local_cluster
from repro.service import CacheFront, SegmentCache
from repro.service.cache import oracle_cache_namespace
from repro.sim import probe_equivalent

OMEGA = 100

#: ≥20k gates, the acceptance workload.
CIRCUIT = random_redundant_circuit(12, 20000, seed=7, redundancy=0.5)

#: The per-round segment stream POPQC would ship: 2Ω-gate windows.
SEGMENTS = [
    list(CIRCUIT.gates[i : i + 2 * OMEGA])
    for i in range(0, CIRCUIT.num_gates, 2 * OMEGA)
]

ORACLE = NamOracle()

#: ``SEGMENTS`` as a ``popqc`` round hands them to its executor: ids of
#: one table, interned once (a driver round is always ids).
TABLE = GateTable()
ID_SEGMENTS = [LazySegmentResult.from_ids(TABLE.intern(seg), TABLE) for seg in SEGMENTS]


@pytest.fixture(scope="module")
def bench_json(tmp_path_factory) -> Path:
    """Where the machine-readable benchmark record lands:
    ``$BENCH_TRANSPORT_OUT`` (CI's transport-trend job names the repo-root
    file it uploads and gates), else a pytest temp dir, so a plain
    test run leaves the checkout clean."""
    out = os.environ.get("BENCH_TRANSPORT_OUT")
    if out:
        return Path(out)
    return tmp_path_factory.mktemp("bench") / "BENCH_transport.json"


#: Worker count for the smoke comparison (shared CI runners have 2
#: vCPUs; the slow acceptance tests use 4 and 8 on real hardware).
SMOKE_WORKERS = min(4, os.cpu_count() or 1)


def _round_time(
    transport: str,
    workers: int,
    oracle=ORACLE,
    segments=None,
    repeats: int = 3,
    hosts=None,
) -> float:
    """Min wall-clock of one full segment-stream map over a warm pool."""
    segments = SEGMENTS if segments is None else segments
    pm = ProcessMap(workers, serial_cutoff=0, transport=transport, hosts=hosts)
    try:
        pm.map_segments(oracle, segments[:4])  # spawn + warm the workers
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            pm.map_segments(oracle, segments)
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        pm.close()


def _serial_time(segments, repeats: int = 3) -> float:
    """Min wall-clock of mapping the oracle inline (no IPC at all)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for seg in segments:
            ORACLE(list(seg))
        best = min(best, time.perf_counter() - t0)
    return best


# -- wall-clock acceptance (real hardware; nightly workflow) -------------------


@pytest.mark.slow
@pytest.mark.parametrize("workers", [4, 8])
def test_encoded_beats_pickle_transport(workers):
    """Acceptance: encoded persistent workers beat the seed wire format
    on a ≥20k-gate circuit at 4+ workers."""
    assert CIRCUIT.num_gates >= 20000
    pickled = _round_time("pickle", workers)
    encoded = _round_time("encoded", workers)
    assert encoded < pickled, (
        f"encoded transport ({encoded * 1e3:.1f} ms/round) should beat "
        f"pickled ({pickled * 1e3:.1f} ms/round) at {workers} workers"
    )


def _wire_time(transport: str, workers: int, repeats: int = 5) -> float:
    """Min transport time of one identity-oracle round: wall-clock
    minus the parent-side encode/decode that every transport pays
    identically (and that ``stats.serialization_time`` accounts
    separately).  What remains is what the wire formats actually
    compete on — pipe pickling + dispatch vs. arena views."""
    # IdentityOracle isolates pure transport cost from oracle work
    echo = IdentityOracle()
    pm = ProcessMap(workers, serial_cutoff=0, transport=transport)
    try:
        pm.map_segments(echo, SEGMENTS[:4])  # spawn + warm the workers
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            pm.map_segments(echo, SEGMENTS)
            elapsed = time.perf_counter() - t0
            best = min(best, elapsed - pm.last_serialization_time)
        return best
    finally:
        pm.close()


@pytest.mark.slow
def test_threads_beats_pipe_transports_on_wire_time():
    """Acceptance: the threads transport, which moves no bytes at all,
    beats the encoded pipe transport on pure wire time — the oracle
    work is identical (identity), so what remains is IPC vs. nothing."""
    encoded = _wire_time("encoded", 2)
    threads = _wire_time("threads", 2)
    assert threads < encoded, (
        f"threads wire time ({threads * 1e3:.1f} ms/round) should beat "
        f"encoded ({encoded * 1e3:.1f} ms/round)"
    )


def _piped_bytes(transport: str, oracle, segments) -> tuple[int, int, int]:
    """``(messages, children, pickled bytes)`` one round of ``oracle`` over
    ``segments`` hands the executor pipe: a claim round, whose one
    message every child gets and whose replies come only from the
    children that claimed."""
    import pickle as _pickle

    pm = ProcessMap(2, serial_cutoff=0, transport=transport)
    try:
        pm.map_segments(oracle, segments[:4])  # spawn the pool
        pool = pm.wire._pool
        real_claim, sent, replied = pool.claim, [], []

        def spy(round_id, count, data, here):
            sent.append(data)
            replies = real_claim(round_id, count, data, here)
            replied.extend(_pickle.dumps(reply) for reply in replies)
            return replies

        pool.claim = spy
        pm.map_segments(oracle, segments)
        children = len(pool._conns)
        piped = sum(map(len, sent)) * children + sum(map(len, replied))
        return len(sent), children, piped
    finally:
        pm.close()


def test_an_id_round_pipes_one_message_per_child():
    """An id round's message — distinct rows and int32 positions —
    reaches each child once, smaller than the packed stream a by-value
    round carries each way."""
    payload = sum(encoded_nbytes(seg) for seg in SEGMENTS)
    messages, children, piped = _piped_bytes("encoded", ORACLE, ID_SEGMENTS)
    assert messages == 1 and children == 2
    assert piped < 2 * payload


def test_shm_pipes_descriptors_where_encoded_pipes_blobs():
    """What the arena transport still proves.  This used to be the
    nightly ``test_shm_beats_encoded_transport`` (shm wire time >= 1.25x
    faster at 4 workers); that gap was the encoded transport's
    per-segment pickles, and it closed when encoded started shipping one
    blob per batch — the wire-time ratio is now ~0.9-1.0 and is
    recorded, not asserted (``derived.shm_wire_speedup_vs_encoded``).
    What remains true is structural and needs no stopwatch: both
    transports send one claim-round message per child, encoded moves
    the whole packed stream through the pipe twice, shm moves arena
    names and markers."""
    payload = sum(encoded_nbytes(seg) for seg in SEGMENTS)
    echo = IdentityOracle()
    encoded_tasks, _, encoded_bytes = _piped_bytes("encoded", echo, SEGMENTS)
    shm_tasks, _, shm_bytes = _piped_bytes("shm", echo, SEGMENTS)
    assert encoded_tasks == shm_tasks < len(SEGMENTS) // 4
    assert encoded_bytes > 2 * payload  # there and back, plus headers
    assert shm_bytes * 100 < payload


# -- cross-transport equivalence ----------------------------------------------


EQUIV_CIRCUIT = random_redundant_circuit(9, 4000, seed=11, redundancy=0.5)


@pytest.fixture(scope="module")
def serial_reference():
    return popqc(EQUIV_CIRCUIT, NamOracle(), 50)


@pytest.fixture(scope="module")
def socket_cluster():
    """A localhost multi-worker cluster for the socket transport."""
    with local_cluster(2) as hosts:
        yield hosts


@pytest.mark.parametrize(
    "transport", ["pickle", "encoded", "shm", "threads", "socket"]
)
def test_cross_transport_equivalence(transport, serial_reference, socket_cluster):
    """All five transports must produce byte-identical optimized
    circuits — same gates, same QASM bytes, same dynamics."""
    hosts = socket_cluster if transport == "socket" else None
    pm = ProcessMap(2, serial_cutoff=0, transport=transport, hosts=hosts)
    try:
        res = popqc(EQUIV_CIRCUIT, NamOracle(), 50, parmap=pm)
    finally:
        pm.close()
    assert res.circuit.gates == serial_reference.circuit.gates
    assert to_qasm(res.circuit) == to_qasm(serial_reference.circuit)
    assert res.stats.rounds == serial_reference.stats.rounds
    assert res.stats.oracle_calls == serial_reference.stats.oracle_calls


# -- wire-size + trend record (smoke mode; runs on every push) -----------------


def test_encoded_payload_is_smaller():
    """The encoded wire format is no larger than pickled gate lists.

    Measured as actual pipe bytes — the pickled EncodedSegment, framing
    included — not just the raw array payload.  (The wall-clock win
    above comes mostly from skipping per-object pickling CPU and
    per-round oracle shipping, not raw bytes.)"""
    import pickle as _pickle

    from repro.circuits import encode_segment

    total_pickled = sum(len(_pickle.dumps(seg)) for seg in SEGMENTS)
    total_encoded = sum(len(_pickle.dumps(encode_segment(seg))) for seg in SEGMENTS)
    assert total_encoded < total_pickled


def test_shm_task_messages_are_tiny():
    """What the shm transport actually pipes per round: one task of arena
    names per child, orders of magnitude below the segment payload."""
    import pickle as _pickle

    messages = [(1, 1, len(SEGMENTS), "psm_abcdef01", "psm_abcdef02")] * 4
    piped = sum(len(_pickle.dumps(m)) for m in messages)
    payload = sum(encoded_nbytes(seg) for seg in SEGMENTS)
    assert piped * 100 < payload


def _engine_seconds_per_segment(oracle, repeats: int = 3) -> dict:
    """Mean per-segment seconds of ``oracle`` over the segment stream,
    both on gate lists (``call``) and in the wire format (``packed`` —
    what a transport worker pays per segment, conversions included).

    The min is taken *per segment* across repeats, then summed: a
    whole-stream min would keep whichever scheduler hiccups each pass
    happened to hit, drowning a 20% engine difference in noise.
    """
    encoded = [encode_segment(seg) for seg in SEGMENTS]
    call_best = [float("inf")] * len(SEGMENTS)
    packed_best = [float("inf")] * len(SEGMENTS)
    for _ in range(repeats):
        for i, seg in enumerate(SEGMENTS):
            t0 = time.perf_counter()
            oracle(list(seg))
            call_best[i] = min(call_best[i], time.perf_counter() - t0)
        for i, enc in enumerate(encoded):
            t0 = time.perf_counter()
            oracle.run_packed(enc)
            packed_best[i] = min(packed_best[i], time.perf_counter() - t0)
    n = len(SEGMENTS)
    return {
        "call_seconds_per_segment": sum(call_best) / n,
        "packed_seconds_per_segment": sum(packed_best) / n,
    }


@pytest.fixture(scope="module")
def engine_results():
    """Both engines' per-segment timings, measured once per bench run
    for the emitted JSON record."""
    return {
        "python": _engine_seconds_per_segment(NamOracle(engine="python")),
        "vector": _engine_seconds_per_segment(NamOracle(engine="vector")),
    }


def _lazy_decode_record() -> dict:
    """Lazy-decode stats of a fully rejecting workload (identity
    oracle over the encoded transport: every result is turned down by
    the acceptance test, so nothing should ever be unpacked)."""
    pm = ProcessMap(2, serial_cutoff=0, transport="encoded")
    try:
        res = popqc(CIRCUIT, IdentityOracle(), OMEGA, parmap=pm, max_rounds=4)
    finally:
        pm.close()
    counters = res.stats.counters
    returned, decoded = counters["results_returned"], counters["results_decoded"]
    return {
        "workload": "identity-oracle (all results rejected)",
        "results_returned": returned,
        "results_decoded": decoded,
        "bytes_returned": counters["result_bytes_returned"],
        "bytes_decoded": counters["result_bytes_decoded"],
        "bytes_skipped": counters["result_bytes_returned"]
        - counters["result_bytes_decoded"],
        "decode_skip_fraction": 1.0 - decoded / returned if returned else 0.0,
    }


def test_engines_agree_on_fixpoints_per_segment():
    """Acceptance, behavioural: on every segment of the stream the two
    rule engines stop at fixpoints of equal length that the simulator
    finds equivalent, each engine's output is a fixpoint of the other,
    and the python engine's ``run_packed`` is encode∘call∘decode.  Which
    engine is *faster* per packed segment is a timing: it is recorded as
    ``derived.vector_engine_packed_speedup`` and printed by
    ``benchmarks/check_bench_trend.py``, not asserted in tier-1."""
    python, vector = NamOracle(engine="python"), NamOracle(engine="vector")
    for seg in SEGMENTS:
        by_python, by_vector = python(list(seg)), vector(list(seg))
        assert len(by_python) == len(by_vector) < len(seg)
        assert python(list(by_vector)) == by_vector
        assert vector(list(by_python)) == by_python
        assert probe_equivalent(by_python, by_vector, trials=1, seed=0)
        packed = python.run_packed(encode_segment(seg))
        assert decode_segment(packed) == by_python


class _CountingOracle:
    """Oracle spy for the threads transport (which calls it in-process)."""

    def __init__(self, oracle):
        self._oracle = oracle
        self._lock = threading.Lock()
        self.calls = 0

    def __call__(self, segment):
        with self._lock:
            self.calls += 1
        return self._oracle(segment)


@pytest.fixture(scope="module")
def service_results():
    """The segment-cache comparison of the ``service`` record: per-
    segment cost of resolving a cache *hit* (fingerprint + lookup +
    lazy handle, fully warm cache) vs. re-executing the oracle, over
    the full segment stream — plus what the warm passes did (oracle
    calls seen by a spy, results compared with the cold pass).  A
    round goes through a :class:`CacheFront` as a daemon's job does:
    lookup, the misses through ``pm.map_segments``, store.
    Measured once per bench run, shared by the acceptance assertion
    and the emitted JSON.
    """
    oracle_best = _serial_time(SEGMENTS, repeats=3)
    cache = SegmentCache()
    spy = _CountingOracle(ORACLE)
    front = CacheFront(cache, oracle_cache_namespace(spy))
    pm = ProcessMap(2, serial_cutoff=0, transport="threads")

    def cached_round():
        results, misses = front.lookup(SEGMENTS)
        if misses:
            missed = [seg for _, seg, _ in misses]
            front.store(results, misses, pm.map_segments(spy, missed))
        return results

    try:
        cold = cached_round()  # cold pass fills the cache
        cold_calls = spy.calls
        hits, misses = front.hits, front.misses
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            warm = cached_round()
            best = min(best, time.perf_counter() - t0)
        warm_hits, warm_misses = front.hits - hits, front.misses - misses
        hit_rate = warm_hits / (warm_hits + warm_misses)
        identical = [r.packed_bytes() for r in warm] == [
            r.packed_bytes() for r in cold
        ]
    finally:
        pm.close()
    n = len(SEGMENTS)
    hit = best / n
    oracle = oracle_best / n
    return {
        "workload": "warm segment cache over the full segment stream",
        "segments": n,
        "cache_hit_seconds_per_segment": hit,
        "oracle_seconds_per_segment": oracle,
        "hit_speedup_vs_oracle": oracle / hit,
        "hit_rate_after_warmup": hit_rate,
        "cold_oracle_calls": cold_calls,
        "warm_oracle_calls": spy.calls - cold_calls,
        "warm_results_identical_to_cold": identical,
        "cache_entries": len(cache),
        "cache_bytes": cache.memory_bytes,
    }


def test_cache_hits_resolve_10x_faster_than_oracle(service_results):
    """Acceptance, behavioural half: a warm cache answers every
    repeated segment without the oracle, byte-identically.  The ≥10x
    wall-clock floor on ``hit_speedup_vs_oracle`` is a timing, so it is
    gated on the emitted record by ``benchmarks/check_bench_trend.py``
    (the transport-trend job), not asserted in tier-1."""
    assert service_results["cold_oracle_calls"] == len(SEGMENTS)
    assert service_results["hit_rate_after_warmup"] == 1.0
    assert service_results["warm_oracle_calls"] == 0
    assert service_results["warm_results_identical_to_cold"]


def _socket_record(smoke_segments, hosts) -> dict:
    """Throughput + wire accounting of one socket-transport round over
    the localhost cluster (the BENCH_transport.json `socket` section).

    Timing goes through ``_round_time`` so the socket row uses exactly
    the same warm-up and min-of-repeats methodology as the other
    transports; wire-byte accounting comes from one separate round.
    """
    best = _round_time(
        "socket", len(hosts), segments=smoke_segments, repeats=2, hosts=hosts
    )
    pm = ProcessMap(
        len(hosts), serial_cutoff=0, transport="socket", hosts=hosts
    )
    try:
        pm.map_segments(ORACLE, smoke_segments)
        counters = pm.counters()
        return {
            "seconds_per_round": best,
            "segments_per_s": len(smoke_segments) / best,
            "hosts": len(hosts),
            "bytes_sent": counters["socket_bytes_sent"],
            "bytes_received": counters["socket_bytes_received"],
            "reconnects": counters["socket_reconnects"],
        }
    finally:
        pm.close()


def test_five_way_comparison_emits_bench_json(
    engine_results, socket_cluster, service_results, bench_json
):
    """Measure serial/pickle/encoded/shm/threads/socket round
    throughput at smoke scale (socket against the localhost cluster),
    the rule-engine comparison, the lazy-decode stats and the
    segment-cache comparison, and write ``BENCH_transport.json``
    (schema v6) for the CI trend job.

    This test only asserts sanity (positive throughputs, complete
    record, lazy decode skipping bytes on a rejecting workload); the
    regression *gate* lives in ``benchmarks/check_bench_trend.py``
    against the committed baseline, and the wall-clock ordering
    assertions are the slow tests above.
    """
    smoke_segments = SEGMENTS[: max(12, 2 * SMOKE_WORKERS)]
    serial = _serial_time(smoke_segments, repeats=2)
    results = {
        "serial": {
            "seconds_per_round": serial,
            "segments_per_s": len(smoke_segments) / serial,
        }
    }
    for transport in ("pickle", "encoded", "shm", "threads"):
        elapsed = _round_time(
            transport, SMOKE_WORKERS, segments=smoke_segments, repeats=2
        )
        results[transport] = {
            "seconds_per_round": elapsed,
            "segments_per_s": len(smoke_segments) / elapsed,
        }
    results["socket"] = _socket_record(smoke_segments, socket_cluster)

    engines = engine_results
    lazy = _lazy_decode_record()

    record = {
        "schema": "popqc-bench-transport/v6",
        "generated_unix": time.time(),
        "workload": {
            "circuit_gates": CIRCUIT.num_gates,
            "omega": OMEGA,
            "segments": len(smoke_segments),
            "workers": SMOKE_WORKERS,
            "oracle": type(ORACLE).__name__,
        },
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "results": results,
        "oracle_engine": engines,
        "lazy_decode": lazy,
        "service": service_results,
        "derived": {
            "cache_hit_speedup_vs_oracle": service_results[
                "hit_speedup_vs_oracle"
            ],
            "encoded_speedup_vs_pickle": results["pickle"]["seconds_per_round"]
            / results["encoded"]["seconds_per_round"],
            "shm_speedup_vs_encoded": results["encoded"]["seconds_per_round"]
            / results["shm"]["seconds_per_round"],
            # identity-oracle wire time: what was a >=1.25x assertion
            # while encoded pickled per segment (see
            # test_shm_pipes_descriptors_where_encoded_pipes_blobs)
            "shm_wire_speedup_vs_encoded": _wire_time(
                "encoded", SMOKE_WORKERS, repeats=3
            )
            / _wire_time("shm", SMOKE_WORKERS, repeats=3),
            "threads_speedup_vs_pickle": results["pickle"]["seconds_per_round"]
            / results["threads"]["seconds_per_round"],
            "socket_speedup_vs_pickle": results["pickle"]["seconds_per_round"]
            / results["socket"]["seconds_per_round"],
            "vector_engine_packed_speedup": engines["python"][
                "packed_seconds_per_segment"
            ]
            / engines["vector"]["packed_seconds_per_segment"],
            "vector_engine_call_speedup": engines["python"][
                "call_seconds_per_segment"
            ]
            / engines["vector"]["call_seconds_per_segment"],
        },
    }
    bench_json.write_text(json.dumps(record, indent=2) + "\n")

    assert all(r["segments_per_s"] > 0 for r in results.values())
    assert set(results) == {
        "serial", "pickle", "encoded", "shm", "threads", "socket",
    }
    # the socket section must come from a real multi-worker run with
    # bytes actually on the wire
    assert results["socket"]["hosts"] >= 2
    assert results["socket"]["bytes_sent"] > 0
    assert results["socket"]["bytes_received"] > 0
    # the lazy-decode acceptance pin: a rejecting workload must report
    # skipped decode bytes
    assert lazy["bytes_skipped"] > 0
    assert lazy["results_decoded"] == 0
    # the service section must come from a fully warm cache
    assert service_results["hit_rate_after_warmup"] == 1.0
    assert service_results["cache_entries"] > 0


def test_transport_round_benchmark(benchmark):
    """Throughput of one encoded-transport round (for trend tracking)."""
    pm = ProcessMap(4, serial_cutoff=0, transport="encoded")
    try:
        pm.map_segments(ORACLE, SEGMENTS[:4])
        out = benchmark(lambda: pm.map_segments(ORACLE, SEGMENTS))
    finally:
        pm.close()
    assert len(out) == len(SEGMENTS)


def test_shm_round_benchmark(benchmark):
    """Throughput of one shm-transport round (for trend tracking)."""
    pm = ProcessMap(4, serial_cutoff=0, transport="shm")
    try:
        pm.map_segments(ORACLE, SEGMENTS[:4])
        out = benchmark(lambda: pm.map_segments(ORACLE, SEGMENTS))
    finally:
        pm.close()
    assert len(out) == len(SEGMENTS)


def test_threads_round_benchmark(benchmark):
    """Throughput of one threads-transport round with the GIL-releasing
    vector oracle (for trend tracking)."""
    oracle = NamOracle(engine="vector")
    pm = ProcessMap(4, serial_cutoff=0, transport="threads")
    try:
        pm.map_segments(oracle, SEGMENTS[:4])
        out = benchmark(lambda: pm.map_segments(oracle, SEGMENTS))
    finally:
        pm.close()
    assert len(out) == len(SEGMENTS)


def test_socket_round_benchmark(benchmark, socket_cluster):
    """Throughput of one socket-transport round over the localhost
    cluster (for trend tracking)."""
    pm = ProcessMap(
        len(socket_cluster),
        serial_cutoff=0,
        transport="socket",
        hosts=socket_cluster,
    )
    try:
        pm.map_segments(ORACLE, SEGMENTS[:4])
        out = benchmark(lambda: pm.map_segments(ORACLE, SEGMENTS))
    finally:
        pm.close()
    assert len(out) == len(SEGMENTS)
