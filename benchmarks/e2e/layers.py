"""Per-layer metrics: what the traced passes and the probes measure.

Layers are the packages of ``src/repro``.  Span metrics are sums over
one traced pass; *probe* metrics time a layer's public functions
directly on the segment stream a serial traced pass recorded.  A
workload that does not go through a layer reports 0 for that layer's
span metrics (``service.*`` on the batch workloads).
"""

from __future__ import annotations

import contextlib
import pathlib
import random
import statistics
import time

from repro import NamOracle, ProcessMap
from repro.circuits import (
    decode_segment,
    encode_segment,
    pack_segment_into,
    segment_fingerprint,
)
from repro.circuits.encoding import packed_segment_nbytes
from repro.core import TombstoneArray, initial_fingers, select_fingers
from repro.parallel import local_cluster
from repro.service import SegmentCache
from spans import Recorder, TracedMap, duration, self_times

LAYERS = ("core", "oracles", "circuits", "parallel", "service")
TRANSPORTS = ("pickle", "encoded", "shm", "threads", "socket")
US = 1e6


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when there was nothing to divide by."""
    return num / den if den else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _timed(fn, *args) -> tuple[float, object]:
    started = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - started, out


# -- span metrics ---------------------------------------------------------------


def core_and_parallel(samples, recorder: Recorder, proxy) -> dict:
    """``core.*`` and ``parallel.*`` span metrics of one traced direct pass."""
    stats = [s.stats for s in samples if s.error is None]
    popqc_spans = recorder.named("core.popqc")
    own = self_times(recorder.spans)
    popqc_s = sum(map(duration, popqc_spans))
    core_self = sum(own[s["id"]] for s in popqc_spans)
    maps = recorder.named("parallel.map")
    widths = [s["counts"]["segments"] for s in maps]
    cutoff = getattr(proxy, "serial_cutoff", None)
    calls = sum(s.oracle_calls for s in stats)
    returned = sum(s.results_returned for s in stats)
    return {
        "core.rounds": sum(s.rounds for s in stats),
        "core.oracle_calls": calls,
        "core.accept_ratio": ratio(sum(s.oracle_accepted for s in stats), calls),
        "core.self_s": core_self,
        "core.self_share": ratio(core_self, popqc_s),
        "parallel.map_s": sum(map(duration, maps)),
        "parallel.map_calls": len(maps),
        "parallel.inline_maps": (
            0 if cutoff is None else sum(1 for w in widths if w <= cutoff)
        ),
        "parallel.segs_per_map_p50": _median(widths),
        "parallel.encode_s": sum(s.serialization_time for s in stats),
        "parallel.decode_skip_fraction": ratio(
            returned - sum(s.results_decoded for s in stats), returned
        ),
    }


def oracles(recorder: Recorder) -> dict:
    """``oracles.*`` span metrics of one serial traced pass."""
    calls = recorder.named("oracles.call")
    busy = sum(map(duration, calls))
    removed = sum(s["counts"]["gates"] - s["counts"]["gates_out"] for s in calls)
    popqc_s = sum(map(duration, recorder.named("core.popqc")))
    return {
        "oracles.busy_s": busy,
        "oracles.busy_share": ratio(busy, popqc_s),
        "oracles.seg_us_p50": _median(duration(s) * US for s in calls),
        "oracles.gates_removed_per_call": ratio(removed, len(calls)),
    }


def service(recorder: Recorder, before: dict, after: dict) -> dict:
    """``service.*`` metrics of the traced served section.

    Client spans give the per-job numbers; the scheduler and cache
    counts are STATUS deltas across the same section.
    """
    jobs = [s for s in recorder.named("job") if "server_wall_s" in s["counts"]]
    server = [s["counts"]["server_wall_s"] for s in jobs]
    wire = [duration(s) - s["counts"]["server_wall_s"] for s in jobs]

    def delta(section: str, key: str) -> float:
        return (after[section] or {}).get(key, 0) - (before[section] or {}).get(key, 0)

    rounds = delta("scheduler", "rounds_dispatched")
    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    return {
        "service.server_job_s_p50": _median(server),
        "service.wire_overhead_s_p50": _median(wire),
        "service.scheduler.rounds_dispatched": rounds,
        "service.scheduler.requests_merged": delta("scheduler", "requests_merged"),
        "service.scheduler.segs_per_round": ratio(
            delta("scheduler", "segments_dispatched"), rounds
        ),
        "service.cache.hit_rate": ratio(hits, hits + misses),
        "service.cache.hits": hits,
        "service.cache.misses": misses,
    }


NO_SERVICE = {
    "service.server_job_s_p50": 0.0,
    "service.wire_overhead_s_p50": 0.0,
    "service.scheduler.rounds_dispatched": 0,
    "service.scheduler.requests_merged": 0,
    "service.scheduler.segs_per_round": 0.0,
    "service.busy_rejections": 0,
    "service.daemon_start_s": 0.0,
    "service.daemon_peak_rss_mb": 0.0,
    "service.cache.hit_rate": 0.0,
    "service.cache.hits": 0,
    "service.cache.misses": 0,
}


def src_lines(src_root: pathlib.Path) -> dict:
    """Exact line counts of each layer's package."""
    return {
        f"{layer}.src_lines": sum(
            len(path.read_text().splitlines())
            for path in sorted((src_root / "repro" / layer).rglob("*.py"))
        )
        for layer in LAYERS
    }


# -- probes ---------------------------------------------------------------------


def probe_core(jobs, omega: int, oracle) -> dict:
    """Time the driver's data-structure steps on the first round of each job.

    The first round is rebuilt from the public pieces ``popqc`` itself
    composes — ``TombstoneArray``, ``initial_fingers``, ``before``,
    ``select_fingers``, ``segment``, ``substitute`` — with the oracle
    calls in between left untimed.
    """
    build_s = select_s = extract_s = substitute_s = 0.0
    gates_n = fingers_n = segments_n = accepted_n = 0
    for job in jobs:
        gates = list(job.circuit.gates)
        spent, array = _timed(TombstoneArray, gates)
        build_s += spent
        gates_n += len(gates)
        fingers = initial_fingers(len(gates), omega)
        started = time.perf_counter()
        ranks = [array.before(f) for f in fingers]
        selected, _remaining = select_fingers(ranks, omega)
        select_s += time.perf_counter() - started
        fingers_n += len(fingers)
        live = array.live_count
        centers = [min(ranks[p], live) for p in selected]
        bounds = [(max(0, c - omega), min(live, c + omega)) for c in centers]
        started = time.perf_counter()
        extracted = [array.segment(lo, hi) for lo, hi in bounds]
        extract_s += time.perf_counter() - started
        segments_n += len(bounds)
        updates = []
        for slots, segment in extracted:
            rewritten = oracle(segment)
            if len(rewritten) < len(segment):
                accepted_n += 1
                updates.extend(
                    (slot, rewritten[i] if i < len(rewritten) else None)
                    for i, slot in enumerate(slots)
                )
        spent, _ = _timed(array.substitute, updates)
        substitute_s += spent
    return {
        "core.build_us_per_kgate": ratio(build_s * US, gates_n / 1000),
        "core.select_us_per_finger": ratio(select_s * US, fingers_n),
        "core.extract_us_per_seg": ratio(extract_s * US, segments_n),
        "core.substitute_us_per_seg": ratio(substitute_s * US, accepted_n),
    }


def _per_segment_us(fn, items) -> float:
    started = time.perf_counter()
    for item in items:
        fn(item)
    return ratio((time.perf_counter() - started) * US, len(items))


def _pack(encoded) -> bytearray:
    buf = bytearray(packed_segment_nbytes(encoded))
    pack_segment_into(encoded, buf)
    return buf


def probe_segments(segments) -> dict:
    """Both oracle engines, the wire codec and the cache on sampled segments."""
    encoded = [encode_segment(seg) for seg in segments]
    packed = [_pack(enc) for enc in encoded]
    vector = NamOracle(engine="vector")
    cache = SegmentCache()
    keyed = [(cache.key_for(buf), buf) for buf in packed]
    put_us = _per_segment_us(lambda pair: cache.put(*pair), keyed)
    return {
        "oracles.python.seg_us": _per_segment_us(NamOracle(), segments),
        "oracles.vector.seg_us": _per_segment_us(vector, segments),
        "oracles.vector.packed_seg_us": _per_segment_us(vector.run_packed, encoded),
        "circuits.encode_us_per_seg": _per_segment_us(encode_segment, segments),
        "circuits.decode_us_per_seg": _per_segment_us(decode_segment, encoded),
        "circuits.pack_us_per_seg": _per_segment_us(_pack, encoded),
        "circuits.fingerprint_us_per_seg": _per_segment_us(
            segment_fingerprint, packed
        ),
        "circuits.packed_bytes_per_gate": ratio(
            sum(map(len, packed)), sum(map(len, segments))
        ),
        "service.cache.lookup_us_per_seg": _per_segment_us(
            lambda buf: cache.get(cache.key_for(buf)), packed
        ),
        "service.cache.put_us_per_seg": put_us,
    }


def _roundtrip_us(pmap, oracle, rounds) -> float:
    """Warm ``map_segments`` wall per segment over ``rounds``.

    The first rounds run untimed to start workers and register the
    oracle; reading ``len()`` of each result is what ``popqc``'s
    acceptance test consumes.
    """
    try:
        for segments in rounds[:3]:
            pmap.map_segments(oracle, segments)
        started = time.perf_counter()
        for segments in rounds:
            for result in pmap.map_segments(oracle, segments):
                len(result)
        spent = time.perf_counter() - started
    finally:
        pmap.close()
    return ratio(spent * US, sum(map(len, rounds)))


def probe_roundtrip(rounds, oracle, workers: int) -> dict:
    """One circuit's real round widths through each of the five transports."""
    result = {}
    for transport in TRANSPORTS:  # forking transports first, threads after
        with contextlib.ExitStack() as stack:
            hosts = (
                stack.enter_context(local_cluster(workers))
                if transport == "socket"
                else None
            )
            pmap = ProcessMap(workers=workers, transport=transport, hosts=hosts)
            result[f"parallel.roundtrip_us_per_seg.{transport}"] = _roundtrip_us(
                pmap, oracle, rounds
            )
    return result


def probes(jobs, omega: int, oracle, proxy: TracedMap, workers: int, seed: int,
           sample_size: int) -> dict:
    """Every probe metric, from the stream ``proxy`` recorded.

    The per-segment probes time a seeded sample of ``sample_size``
    segments of the stream.
    """
    stream = [seg for _request, segments in proxy.rounds for seg in segments]
    sampled = random.Random(seed).sample(stream, min(sample_size, len(stream)))
    shor = [
        segments
        for request, segments in proxy.rounds
        if request is not None and request.startswith("Shor:")
    ]
    return {
        **probe_core(jobs, omega, oracle),
        **probe_segments(sampled),
        **probe_roundtrip(shor, oracle, workers),
    }
