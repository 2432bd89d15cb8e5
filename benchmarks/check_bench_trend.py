#!/usr/bin/env python
"""Gate the perf trajectory: compare a fresh benchmark record against
the committed baseline.

CI's ``bench-trend`` job runs a benchmark (which writes a JSON record),
uploads it as an artifact, then runs this script.  The record's
``schema`` field picks the gate set:

**Transport records** (``BENCH_transport.json``) gate two sections:

* **serial-map throughput** — oracle work with no IPC in the loop, the
  most runner-noise-tolerant number in the record: a >20% drop means
  the oracle/codec hot path itself got slower, not that the runner was
  busy;
* **socket throughput** — the full frame-codec + dispatcher path over
  a localhost multi-worker cluster; loopback TCP on one machine is
  scheduler-noisy, so this gate gets double the tolerance and exists to
  catch protocol-level regressions (an extra copy per frame, a lost
  pipelining opportunity), not percent-level drift.

Records of schema ``popqc-bench-transport/v5`` and later additionally
gate the **cluster cache** section: a second host resolving the warm
segment stream from the shared cache tier must beat the cold pass that
executed the oracle behind the same socket path
(``remote_hit_speedup_vs_cold > 1.0``; the ratio against the
*in-process* oracle, ``remote_hit_speedup_vs_oracle``, is printed but
hovers around 1 since the rule engine got faster).  The gate is a
ratio of two measurements on the same machine, so — like the
service-load SLO ratios — it is *always* armed, even against a
baseline from a different runner class, and a v5 record missing the
section is itself a regression.

Records carrying a **service** section gate its warm-cache ratio the
same always-armed way: hits must resolve ≥3x faster than oracle
re-execution (``hit_speedup_vs_oracle``; tier-1 asserts only that the
warm pass is all hits with zero oracle calls).

The remaining parallel-transport numbers are recorded for the
trajectory but not gated (2-vCPU shared runners make them races); a
record's ``dispatch`` section — where a default ``ProcessMap`` ran its
rounds and the per-width cost table it learned — is printed beside them.

**Service-load records** (``BENCH_service_load.json``, schema
``popqc-bench-service-load/v1``) gate four things:

* the schema itself — required sections and per-mix fields present;
* the **SLO ratios** — warm-duplicate p50 speedup over cold, and
  interactive p99 over flood p50.  Ratios are hardware-independent,
  so these gates are *always* armed, even against a baseline from a
  different runner class;
* the **cache-benefit floor** — the warm mix's hit rate may not drop
  more than ``--hit-rate-slack`` below the baseline's (deterministic
  traffic makes the hit rate near-deterministic too);
* **p99 latency regression** — per-mix p99 may not exceed baseline by
  more than ``--p99-tolerance``; absolute latency does not compare
  across hosts, so this one is warn-only cross-class (like the
  transport throughput gates) unless ``--strict``.

Usage::

    python benchmarks/check_bench_trend.py BENCH_transport.json \
        benchmarks/BENCH_transport_baseline.json [--tolerance 0.2]
    python benchmarks/check_bench_trend.py BENCH_service_load.json \
        benchmarks/BENCH_service_load_baseline.json
    python benchmarks/check_bench_trend.py BENCH_service_load.json \
        --validate-only   # schema + SLO gates, no baseline needed

Exit status 1 on regression.  To re-baseline after an intentional
change, copy the fresh JSON over the baseline file in the same PR.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Schema prefix of the service-load record family.
SERVICE_LOAD_SCHEMA = "popqc-bench-service-load"

#: Floor on the transport record's ``service.hit_speedup_vs_oracle``:
#: a warm segment cache must resolve a repeated segment at least this
#: many times faster than re-running the oracle on it (was 10 while an
#: oracle call cost ~1 ms; the one-index rule engine cut that to ~0.3 ms
#: against an unchanged ~65 us hit).
CACHE_HIT_SPEEDUP_MIN = 3.0

#: Per-mix fields a well-formed service-load record must carry.
_MIX_REQUIRED = (
    "jobs_scheduled",
    "jobs_completed",
    "jobs_failed",
    "busy_rejections",
    "latency_seconds",
    "throughput_jobs_per_s",
    "cache",
)


def validate_service_load(record: dict) -> list[str]:
    """Structural schema check of a service-load record.

    Returns a list of problems (empty when the record is well-formed).
    Validation is deliberately shape-based, not jsonschema: the gate
    must run from a bare checkout with no extra dependencies.
    """
    problems: list[str] = []
    for key in ("schema", "host", "config", "mixes", "derived", "slo"):
        if key not in record:
            problems.append(f"missing top-level section {key!r}")
    if not str(record.get("schema", "")).startswith(SERVICE_LOAD_SCHEMA):
        problems.append(f"schema is {record.get('schema')!r}")
    for name in ("cold", "warm", "flood", "interactive"):
        if name not in record.get("mixes", {}):
            problems.append(f"missing suite mix {name!r}")
    for name, mix in record.get("mixes", {}).items():
        for key in _MIX_REQUIRED:
            if key not in mix:
                problems.append(f"mix {name!r} missing {key!r}")
        lat = mix.get("latency_seconds", {})
        for pct in ("p50", "p90", "p99"):
            if not isinstance(lat.get(pct), (int, float)):
                problems.append(f"mix {name!r} missing latency p{pct[1:]}")
        cache = mix.get("cache", {})
        if "hit_rate" not in cache or "trajectory" not in cache:
            problems.append(f"mix {name!r} cache section incomplete")
    derived = record.get("derived", {})
    slo = record.get("slo", {})
    for key in ("warm_p50_speedup_vs_cold", "interactive_p99_over_flood_p50"):
        if not isinstance(derived.get(key), (int, float)):
            problems.append(f"derived.{key} missing")
    for key in ("warm_p50_speedup_min", "interactive_p99_over_flood_p50_max"):
        if not isinstance(slo.get(key), (int, float)):
            problems.append(f"slo.{key} missing")
    return problems


def check_service_load(
    current: dict,
    baseline: dict | None,
    *,
    p99_tolerance: float,
    hit_rate_slack: float,
    strict: bool,
) -> int:
    """Gate a service-load record; returns the process exit status."""
    problems = validate_service_load(current)
    if problems:
        for p in problems:
            print(f"schema: {p}", file=sys.stderr)
        return 1

    hard: list[str] = []  # armed regardless of runner class
    soft: list[str] = []  # hardware-dependent: warn-only cross-class

    speedup = current["derived"]["warm_p50_speedup_vs_cold"]
    floor = current["slo"]["warm_p50_speedup_min"]
    verdict = "OK" if speedup >= floor else "SLO VIOLATION"
    print(
        f"warm p50 speedup vs cold: {speedup:.2f}x "
        f"(SLO >= {floor:.1f}x) -> {verdict}"
    )
    if speedup < floor:
        hard.append(
            f"warm duplicate p50 speedup {speedup:.2f}x below the "
            f"{floor:.1f}x SLO (the segment cache's latency benefit)"
        )

    ratio = current["derived"]["interactive_p99_over_flood_p50"]
    ceil = current["slo"]["interactive_p99_over_flood_p50_max"]
    verdict = "OK" if 0 < ratio <= ceil else "SLO VIOLATION"
    print(
        f"interactive p99 / flood p50: {ratio:.3f} "
        f"(SLO <= {ceil:.1f}) -> {verdict}"
    )
    if not 0 < ratio <= ceil:
        hard.append(
            f"interactive p99 is {ratio:.2f}x the flood p50, above the "
            f"{ceil:.1f}x starvation SLO"
        )

    for name, mix in sorted(current["mixes"].items()):
        if mix["jobs_failed"]:
            hard.append(
                f"mix {name!r}: {mix['jobs_failed']} failed jobs "
                f"({', '.join(mix.get('errors', [])) or 'no error detail'})"
            )
        lat = mix["latency_seconds"]
        print(
            f"{name:>12}: p50={lat['p50'] * 1000:.1f}ms "
            f"p99={lat['p99'] * 1000:.1f}ms "
            f"hit_rate={mix['cache']['hit_rate']:.2f} "
            f"busy={mix['busy_rejections']}"
        )

    if baseline is not None:
        base_problems = validate_service_load(baseline)
        if base_problems:
            for p in base_problems:
                print(f"baseline schema: {p}", file=sys.stderr)
            return 1
        base_hit = baseline["mixes"]["warm"]["cache"]["hit_rate"]
        cur_hit = current["mixes"]["warm"]["cache"]["hit_rate"]
        hit_floor = base_hit - hit_rate_slack
        verdict = "OK" if cur_hit >= hit_floor else "REGRESSION"
        print(
            f"warm cache hit rate: {cur_hit:.3f} "
            f"(baseline {base_hit:.3f}, floor {hit_floor:.3f}) -> {verdict}"
        )
        if cur_hit < hit_floor:
            hard.append(
                f"warm cache hit rate {cur_hit:.3f} fell below the "
                f"baseline floor {hit_floor:.3f} (cache-benefit floor)"
            )
        for name in sorted(current["mixes"]):
            base_mix = baseline["mixes"].get(name)
            if base_mix is None:
                continue
            got = current["mixes"][name]["latency_seconds"]["p99"]
            want = base_mix["latency_seconds"]["p99"]
            ceiling = want * (1.0 + p99_tolerance)
            if got > ceiling:
                soft.append(
                    f"mix {name!r} p99 {got * 1000:.1f}ms exceeds baseline "
                    f"{want * 1000:.1f}ms by more than "
                    f"{p99_tolerance:.0%} (ceiling {ceiling * 1000:.1f}ms)"
                )
        same_class = current.get("host", {}).get("cpus") == baseline.get(
            "host", {}
        ).get("cpus")
        if soft and not same_class and not strict:
            print(
                "p99 above ceiling, but the baseline was recorded on a "
                f"different runner class ({baseline.get('host')}); "
                "warn-only.  Re-baseline from this runner's artifact to "
                "arm the gate.",
                file=sys.stderr,
            )
            soft = []

    failures = hard + soft
    if failures:
        for line in failures:
            print(
                f"{line}; if intentional, re-baseline by committing the "
                "new JSON",
                file=sys.stderr,
            )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "current", help="freshly generated benchmark record (JSON)"
    )
    parser.add_argument(
        "baseline",
        nargs="?",
        default=None,
        help="committed baseline JSON (optional with --validate-only)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional throughput drop for the serial gate "
        "(default 0.2 = 20%%; the socket gate doubles this)",
    )
    parser.add_argument(
        "--p99-tolerance",
        type=float,
        default=0.5,
        help="allowed fractional per-mix p99 latency increase for "
        "service-load records (default 0.5 = 50%%)",
    )
    parser.add_argument(
        "--hit-rate-slack",
        type=float,
        default=0.05,
        help="allowed absolute warm-mix cache-hit-rate drop below the "
        "baseline (default 0.05)",
    )
    parser.add_argument(
        "--validate-only",
        action="store_true",
        help="service-load records: run the schema + SLO + zero-failure "
        "gates without a baseline (used on smoke records whose "
        "latencies are not baseline-comparable)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on regression even when the baseline was recorded on "
        "different hardware (default: warn-only in that case, since "
        "absolute throughput does not compare across hosts)",
    )
    args = parser.parse_args(argv)

    with open(args.current) as fh:
        current = json.load(fh)
    if args.baseline is None and not args.validate_only:
        parser.error("a baseline is required unless --validate-only")
    baseline = None
    if args.baseline is not None and not args.validate_only:
        with open(args.baseline) as fh:
            baseline = json.load(fh)

    if str(current.get("schema", "")).startswith(SERVICE_LOAD_SCHEMA):
        return check_service_load(
            current,
            baseline,
            p99_tolerance=args.p99_tolerance,
            hit_rate_slack=args.hit_rate_slack,
            strict=args.strict,
        )

    if baseline is None:
        print(
            "--validate-only only applies to service-load records",
            file=sys.stderr,
        )
        return 2

    # runner-class fingerprint: vCPU count (kernel strings churn too
    # much to compare whole host records)
    same_class = current.get("host", {}).get("cpus") == baseline.get(
        "host", {}
    ).get("cpus")

    regressions: list[str] = []  # hardware-dependent: warn-only cross-class
    hard: list[str] = []  # ratio gates: armed regardless of runner class

    schema = str(current.get("schema", ""))
    try:
        version = int(schema.rsplit("/v", 1)[1])
    except (IndexError, ValueError):
        version = 0
    if version >= 5:
        cluster = current.get("cluster_cache")
        if not isinstance(cluster, dict):
            hard.append(
                "cluster_cache: section missing from the fresh record "
                f"(required by schema {schema})"
            )
        else:
            ratio = cluster.get("remote_hit_speedup_vs_cold")
            gated = isinstance(ratio, (int, float)) and ratio > 1.0
            verdict = "OK" if gated else "REGRESSION"
            print(
                f"cluster cache: remote hits resolve "
                f"{ratio if isinstance(ratio, (int, float)) else 0.0:.2f}x "
                f"faster than the cold pass (floor 1.0) -> {verdict}; "
                f"{cluster.get('remote_hit_speedup_vs_oracle', 0.0):.2f}x "
                "vs the in-process oracle (ungated)"
            )
            if not gated:
                hard.append(
                    f"cluster_cache: remote_hit_speedup_vs_cold {ratio!r} "
                    "is not > 1.0 — a second host must resolve warm "
                    "segments from the shared cache faster than the host "
                    "that ran the oracle on them"
                )

    def gate(name: str, tolerance: float) -> None:
        got = current["results"].get(name, {}).get("segments_per_s")
        want = baseline["results"].get(name, {}).get("segments_per_s")
        if got is None:
            regressions.append(f"{name}: missing from the fresh record")
            return
        if want is None:
            print(f"{name}: {got:.0f} segments/s (no baseline yet; ungated)")
            return
        floor = (1.0 - tolerance) * want
        verdict = "OK" if got >= floor else "REGRESSION"
        print(
            f"{name}-map throughput: {got:.0f} segments/s "
            f"(baseline {want:.0f}, floor {floor:.0f}) -> {verdict}"
        )
        if got < floor:
            regressions.append(
                f"{name} throughput regressed >{tolerance:.0%} vs baseline"
            )

    gate("serial", args.tolerance)
    gate("socket", 2.0 * args.tolerance)

    for name in ("pickle", "encoded", "shm", "threads"):
        cur = current["results"].get(name, {}).get("segments_per_s")
        base = baseline["results"].get(name, {}).get("segments_per_s")
        if cur is not None and base is not None:
            print(
                f"{name:>8}: {cur:.0f} segments/s "
                f"(baseline {base:.0f}, informational)"
            )
    sock = current["results"].get("socket", {})
    if sock:
        print(
            f"socket wire: {sock.get('hosts', 0)} hosts, "
            f"{sock.get('bytes_sent', 0)} B out / "
            f"{sock.get('bytes_received', 0)} B in, "
            f"{sock.get('reconnects', 0)} reconnects"
        )
    engine = current.get("derived", {}).get("vector_engine_packed_speedup")
    if engine is not None:
        print(f"vector-engine packed speedup vs python engine: {engine:.2f}x")
    lazy = current.get("lazy_decode", {})
    if lazy:
        print(
            f"lazy decode (rejecting workload): "
            f"{lazy.get('bytes_skipped', 0)} bytes skipped, "
            f"skip fraction {lazy.get('decode_skip_fraction', 0.0):.2f}"
        )
    dispatch = current.get("dispatch", {})
    if dispatch:
        print(
            f"measured dispatch (ungated): {dispatch.get('inline_rounds', 0)} "
            f"rounds inline / {dispatch.get('pool_rounds', 0)} pooled above "
            f"the floor of {dispatch.get('floor', 0)}"
        )
        for width, row in dispatch.get("per_class", {}).items():
            sides = ", ".join(
                f"{side} {row[f'{side}_us_per_gate']:.2f} us/gate x "
                f"{row[f'{side}_rounds']}"
                for side in ("inline", "pool")
                if f"{side}_rounds" in row
            )
            print(f"  width class {width:>2}: {sides}")
    service = current.get("service", {})
    if service:
        speedup = service.get("hit_speedup_vs_oracle", 0.0)
        verdict = "OK" if speedup >= CACHE_HIT_SPEEDUP_MIN else "REGRESSION"
        print(
            f"segment cache: hits resolve in "
            f"{service.get('cache_hit_seconds_per_segment', 0.0) * 1e6:.0f} "
            f"us/segment vs "
            f"{service.get('oracle_seconds_per_segment', 0.0) * 1e6:.0f} "
            f"us/segment oracle ({speedup:.1f}x, floor "
            f"{CACHE_HIT_SPEEDUP_MIN:.0f}x) -> {verdict}"
        )
        if speedup < CACHE_HIT_SPEEDUP_MIN:
            hard.append(
                f"service: warm cache hits resolve only {speedup:.1f}x faster "
                f"than oracle re-execution (floor {CACHE_HIT_SPEEDUP_MIN:.0f}x)"
            )

    if regressions and not same_class and not args.strict:
        print(
            "below floor, but the baseline was recorded on a different "
            f"runner class ({baseline.get('host')}); warn-only.  "
            "Re-baseline from this runner's artifact to arm the gate.",
            file=sys.stderr,
        )
        regressions = []
    failures = hard + regressions
    if failures:
        for line in failures:
            print(
                f"{line}; if intentional, re-baseline by committing the "
                "new JSON",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
