#!/usr/bin/env python
"""Gate the perf trajectory: compare a fresh ``BENCH_transport.json``
against the committed baseline.

CI's ``transport-trend`` job runs ``benchmarks/test_transport.py`` (which
writes the JSON record), uploads it as an artifact, then runs this
script.  Two sections are gated against the baseline:

* **serial-map throughput** — oracle work with no IPC in the loop, the
  most runner-noise-tolerant number in the record: a >20% drop means
  the oracle/codec hot path itself got slower, not that the runner was
  busy;
* **socket throughput** — the full frame-codec + dispatcher path over
  a localhost multi-worker cluster; loopback TCP on one machine is
  scheduler-noisy, so this gate gets double the tolerance and exists to
  catch protocol-level regressions (an extra copy per frame, a lost
  pipelining opportunity), not percent-level drift.

Records carrying a **service** section gate its warm-cache ratio:
hits must resolve ≥3x faster than oracle re-execution
(``hit_speedup_vs_oracle``; tier-1 asserts only that the warm pass is
all hits with zero oracle calls).  The gate is a ratio of two
measurements on the same machine, so it is *always* armed, even
against a baseline from a different runner class.

``--shapes FILE`` names a pytest-benchmark JSON (``pytest
benchmarks/test_table2.py benchmarks/test_table3.py
benchmarks/test_figure8.py --benchmark-json FILE``): the paper-shape
ratios those benchmarks record in ``extra_info`` — Table 2's
POPQC-vs-baseline speedup and Table 3's OAC/POPQC time ratio at two
sizes, Figure 8's oracle share per family by size — are two wall clocks
each, so tier-1 asserts only their behavioural halves and this script
prints them, says whether the paper's shape showed, and never gates on
them.

The remaining parallel-transport numbers are recorded for the
trajectory but not gated (2-vCPU shared runners make them races).

Usage::

    python benchmarks/check_bench_trend.py BENCH_transport.json \
        benchmarks/BENCH_transport_baseline.json [--tolerance 0.2] \
        [--shapes BENCH_shapes.json]

Exit status 1 on regression.  To re-baseline after an intentional
change, copy the fresh JSON over the baseline file in the same PR.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Floor on the transport record's ``service.hit_speedup_vs_oracle``:
#: a warm segment cache must resolve a repeated segment at least this
#: many times faster than re-running the oracle on it (was 10 while an
#: oracle call cost ~1 ms; the one-index rule engine cut that to ~0.3 ms
#: against an unchanged ~65 us hit).
CACHE_HIT_SPEEDUP_MIN = 3.0


def print_shapes(record: dict) -> None:
    """The informational lines for a pytest-benchmark record's
    paper-shape ratios (whatever of them it carries)."""
    for bench in record.get("benchmarks", []):
        info = bench.get("extra_info", {})
        speedup = info.get("popqc_speedup_by_size")
        if speedup:
            shape = "as" if speedup["large"] > speedup["small"] else "NOT as"
            print(
                f"table 2 (informational): POPQC/baseline speedup "
                f"{speedup['small']:.2f} small -> {speedup['large']:.2f} large "
                f"({shape} in the paper: the advantage grows with size)"
            )
        ratio = info.get("oac_over_popqc_time_ratio")
        if ratio:
            shape = "as" if ratio["large"] >= ratio["small"] else "NOT as"
            print(
                f"table 3 (informational): OAC/POPQC time ratio "
                f"{ratio['small']:.2f} small -> {ratio['large']:.2f} large "
                f"({shape} in the paper: POPQC overtakes with size)"
            )
        for family, shares in sorted(info.get("oracle_fraction_by_size", {}).items()):
            shape = "as" if shares[-1] >= shares[0] and min(shares) > 0.5 else "NOT as"
            print(
                f"figure 8 (informational): {family} oracle share "
                + " -> ".join(f"{share:.2f}" for share in shares)
                + f" by size ({shape} in the paper: most of the time, rising)"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "current", help="freshly generated benchmark record (JSON)"
    )
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional throughput drop for the serial gate "
        "(default 0.2 = 20%%; the socket gate doubles this)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on regression even when the baseline was recorded on "
        "different hardware (default: warn-only in that case, since "
        "absolute throughput does not compare across hosts)",
    )
    parser.add_argument(
        "--shapes",
        help="pytest-benchmark JSON of benchmarks/test_table2.py, "
        "test_table3.py and test_figure8.py; its wall-clock shape ratios "
        "are printed, never gated",
    )
    args = parser.parse_args(argv)

    if args.shapes:
        with open(args.shapes) as fh:
            print_shapes(json.load(fh))
    with open(args.current) as fh:
        current = json.load(fh)
    with open(args.baseline) as fh:
        baseline = json.load(fh)

    # runner-class fingerprint: vCPU count (kernel strings churn too
    # much to compare whole host records)
    same_class = current.get("host", {}).get("cpus") == baseline.get(
        "host", {}
    ).get("cpus")

    regressions: list[str] = []  # hardware-dependent: warn-only cross-class
    hard: list[str] = []  # ratio gates: armed regardless of runner class

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
