"""Latency-SLO load harness for the optimization service.

The transport benchmarks measure *throughput per round*; a service
for interactive traffic is judged on p50/p99 **latency under
concurrent load**.  This module generates that load: it replays
deterministic traffic mixes — benchgen families at configurable
arrival rates, priority distributions and duplicate-circuit fractions
— against a live ``popqc serve`` daemon over N concurrent
:class:`~repro.service.client.ServiceClient` connections, records
per-job submit→result latency, and aggregates latency percentiles,
cache-hit-rate trajectories, BUSY-rejection counts and throughput
into the machine-readable ``BENCH_service_load.json`` record
(:data:`SCHEMA`, gated in CI by ``benchmarks/check_bench_trend.py``).

Determinism is the load harness's core contract: a
:class:`TrafficMix` plus a master seed expands into a fixed
:func:`build_schedule` — arrival offsets, family picks, per-circuit
seeds, priorities and duplicate links — and every circuit is built
from an *explicit* ``random.Random`` derived from that schedule (the
benchgen generators take ``rng=``; no module-level randomness
anywhere).  Two runs with the same seed therefore submit **byte-for-
byte identical traffic**; :func:`schedule_manifest` serializes that
traffic (with canonical circuit fingerprints) so the property is
checkable from the CLI: ``popqc bench serve --print-schedule``.

The standard SLO suite (:func:`run_slo_suite`) runs three phases
against one server:

1. ``cold`` — unique circuits only; every segment pays the oracle the
   first time it is seen.
2. ``warm`` — duplicate-heavy traffic: a small unique pool followed
   by replays that resolve from the content-addressed segment cache.
   The gated SLO: the duplicate traffic's p50 must be at least
   :data:`WARM_P50_SPEEDUP_MIN` times lower than cold p50 — the
   cache's latency benefit, pinned as a ratio so it is
   hardware-independent.
3. ``flood`` + ``interactive`` concurrently — a low-priority batch
   flood of large circuits while small high-priority submits arrive
   mid-flood.  The gated SLO: interactive p99 must stay below
   :data:`INTERACTIVE_P99_OVER_FLOOD_P50_MAX` times the flood p50,
   turning the weighted-fair starvation test into a measured bound.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

from ..benchgen import generate, generate_params
from ..circuits import Circuit
from ..circuits.encoding import (
    encode_segment,
    pack_segment,
    segment_fingerprint,
)
from .client import ServiceClient
from .frames import ServiceBusyError

__all__ = [
    "INTERACTIVE_P99_OVER_FLOOD_P50_MAX",
    "SCHEMA",
    "WARM_P50_SPEEDUP_MIN",
    "JobOutcome",
    "LoadReport",
    "MixReport",
    "ScheduledJob",
    "TrafficMix",
    "build_circuits",
    "build_schedule",
    "circuit_digest",
    "default_mixes",
    "percentile",
    "run_load",
    "run_slo_suite",
    "schedule_manifest",
]

#: Schema tag of the emitted ``BENCH_service_load.json`` record.
SCHEMA = "popqc-bench-service-load/v1"

#: Gated SLO: the warm mix's duplicate (cache-hit) traffic must show
#: a p50 at least this many times lower than the cold mix's p50 (the
#: segment cache's latency benefit as a hardware-independent ratio).
#: A hit saves the oracle's share of a job, so the floor follows the
#: oracle's cost: 2.0 while that share was ~85 %, 1.3 since the
#: one-index rule engine brought it to ~55-65 % (measured 2.0-3.3x).
WARM_P50_SPEEDUP_MIN = 1.3

#: Gated SLO: high-priority interactive submits injected during a
#: batch flood must keep their p99 below this multiple of the flood
#: jobs' p50 (the weighted-fair scheduler's starvation bound).
INTERACTIVE_P99_OVER_FLOOD_P50_MAX = 1.0


@dataclass(frozen=True)
class TrafficMix:
    """One recorded traffic mix: what to submit, how fast, how skewed.

    Attributes
    ----------
    name:
        Mix label; also salts the mix's RNG stream, so two mixes with
        the same parameters but different names carry different
        circuits.
    families:
        Pool of ``(family, spec)`` pairs, where ``spec`` is either a
        registry size index (``int``) or a mapping of explicit
        generator parameters.  Jobs draw families *stratified*: each
        consecutive block of ``len(families)`` jobs covers every
        family exactly once in RNG-shuffled order, so a mix's latency
        percentiles don't swing with one seed's family luck.
    jobs:
        Number of jobs in the mix.
    arrival_rate_jobs_per_s:
        Open-loop Poisson arrival rate; ``0`` disables pacing (every
        job is eligible immediately — a closed loop over the mix's
        clients).
    duplicate_fraction:
        Probability that a job replays the circuit of an earlier job
        in the same mix (cache-hit traffic).  Duplicate links always
        point at the original, never at another duplicate.
    unique_pool:
        When set, the first ``unique_pool`` jobs are unique and every
        later job duplicates a uniformly chosen pool member
        (``duplicate_fraction`` is ignored).  Because clients drain
        the schedule in order, the pool completes before its replays
        start — the shape that isolates pure cache-hit latency.
    priorities:
        ``(priority, weight)`` distribution jobs draw from; priority
        is the weighted-fair share presented to the server.
    omega:
        Ω submitted with every job.
    clients:
        Concurrent :class:`ServiceClient` connections replaying this
        mix.
    """

    name: str
    families: tuple
    jobs: int
    arrival_rate_jobs_per_s: float = 0.0
    duplicate_fraction: float = 0.0
    unique_pool: Optional[int] = None
    priorities: tuple = ((1, 1.0),)
    omega: int = 100
    clients: int = 2


@dataclass(frozen=True)
class ScheduledJob:
    """One deterministic slot of a mix's schedule.

    ``at_seconds`` is the arrival offset from the run start;
    ``circuit_seed`` fully determines the circuit (through an explicit
    ``random.Random``), and ``duplicate_of`` marks a replay of an
    earlier job's circuit instead.
    """

    index: int
    at_seconds: float
    family: str
    spec: Any
    circuit_seed: int
    priority: int
    duplicate_of: Optional[int]


@dataclass
class JobOutcome:
    """What one submitted job came back with (or failed with)."""

    mix: str
    index: int
    priority: int
    scheduled_at: float
    queue_delay_seconds: float
    latency_seconds: float
    duplicate: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    busy_rejections: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the job completed with a RESULT frame."""
        return self.error is None


def build_schedule(mix: TrafficMix, seed: int) -> list[ScheduledJob]:
    """Expand ``mix`` into its deterministic job schedule.

    All randomness — inter-arrival gaps, family picks, per-circuit
    seeds, priorities, duplicate links — comes from one
    ``random.Random`` seeded by ``(seed, mix.name)``, so the same
    arguments always return the same schedule, on any machine.
    """
    master = random.Random(f"popqc-loadgen/{seed}/{mix.name}")
    priorities = [int(p) for p, _ in mix.priorities]
    weights = [float(w) for _, w in mix.priorities]
    jobs: list[ScheduledJob] = []
    at = 0.0
    block: list = []
    for i in range(mix.jobs):
        if mix.arrival_rate_jobs_per_s > 0:
            at += master.expovariate(mix.arrival_rate_jobs_per_s)
        # stratified family draw: each consecutive block of
        # len(families) jobs covers every family exactly once, in
        # RNG-shuffled order — random-looking traffic whose latency
        # percentiles don't swing with the seed's family luck
        if not block:
            block = list(mix.families)
            master.shuffle(block)
        family, spec = block.pop()
        circuit_seed = master.getrandbits(48)
        priority = master.choices(priorities, weights=weights)[0]
        duplicate_of: Optional[int] = None
        if mix.unique_pool is not None:
            if i >= mix.unique_pool:
                duplicate_of = master.randrange(min(mix.unique_pool, len(jobs)))
        elif jobs and master.random() < mix.duplicate_fraction:
            target = master.randrange(len(jobs))
            # chase one link so duplicates always point at an original
            root = jobs[target].duplicate_of
            duplicate_of = target if root is None else root
        if duplicate_of is not None:
            original = jobs[duplicate_of]
            family, spec = original.family, original.spec
            circuit_seed = original.circuit_seed
        jobs.append(
            ScheduledJob(
                index=i,
                at_seconds=at,
                family=family,
                spec=spec,
                circuit_seed=circuit_seed,
                priority=priority,
                duplicate_of=duplicate_of,
            )
        )
    return jobs


def _build_one(job: ScheduledJob) -> Circuit:
    """Build ``job``'s circuit from its explicit derived RNG."""
    rng = random.Random(job.circuit_seed)
    if isinstance(job.spec, Mapping):
        return generate_params(job.family, rng=rng, **dict(job.spec))
    return generate(job.family, int(job.spec), rng=rng)


def build_circuits(schedule: Sequence[ScheduledJob]) -> list[Circuit]:
    """Materialize every scheduled circuit (duplicates share objects).

    Generation happens up front so circuit construction never pollutes
    the measured submit→result latencies.
    """
    circuits: list[Circuit] = []
    for job in schedule:
        if job.duplicate_of is not None:
            circuits.append(circuits[job.duplicate_of])
        else:
            circuits.append(_build_one(job))
    return circuits


def circuit_digest(circuit: Circuit) -> str:
    """Canonical content fingerprint of a circuit's packed wire bytes.

    The same digest the segment cache keys on (unscoped): equal gate
    lists hash equal on every platform, making schedule manifests
    byte-comparable across runs and machines.
    """
    return segment_fingerprint(pack_segment(encode_segment(list(circuit.gates))))


def schedule_manifest(mixes: Sequence[TrafficMix], seed: int) -> str:
    """Canonical JSON of the full traffic a seeded run will submit.

    Two calls with the same mixes and seed return identical bytes —
    the load harness's reproducibility contract, asserted in CI and
    checkable by hand via ``popqc bench serve --print-schedule``.
    """
    manifest: dict[str, Any] = {"schema": SCHEMA + "+schedule", "seed": seed}
    mix_entries: dict[str, Any] = {}
    for mix in mixes:
        schedule = build_schedule(mix, seed)
        circuits = build_circuits(schedule)
        mix_entries[mix.name] = [
            {
                "index": job.index,
                "at_seconds": round(job.at_seconds, 9),
                "family": job.family,
                "spec": dict(job.spec)
                if isinstance(job.spec, Mapping)
                else job.spec,
                "circuit_seed": job.circuit_seed,
                "priority": job.priority,
                "duplicate_of": job.duplicate_of,
                "num_gates": circuits[job.index].num_gates,
                "num_qubits": circuits[job.index].num_qubits,
                "digest": circuit_digest(circuits[job.index]),
            }
            for job in schedule
        ]
    manifest["mixes"] = mix_entries
    return json.dumps(manifest, sort_keys=True, indent=2) + "\n"


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Matches ``numpy.percentile``'s default method; returns 0.0 for an
    empty sequence so reports of failed mixes stay well-formed.
    """
    if not values:
        return 0.0
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * (q / 100.0)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[int(rank)]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


@dataclass
class MixReport:
    """Aggregated outcomes of one mix's replay."""

    name: str
    scheduled: int
    outcomes: list = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def completed(self) -> list:
        """Outcomes that came back with a RESULT frame."""
        return [o for o in self.outcomes if o.ok]

    @property
    def failed(self) -> list:
        """Outcomes that errored (BUSY exhaustion included)."""
        return [o for o in self.outcomes if not o.ok]

    @property
    def latencies(self) -> list[float]:
        """Submit→result seconds of completed jobs, completion order."""
        return [o.latency_seconds for o in self.completed]

    @property
    def duplicate_latencies(self) -> list[float]:
        """Latencies of completed duplicate (replayed-circuit) jobs —
        the pure cache-hit traffic of a warm mix, excluding its
        cache-warming unique pool."""
        return [o.latency_seconds for o in self.completed if o.duplicate]

    @property
    def cache_hit_rate(self) -> float:
        """Aggregate segment-cache hit rate across completed jobs."""
        hits = sum(o.cache_hits for o in self.completed)
        misses = sum(o.cache_misses for o in self.completed)
        return hits / (hits + misses) if hits + misses else 0.0

    def cache_hit_trajectory(self, buckets: int = 6) -> list[dict]:
        """Hit rate over the run: completed jobs (in completion order)
        split into up to ``buckets`` contiguous windows, each reporting
        its aggregate hit rate — how the cache warms as traffic flows.
        """
        done = self.completed
        if not done:
            return []
        buckets = max(1, min(buckets, len(done)))
        size = len(done) / buckets
        out = []
        for b in range(buckets):
            window = done[int(b * size) : int((b + 1) * size)]
            if not window:
                continue
            hits = sum(o.cache_hits for o in window)
            misses = sum(o.cache_misses for o in window)
            out.append(
                {
                    "jobs": len(window),
                    "hit_rate": hits / (hits + misses)
                    if hits + misses
                    else 0.0,
                }
            )
        return out

    def as_dict(self, trajectory_buckets: int = 6) -> dict:
        """This mix's section of the ``BENCH_service_load.json`` record."""
        lat = self.latencies
        completed = self.completed
        priorities: dict[str, int] = {}
        for o in self.outcomes:
            priorities[str(o.priority)] = priorities.get(str(o.priority), 0) + 1
        return {
            "jobs_scheduled": self.scheduled,
            "jobs_completed": len(completed),
            "jobs_failed": len(self.failed),
            "busy_rejections": sum(o.busy_rejections for o in self.outcomes),
            "latency_seconds": {
                "p50": percentile(lat, 50),
                "p90": percentile(lat, 90),
                "p99": percentile(lat, 99),
                "mean": sum(lat) / len(lat) if lat else 0.0,
                "max": max(lat) if lat else 0.0,
            },
            "queue_delay_seconds": {
                "p50": percentile(
                    [o.queue_delay_seconds for o in completed], 50
                ),
                "max": max(
                    (o.queue_delay_seconds for o in completed), default=0.0
                ),
            },
            "duplicate_latency_seconds": {
                "count": len(self.duplicate_latencies),
                "p50": percentile(self.duplicate_latencies, 50),
                "p99": percentile(self.duplicate_latencies, 99),
            },
            "throughput_jobs_per_s": len(completed) / self.wall_seconds
            if self.wall_seconds > 0
            else 0.0,
            "wall_seconds": self.wall_seconds,
            "cache": {
                "hit_rate": self.cache_hit_rate,
                "trajectory": self.cache_hit_trajectory(trajectory_buckets),
            },
            "priorities": priorities,
            "errors": sorted({o.error for o in self.failed if o.error}),
        }


@dataclass
class LoadReport:
    """Everything one :func:`run_load` call measured."""

    mixes: dict
    wall_seconds: float


def _replay_worker(
    address: str,
    mix: TrafficMix,
    schedule: Sequence[ScheduledJob],
    circuits: Sequence[Circuit],
    next_index: Callable[[], Optional[int]],
    report: MixReport,
    started: threading.Event,
    start_at: list,
    lock: threading.Lock,
    auth_token: Optional[str],
    time_scale: float,
    busy_retries: int,
    pool_done: threading.Event,
) -> None:
    """One client connection draining its mix's schedule in order."""
    client = ServiceClient(
        address,
        auth_token=auth_token,
        busy_retries=busy_retries,
        busy_backoff_seconds=0.02,
        busy_backoff_max_seconds=0.5,
    )
    try:
        started.wait()
        while True:
            i = next_index()
            if i is None:
                return
            job = schedule[i]
            if job.duplicate_of is not None and mix.unique_pool is not None:
                # a unique_pool mix measures pure cache-hit latency:
                # hold every replay until the whole pool has completed
                # (with >1 client a replay could otherwise overlap an
                # in-flight pool original and miss the cache)
                pool_done.wait()
            target = start_at[0] + job.at_seconds * time_scale
            delay = target - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            queue_delay = max(0.0, time.monotonic() - target)
            busy_before = client.busy_rejections
            t0 = time.perf_counter()
            try:
                result = client.optimize(
                    circuits[i], omega=mix.omega, priority=job.priority
                )
            except Exception as exc:  # noqa: BLE001 - recorded, not raised
                outcome = JobOutcome(
                    mix=mix.name,
                    index=i,
                    priority=job.priority,
                    scheduled_at=job.at_seconds * time_scale,
                    queue_delay_seconds=queue_delay,
                    latency_seconds=time.perf_counter() - t0,
                    duplicate=job.duplicate_of is not None,
                    busy_rejections=client.busy_rejections - busy_before,
                    error=f"{type(exc).__name__}: {exc}",
                )
                if isinstance(exc, ServiceBusyError):
                    # the connection survives a BUSY refusal; other
                    # errors may have poisoned it, so reconnect
                    pass
                else:
                    client.close()
            else:
                outcome = JobOutcome(
                    mix=mix.name,
                    index=i,
                    priority=job.priority,
                    scheduled_at=job.at_seconds * time_scale,
                    queue_delay_seconds=queue_delay,
                    latency_seconds=time.perf_counter() - t0,
                    duplicate=job.duplicate_of is not None,
                    cache_hits=int(result.stats.get("cache_hits", 0)),
                    cache_misses=int(result.stats.get("cache_misses", 0)),
                    busy_rejections=client.busy_rejections - busy_before,
                )
            with lock:
                report.outcomes.append(outcome)
                if mix.unique_pool is not None and not pool_done.is_set():
                    pool = sum(
                        1
                        for o in report.outcomes
                        if o.index < mix.unique_pool
                    )
                    if pool >= min(mix.unique_pool, len(schedule)):
                        pool_done.set()
    finally:
        client.close()


def run_load(
    address: str,
    mixes: Sequence[TrafficMix],
    *,
    seed: int,
    auth_token: Optional[str] = None,
    time_scale: float = 1.0,
    busy_retries: int = 40,
) -> LoadReport:
    """Replay ``mixes`` concurrently against a live server.

    Each mix gets its own pool of ``mix.clients`` connections; all
    pools share one start instant, so concurrent mixes interleave on
    the server exactly as their schedules dictate (the flood +
    interactive scenario).  Per-job outcomes land in one
    :class:`MixReport` per mix.

    ``time_scale`` multiplies every arrival offset (compress a
    recorded mix for a quick soak, stretch it for a long one);
    ``busy_retries`` is each client's BUSY-absorption budget — every
    absorbed rejection is counted in the report either way.
    """
    lock = threading.Lock()
    started = threading.Event()
    start_at = [0.0]
    reports: dict[str, MixReport] = {}
    threads: list[threading.Thread] = []
    for mix in mixes:
        schedule = build_schedule(mix, seed)
        circuits = build_circuits(schedule)
        report = MixReport(name=mix.name, scheduled=len(schedule))
        reports[mix.name] = report
        pool_done = threading.Event()
        if mix.unique_pool is None:
            pool_done.set()
        counter = iter(range(len(schedule)))
        counter_lock = threading.Lock()

        def next_index(
            counter=counter, counter_lock=counter_lock
        ) -> Optional[int]:
            with counter_lock:
                return next(counter, None)

        for _ in range(max(1, mix.clients)):
            threads.append(
                threading.Thread(
                    target=_replay_worker,
                    args=(
                        address,
                        mix,
                        schedule,
                        circuits,
                        next_index,
                        report,
                        started,
                        start_at,
                        lock,
                        auth_token,
                        time_scale,
                        busy_retries,
                        pool_done,
                    ),
                    daemon=True,
                )
            )
    for thread in threads:
        thread.start()
    t0 = time.perf_counter()
    start_at[0] = time.monotonic()
    started.set()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    for report in reports.values():
        report.wall_seconds = wall
    return LoadReport(mixes=reports, wall_seconds=wall)


#: The small interactive probe circuit of the flood scenario: a few
#: hundred gates, so its latency is scheduler-bound, not oracle-bound.
_INTERACTIVE_SPEC = {"num_search_qubits": 4, "iterations": 2}


def default_mixes(
    smoke: bool = False, clients: int = 2
) -> dict[str, TrafficMix]:
    """The standard SLO suite's four mixes.

    ``smoke`` shrinks every mix for a ~10 s CI soak while keeping the
    same structure (unique-vs-duplicate split, flood + interactive
    overlap), so the smoke record exercises every schema field.
    ``clients`` sets the connection-pool width of the cold, warm and
    flood mixes (the interactive probe always runs one client — its
    SLO is about scheduling, not client-side parallelism).
    """
    # size index 1: big enough that a cold job is oracle-compute-bound
    # (a cache hit's fixed round-trip overhead would blur the warm
    # speedup ratio on size-0 circuits)
    families = (
        ("Grover", 1),
        ("Shor", 1),
        ("VQE", 1),
        ("HHL", 1),
        ("BoolSat", 1),
    )
    cold_jobs = 6 if smoke else 14
    # warm pool = one of every family (stratified), so the duplicate
    # traffic's p50 aggregates cache-hit latency over the same family
    # spread the cold p50 aggregates cold latency over
    warm_jobs = 12 if smoke else 15
    flood_spec = ("VQE", 1 if smoke else 2)
    flood_jobs = 2 if smoke else 4
    interactive_jobs = 4 if smoke else 6
    interactive_rate = 4.0 if smoke else 2.0
    return {
        "cold": TrafficMix(
            name="cold",
            families=families,
            jobs=cold_jobs,
            duplicate_fraction=0.0,
            clients=clients,
        ),
        "warm": TrafficMix(
            name="warm",
            families=families,
            jobs=warm_jobs,
            unique_pool=len(families),
            clients=clients,
        ),
        "flood": TrafficMix(
            name="flood",
            families=(flood_spec,),
            jobs=flood_jobs,
            priorities=((1, 1.0),),
            clients=clients,
        ),
        "interactive": TrafficMix(
            name="interactive",
            families=(("Grover", _INTERACTIVE_SPEC),),
            jobs=interactive_jobs,
            arrival_rate_jobs_per_s=interactive_rate,
            priorities=((8, 1.0),),
            clients=1,
        ),
    }


def _host_record() -> dict:
    """The environment fingerprint stamped into every record."""
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    }


def run_slo_suite(
    address: str,
    *,
    seed: int = 7,
    auth_token: Optional[str] = None,
    smoke: bool = False,
    time_scale: float = 1.0,
    trajectory_buckets: int = 6,
    clients: int = 2,
) -> dict:
    """Run the three-phase SLO suite and build the schema-v1 record.

    Phase 1 replays the ``cold`` mix (unique circuits), phase 2 the
    ``warm`` mix (duplicate-heavy), phase 3 the ``flood`` and
    ``interactive`` mixes concurrently — all against the same live
    server, whose cache therefore warms across phases exactly as a
    long-running deployment's would.

    The returned record carries per-mix latency percentiles and
    cache-hit trajectories, the derived SLO ratios, and the thresholds
    (``slo``) the CI gate enforces; see ``benchmarks/README.md`` for
    the field-by-field schema.
    """
    mixes = default_mixes(smoke, clients=clients)
    phases = (("cold",), ("warm",), ("flood", "interactive"))
    reports: dict[str, MixReport] = {}
    t0 = time.perf_counter()
    for phase in phases:
        result = run_load(
            address,
            [mixes[name] for name in phase],
            seed=seed,
            auth_token=auth_token,
            time_scale=time_scale,
        )
        reports.update(result.mixes)
    total_wall = time.perf_counter() - t0

    cold_p50 = percentile(reports["cold"].latencies, 50)
    # the warm SLO measures the cache-hit traffic itself: the
    # duplicate jobs' p50, not the mix's cache-warming unique pool
    warm_p50 = percentile(
        reports["warm"].duplicate_latencies or reports["warm"].latencies, 50
    )
    flood_p50 = percentile(reports["flood"].latencies, 50)
    interactive_p99 = percentile(reports["interactive"].latencies, 99)
    return {
        "schema": SCHEMA,
        # the one permitted wall-clock read in this module: a report
        # timestamp, never interval math — every duration above comes
        # from time.perf_counter()/time.monotonic()
        "generated_unix": time.time(),
        "host": _host_record(),
        "config": {
            "seed": seed,
            "smoke": smoke,
            "time_scale": time_scale,
            "phases": [list(p) for p in phases],
            "clients": {m.name: m.clients for m in mixes.values()},
            "jobs": {m.name: m.jobs for m in mixes.values()},
        },
        "mixes": {
            name: report.as_dict(trajectory_buckets)
            for name, report in reports.items()
        },
        "derived": {
            "warm_p50_speedup_vs_cold": cold_p50 / warm_p50
            if warm_p50 > 0
            else 0.0,
            "interactive_p99_over_flood_p50": interactive_p99 / flood_p50
            if flood_p50 > 0
            else 0.0,
            "total_wall_seconds": total_wall,
        },
        "slo": {
            "warm_p50_speedup_min": WARM_P50_SPEEDUP_MIN,
            "interactive_p99_over_flood_p50_max": (
                INTERACTIVE_P99_OVER_FLOOD_P50_MAX
            ),
        },
    }
