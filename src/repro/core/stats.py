"""Instrumentation for POPQC runs.

The evaluation section of the paper reports, beyond gate reductions:
round counts (Fig. 4), oracle-call counts and their linearity in n
(Fig. 7), the fraction of time spent inside the oracle (Fig. 8), and
parallel/self-speedup figures (Figs. 3 and 5).  All of those quantities
are collected here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "RoundStats",
    "OptimizationStats",
    "record_transport",
    "finalize_transport",
]


@dataclass
class RoundStats:
    """Per-round accounting."""

    fingers: int = 0
    selected: int = 0
    accepted: int = 0
    oracle_time: float = 0.0
    admin_time: float = 0.0
    #: Parent-side segment encode/decode time for this round's oracle
    #: map (persistent-worker encoded transport only; 0 otherwise).
    #: A *subset* of ``oracle_time``, which times the whole oracle map
    #: call including this encode/decode.
    serialization_time: float = 0.0
    #: Simulated p-worker makespan of this round's oracle map (only when
    #: the executor is a SimulatedParallelism; 0 otherwise).
    oracle_makespan: float = 0.0


@dataclass
class OptimizationStats:
    """Whole-run accounting returned alongside the optimized circuit."""

    initial_gates: int = 0
    final_gates: int = 0
    initial_cost: float = 0.0
    final_cost: float = 0.0
    rounds: int = 0
    oracle_calls: int = 0
    oracle_accepted: int = 0
    oracle_time: float = 0.0
    admin_time: float = 0.0
    total_time: float = 0.0
    #: Parent-side segment encode/decode time summed over rounds
    #: (persistent-worker encoded transport only; 0 otherwise).  A
    #: *subset* of ``oracle_time``: the oracle map is timed end to end,
    #: encode/decode included, so ``oracle_fraction`` and
    #: ``serialization_fraction`` overlap by this amount.
    serialization_time: float = 0.0
    #: Oracle transport the run used: ``"inline"`` (objects passed
    #: within the process), ``"encoded"``, ``"shm"``, ``"threads"`` or
    #: ``"pickle"``.
    transport: str = "inline"
    #: Capacity of the executor's shared-memory arena ring when the run
    #: finished (shm transport only): the memory the run's rounds were
    #: served from, whether freshly allocated or recycled.
    shm_arena_bytes: int = 0
    #: Arena-ring behaviour during the run: blocks created vs. rounds
    #: served by recycling an existing block.
    shm_block_allocs: int = 0
    shm_block_reuses: int = 0
    #: Batched-dispatch accounting (shm transport only): pool tasks
    #: dispatched and segments they carried.
    batch_dispatches: int = 0
    segments_batched: int = 0
    #: Lazy-decode accounting (byte-carrying transports): oracle
    #: results returned vs. results whose gates were ever decoded, and
    #: the wire bytes of each.  The gap is work the acceptance test
    #: skipped by rejecting on ``len()`` alone.
    results_returned: int = 0
    results_decoded: int = 0
    result_bytes_returned: int = 0
    result_bytes_decoded: int = 0
    #: Threads-transport accounting: summed per-task oracle seconds
    #: vs. pool wall seconds.  Their ratio estimates effective thread
    #: concurrency (1.0 = fully GIL-bound).
    thread_task_seconds: float = 0.0
    thread_wall_seconds: float = 0.0
    #: Socket-transport accounting: frame bytes on the wire in each
    #: direction and reconnect-and-requeue cycles after host failures.
    socket_bytes_sent: int = 0
    socket_bytes_received: int = 0
    socket_reconnects: int = 0
    #: Per-host throughput of the socket transport: address →
    #: ``{"segments", "seconds", "segments_per_s", "capacity"}`` for
    #: this run.
    socket_hosts: dict = field(default_factory=dict)
    #: Segment-result-cache accounting (executors constructed with a
    #: :class:`repro.service.cache.SegmentCache`): segments answered
    #: from the cache vs. dispatched to the oracle, the packed result
    #: bytes the hits replayed, and the parent-side seconds spent on
    #: fingerprints and lookups.  Every hit is an oracle call saved.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bytes_saved: int = 0
    cache_lookup_seconds: float = 0.0
    #: Sum of per-round simulated makespans (SimulatedParallelism only).
    simulated_oracle_time: float = 0.0
    #: Worker count of the executor used.
    workers: int = 1
    per_round: list[RoundStats] = field(default_factory=list)

    # -- derived quantities -------------------------------------------------

    @property
    def gate_reduction(self) -> float:
        """Fractional gate-count reduction, the paper's quality metric."""
        if self.initial_gates == 0:
            return 0.0
        return 1.0 - self.final_gates / self.initial_gates

    @property
    def oracle_fraction(self) -> float:
        """Fraction of total time spent inside the oracle (Fig. 8)."""
        if self.total_time <= 0.0:
            return 0.0
        return self.oracle_time / self.total_time

    @property
    def serialization_fraction(self) -> float:
        """Fraction of total time spent encoding/decoding segments."""
        if self.total_time <= 0.0:
            return 0.0
        return self.serialization_time / self.total_time

    @property
    def arena_reuse_rate(self) -> float:
        """Fraction of arena acquisitions served by recycling a block."""
        total = self.shm_block_allocs + self.shm_block_reuses
        if total == 0:
            return 0.0
        return self.shm_block_reuses / total

    @property
    def mean_batch_size(self) -> float:
        """Average segments per dispatched pool task (shm transport)."""
        if self.batch_dispatches == 0:
            return 0.0
        return self.segments_batched / self.batch_dispatches

    @property
    def skipped_decode_bytes(self) -> int:
        """Result wire bytes whose per-gate decode never ran."""
        return self.result_bytes_returned - self.result_bytes_decoded

    @property
    def decode_skip_fraction(self) -> float:
        """Fraction of returned oracle results that were never decoded."""
        if self.results_returned == 0:
            return 0.0
        return 1.0 - self.results_decoded / self.results_returned

    @property
    def socket_wire_bytes(self) -> int:
        """Total frame bytes the socket transport moved, both directions."""
        return self.socket_bytes_sent + self.socket_bytes_received

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of oracle segments answered by the result cache."""
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return self.cache_hits / total

    @property
    def oracle_calls_saved(self) -> int:
        """Oracle invocations the result cache short-circuited.

        ``oracle_calls`` counts *selected* segments (the paper's Fig. 7
        quantity); with a cache, only ``oracle_calls -
        oracle_calls_saved`` of them actually reached the oracle.
        """
        return self.cache_hits

    @property
    def thread_concurrency(self) -> float:
        """Effective parallelism of the threads transport.

        Summed per-task oracle seconds divided by pool wall seconds:
        ~1.0 when the oracle holds the GIL throughout, approaching the
        worker count when it releases the GIL (numpy-heavy oracles).
        0.0 when the threads transport was not used.
        """
        if self.thread_wall_seconds <= 0.0:
            return 0.0
        return self.thread_task_seconds / self.thread_wall_seconds

    @property
    def gil_release_fraction(self) -> float:
        """Normalized :attr:`thread_concurrency` in ``[0, 1]``.

        0 means the oracle was fully GIL-bound (or threads were not
        used / only one worker); 1 means the pool ran at full
        parallelism.  An estimate, not a measurement of GIL state.
        """
        if self.workers <= 1 or self.thread_wall_seconds <= 0.0:
            return 0.0
        frac = (self.thread_concurrency - 1.0) / (self.workers - 1.0)
        return min(1.0, max(0.0, frac))

    @property
    def total_fingers(self) -> int:
        """Sum of finger-set sizes across rounds (Lemma 3's quantity)."""
        return sum(r.fingers for r in self.per_round)

    @property
    def parallel_time(self) -> float:
        """Estimated p-worker wall time.

        Oracle work is charged at its per-round simulated makespan when
        available; administrative work is charged serially (conservative
        — see DESIGN.md).  Equals ``total_time`` for serial runs.
        """
        if self.simulated_oracle_time > 0.0:
            return self.admin_time + self.simulated_oracle_time
        return self.total_time

    @property
    def self_speedup(self) -> float:
        """Serial-time / parallel-time ratio for this run."""
        par = self.parallel_time
        if par <= 0.0:
            return 1.0
        return self.total_time / par

    def add_round(self, r: RoundStats) -> None:
        """Count one finished round into the run totals."""
        self.rounds += 1
        self.oracle_calls += r.selected
        self.oracle_accepted += r.accepted
        self.oracle_time += r.oracle_time
        self.admin_time += r.admin_time
        self.serialization_time += r.serialization_time
        self.simulated_oracle_time += r.oracle_makespan
        self.per_round.append(r)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.initial_gates} -> {self.final_gates} gates "
            f"({100.0 * self.gate_reduction:.1f}% reduction), "
            f"{self.rounds} rounds, {self.oracle_calls} oracle calls, "
            f"{self.total_time:.3f}s total ({100.0 * self.oracle_fraction:.0f}% oracle)"
        )


#: Executor counters snapshotted around a run so per-run deltas can be
#: reported even when one executor serves many runs.
_TRANSPORT_COUNTERS = (
    "pool_dispatches",
    "batch_dispatches",
    "segments_batched",
    "arena_allocations",
    "arena_reuses",
    "results_returned",
    "results_decoded",
    "result_bytes_returned",
    "result_bytes_decoded",
    "thread_task_seconds",
    "thread_wall_seconds",
    "socket_bytes_sent",
    "socket_bytes_received",
    "socket_reconnects",
    "cache_hits",
    "cache_misses",
    "cache_bytes_saved",
    "cache_lookup_seconds",
)

#: Per-host dict counters snapshotted alongside the scalar ones; the
#: per-run delta becomes ``OptimizationStats.socket_hosts``.
_HOST_COUNTERS = ("socket_host_segments", "socket_host_seconds")


def record_transport(stats: OptimizationStats, pmap: object) -> object:
    """Label ``stats.transport`` with the executor's wire format
    (``"inline"`` for executors that have none) and snapshot the
    executor's transport counters.

    The returned snapshot goes to :func:`finalize_transport`, which
    turns the counter deltas into per-run statistics.
    """
    stats.transport = getattr(pmap, "transport", "inline")
    snapshot = {
        name: getattr(pmap, name)
        for name in _TRANSPORT_COUNTERS
        if hasattr(pmap, name)
    }
    for name in _HOST_COUNTERS:
        if hasattr(pmap, name):
            snapshot[name] = dict(getattr(pmap, name))
    return snapshot


def finalize_transport(
    stats: OptimizationStats, pmap: object, snapshot: object
) -> None:
    """Fold the executor's counter deltas since ``snapshot`` into
    ``stats``, and correct ``stats.transport`` to ``"inline"`` when
    every round fell below the executor's serial cutoff and nothing
    ever crossed a process boundary."""
    if not isinstance(snapshot, dict):
        return
    delta = {
        name: getattr(pmap, name) - before
        for name, before in snapshot.items()
        if name not in _HOST_COUNTERS
    }
    if (
        stats.transport != "inline"
        and "pool_dispatches" in delta
        and delta["pool_dispatches"] == 0
    ):
        stats.transport = "inline"
    stats.batch_dispatches = delta.get("batch_dispatches", 0)
    stats.segments_batched = delta.get("segments_batched", 0)
    stats.shm_block_allocs = delta.get("arena_allocations", 0)
    stats.shm_block_reuses = delta.get("arena_reuses", 0)
    stats.results_returned = delta.get("results_returned", 0)
    stats.results_decoded = delta.get("results_decoded", 0)
    stats.result_bytes_returned = delta.get("result_bytes_returned", 0)
    stats.result_bytes_decoded = delta.get("result_bytes_decoded", 0)
    stats.thread_task_seconds = delta.get("thread_task_seconds", 0.0)
    stats.thread_wall_seconds = delta.get("thread_wall_seconds", 0.0)
    stats.socket_bytes_sent = delta.get("socket_bytes_sent", 0)
    stats.socket_bytes_received = delta.get("socket_bytes_received", 0)
    stats.socket_reconnects = delta.get("socket_reconnects", 0)
    stats.cache_hits = delta.get("cache_hits", 0)
    stats.cache_misses = delta.get("cache_misses", 0)
    stats.cache_bytes_saved = delta.get("cache_bytes_saved", 0)
    stats.cache_lookup_seconds = delta.get("cache_lookup_seconds", 0.0)
    if "socket_host_segments" in snapshot:
        seg_before = snapshot["socket_host_segments"]
        sec_before = snapshot.get("socket_host_seconds", {})
        seg_now = getattr(pmap, "socket_host_segments", {})
        sec_now = getattr(pmap, "socket_host_seconds", {})
        cap_now = getattr(pmap, "socket_host_capacity", {})
        hosts = {}
        for addr, segs in seg_now.items():
            d_segs = segs - seg_before.get(addr, 0)
            d_secs = sec_now.get(addr, 0.0) - sec_before.get(addr, 0.0)
            if d_segs or d_secs:
                hosts[addr] = {
                    "segments": d_segs,
                    "seconds": d_secs,
                    "segments_per_s": d_segs / d_secs if d_secs > 0 else 0.0,
                    "capacity": cap_now.get(addr, 1),
                }
        stats.socket_hosts = hosts
    # capacity of the executor's arena ring, not a delta: a run served
    # entirely by recycled blocks still reports the memory it ran in
    stats.shm_arena_bytes = getattr(pmap, "arena_bytes", 0)
