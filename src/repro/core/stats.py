"""Instrumentation for POPQC runs.

The evaluation section of the paper reports, beyond gate reductions:
round counts (Fig. 4), oracle-call counts and their linearity in n
(Fig. 7), the fraction of time spent inside the oracle (Fig. 8), and
parallel/self-speedup figures (Figs. 3 and 5).  All of those quantities
are collected here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RoundStats", "OptimizationStats"]


def _counter(name: str) -> property:
    """``OptimizationStats.counters[name]`` as an attribute, 0 when the
    run's executor does not count it."""
    return property(lambda stats: stats.counters.get(name, 0))


def _delta(after: dict, before: dict) -> dict:
    return {
        key: _delta(now, before.get(key, {}))
        if isinstance(now, dict)
        else now - before.get(key, 0)
        for key, now in after.items()
    }


@dataclass
class RoundStats:
    """Per-round accounting."""

    fingers: int = 0
    selected: int = 0
    accepted: int = 0
    oracle_time: float = 0.0
    admin_time: float = 0.0
    #: Parent-side segment serialization time of this round's oracle
    #: map: the round's growth of the executor's ``serialization_time``
    #: counter (byte transports; 0 otherwise).  A *subset* of
    #: ``oracle_time``, which times the whole map call.
    serialization_time: float = 0.0
    #: Simulated p-worker makespan of this round's oracle map: the
    #: round's growth of the ``simulated_elapsed`` counter
    #: (SimulatedParallelism only; 0 otherwise).
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
    #: Parent-side segment serialization time summed over rounds (byte
    #: transports; 0 otherwise).  A *subset* of
    #: ``oracle_time``: the oracle map is timed end to end, so
    #: ``oracle_fraction`` and ``serialization_fraction`` overlap by
    #: this amount.
    serialization_time: float = 0.0
    #: Oracle transport the run used: ``"inline"`` (objects passed
    #: within the process), ``"encoded"``, ``"shm"``, ``"threads"``,
    #: ``"pickle"`` or ``"socket"``.
    transport: str = "inline"
    #: This run's share of the executor's ``counters()`` — the
    #: difference between the mapping at the end of the run and at its
    #: start, so one executor can serve many runs.  Which keys exist
    #: depends on the executor: dispatch and lazy-decode counts on a
    #: :class:`~repro.parallel.ProcessMap`, plus its transport's
    #: (arena reuse, thread seconds, socket bytes and the per-host
    #: ``{address: n}`` figures) and, for a served job, its cache
    #: front's; the properties below name the ones other code reads.
    counters: dict = field(default_factory=dict)
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

    #: Lazy-decode accounting (byte-carrying transports): oracle results
    #: returned vs. results whose gates were ever decoded.  The gap is
    #: work the acceptance test skipped by rejecting on ``len()`` alone.
    results_returned = _counter("results_returned")
    results_decoded = _counter("results_decoded")
    #: Segment-result-cache accounting (a run's memo, and a served
    #: job's cache front): segments answered from either vs. dispatched
    #: to the oracle, the packed result bytes the hits replayed, and the
    #: seconds spent on fingerprints and lookups.
    cache_hits = _counter("cache_hits")
    cache_misses = _counter("cache_misses")
    cache_bytes_saved = _counter("cache_bytes_saved")
    cache_lookup_seconds = _counter("cache_lookup_seconds")

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of oracle segments answered by the result cache."""
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return self.cache_hits / total

    @property
    def oracle_calls_saved(self) -> int:
        """Oracle invocations answered by the run's memo (a
        ``deterministic`` oracle's, or a daemon's) or a served job's
        content cache.

        ``oracle_calls`` counts *selected* segments (the paper's Fig. 7
        quantity); only ``oracle_calls - oracle_calls_saved`` of them
        actually reached the oracle.
        """
        return self.cache_hits

    @property
    def parallel_time(self) -> float:
        """Estimated p-worker wall time.

        Oracle work is charged at its per-round simulated makespan when
        available; administrative work is charged serially
        (conservative).  Equals ``total_time`` for serial runs.
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

    def record_counters(self, before: dict, after: dict) -> None:
        """Keep this run's share of the executor's counters (``after``
        minus ``before``, per-host mappings address by address), and
        correct ``transport`` to ``"inline"`` when every round fell
        below the executor's serial cutoff and nothing ever crossed a
        process boundary."""
        self.counters = _delta(after, before)
        if self.counters.get("pool_dispatches", 1) == 0:
            self.transport = "inline"

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.initial_gates} -> {self.final_gates} gates "
            f"({100.0 * self.gate_reduction:.1f}% reduction), "
            f"{self.rounds} rounds, {self.oracle_calls} oracle calls, "
            f"{self.total_time:.3f}s total ({100.0 * self.oracle_fraction:.0f}% oracle)"
        )
