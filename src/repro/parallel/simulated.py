"""Simulated parallelism: serial execution, parallel accounting.

The paper evaluates scaling on a 64-core machine.  This reproduction's
reference environment has a single core and a GIL, so *measured* wall
clock cannot exhibit the paper's speedups (repro band: 3/5).  Instead of
dropping the scaling experiments we simulate them:

* every task of a ``parmap`` is executed serially and individually timed;
* the executor then charges, for that round, the **makespan** that greedy
  list scheduling over ``workers`` virtual workers would achieve on those
  task durations (see :mod:`repro.parallel.scheduling`).

The per-round makespan plus the measured serial administrative time is
exactly the quantity bounded by the paper's span theorem
(O(r (lg n + S))), so self-speedup curves computed this way have the same
shape as the paper's Figures 3 and 5: rising with circuit size, limited
by round count and by per-round task-count/imbalance.

The executor accumulates simulated time across calls; the POPQC driver
reads it as the ``simulated_elapsed`` entry of
:meth:`SimulatedParallelism.counters`.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence, TypeVar

from .scheduling import greedy_makespan

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["SimulatedParallelism"]


class SimulatedParallelism:
    """A :class:`~repro.parallel.executor.ParallelMap` with virtual workers.

    Parameters
    ----------
    workers:
        Number of virtual workers the makespan accounting assumes.
    timer:
        Clock used to measure individual task durations; injectable for
        deterministic tests.
    """

    def __init__(
        self,
        workers: int,
        timer: Callable[[], float] = time.perf_counter,
        record_durations: bool = False,
    ):
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
        self._timer = timer
        #: Accumulated simulated parallel time over all map() calls.
        self.simulated_elapsed = 0.0
        #: Accumulated serial time actually spent inside tasks.
        self.serial_elapsed = 0.0
        #: Per-call list of (task_count, serial_time, makespan) triples.
        self.round_log: list[tuple[int, float, float]] = []
        #: When record_durations=True, the raw per-task durations of each
        #: map() call; lets callers recompute makespans for *any* worker
        #: count from a single run (see experiments.figure3).
        self.record_durations = record_durations
        self.durations_log: list[list[float]] = []

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Run every task serially while accounting a p-worker makespan."""
        durations: list[float] = []
        results: list[R] = []
        for item in items:
            t0 = self._timer()
            results.append(fn(item))
            durations.append(self._timer() - t0)
        serial = sum(durations)
        makespan = greedy_makespan(durations, self.workers)
        self.serial_elapsed += serial
        self.simulated_elapsed += makespan
        self.round_log.append((len(items), serial, makespan))
        if self.record_durations:
            self.durations_log.append(durations)
        return results

    def counters(self) -> dict:
        """Accumulated simulated and serial task seconds (the
        :class:`~repro.parallel.SegmentExecutor` counters seam)."""
        return {
            "simulated_elapsed": self.simulated_elapsed,
            "serial_elapsed": self.serial_elapsed,
        }

    def makespan_for(self, workers: int) -> float:
        """Total makespan the recorded rounds would take on ``workers``
        virtual workers.  Requires ``record_durations=True``."""
        if not self.record_durations:
            raise ValueError("construct with record_durations=True")
        return sum(greedy_makespan(d, workers) for d in self.durations_log)

    def close(self) -> None:
        """No pooled resources; nothing to release."""
        return None

    def reset(self) -> None:
        """Clear accumulated accounting (between experiments)."""
        self.simulated_elapsed = 0.0
        self.serial_elapsed = 0.0
        self.round_log.clear()
        self.durations_log.clear()

    @property
    def speedup(self) -> float:
        """Ratio of serial task time to simulated parallel time so far."""
        if self.simulated_elapsed == 0.0:
            return 1.0
        return self.serial_elapsed / self.simulated_elapsed

    def __repr__(self) -> str:  # pragma: no cover
        return f"SimulatedParallelism(workers={self.workers})"
