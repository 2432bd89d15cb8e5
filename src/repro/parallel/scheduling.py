"""Scheduling policies for the parallel executors.

Three concerns live here:

* **Makespan models** for the simulated-parallelism executor.  Greedy
  (Graham) list scheduling assigns each task, in arrival order, to the
  worker that becomes free first.  Its makespan is within 2x of optimal
  and — more importantly for our purposes — it models what a
  work-stealing fork-join runtime (Rayon in the paper's implementation)
  achieves on a parallel map whose iterations have heterogeneous costs.
* **Grain control** for the real process pool's by-value rounds:
  :class:`RoundCostModel` learns what a round costs in the parent and
  what it costs through the pool, per round width, and says which is
  cheaper.  Where a round runs depends on measured time and is not
  reproducible; what it returns does not.  An id round is a claim
  round instead, each stream taking the next segment as it frees up.
* **Batching** of the by-value rounds that do go to the pool.  A batch must be
  large enough that its dispatch overhead (pickle + pipe + wakeup) is
  amortized by useful oracle work, yet small enough that every worker
  gets several for load balancing.  :func:`adaptive_chunksize` resolves
  the width from the model's measured inline seconds per segment and
  :func:`batch_segments` cuts the round into contiguous batches of it —
  one pool task per batch instead of one per segment.
"""

from __future__ import annotations

import heapq
from typing import Optional, Sequence

__all__ = [
    "RoundCostModel",
    "adaptive_chunksize",
    "batch_segments",
    "greedy_makespan",
]

#: Estimated fixed cost of dispatching one chunk to a pool worker
#: (pickle framing, pipe write/read, scheduler wakeup) — conservative
#: for CPython's multiprocessing on Linux.
DISPATCH_OVERHEAD_SECONDS = 5e-4

#: Target chunks per worker when task times allow it; >1 gives the pool
#: slack to balance heterogeneous oracle calls (Graham's bound improves
#: as the longest chunk shrinks relative to the makespan).
CHUNKS_PER_WORKER = 4

#: Rounds of a width class between two probes of its dearer side: the
#: first interval, and the cap it doubles up to while the dearer side
#: stays dearer.
PROBE_INTERVAL = 16
MAX_PROBE_INTERVAL = 256


class RoundCostModel:
    """Where a round is cheaper: ``"inline"`` in the parent or through
    the ``"pool"``.

    Rounds are classed by width (``segments.bit_length()``).  Per class
    and side the model keeps an exponentially weighted mean of measured
    seconds per gate (:meth:`observe`) and how many rounds fed it;
    :meth:`choose` names the cheaper side, except that the dearer one is
    re-measured once every :data:`PROBE_INTERVAL` rounds of the class —
    an interval that doubles, up to :data:`MAX_PROBE_INTERVAL`, for as
    long as the same side stays dearer.  A class with no measurement of
    a side borrows the nearest class that has one; while no class has
    one, the pool goes first and inline second, so an executor's first
    wide round is what starts its workers.
    """

    def __init__(self) -> None:
        #: side -> width class -> [seconds per gate, rounds observed]
        self._cost: dict[str, dict[int, list]] = {"inline": {}, "pool": {}}
        #: width class -> [dearer side, rounds until its probe, interval]
        self._probe: dict[int, list] = {}

    def estimate(self, where: str, segments: int) -> Optional[float]:
        """Seconds per gate of a ``segments``-wide round run ``where``
        (the nearest measured class's), ``None`` with nothing measured."""
        costs, width = self._cost[where], segments.bit_length()
        if not costs:
            return None
        return costs[min(costs, key=lambda c: (abs(c - width), c))][0]

    def choose(self, segments: int) -> str:
        """The side a ``segments``-wide round should run on."""
        inline = self.estimate("inline", segments)
        pool = self.estimate("pool", segments)
        if pool is None or inline is None:
            return "pool" if pool is None else "inline"
        cheaper, dearer = ("inline", "pool") if inline <= pool else ("pool", "inline")
        width = segments.bit_length()
        probe = self._probe.get(width)
        if probe is None or probe[0] != dearer:  # the sides swapped: start over
            probe = self._probe[width] = [dearer, PROBE_INTERVAL, PROBE_INTERVAL]
        probe[1] -= 1
        if probe[1] > 0:
            return cheaper
        probe[1] = probe[2] = min(2 * probe[2], MAX_PROBE_INTERVAL)
        return dearer

    def observe(self, where: str, segments: int, gates: int, seconds: float) -> None:
        """Record that a round of ``segments`` segments holding ``gates``
        gates took ``seconds`` on side ``where``."""
        if gates <= 0:
            return
        entry = self._cost[where].setdefault(segments.bit_length(), [None, 0])
        per_gate = seconds / gates
        entry[0] = per_gate if entry[0] is None else 0.7 * entry[0] + 0.3 * per_gate
        entry[1] += 1

    def table(self) -> dict[int, dict]:
        """What was learned, per width class: ``<side>_us_per_gate`` and
        ``<side>_rounds`` for each side the class has run on."""
        rows: dict[int, dict] = {}
        for side, costs in self._cost.items():
            for width, (per_gate, rounds) in costs.items():
                row = rows.setdefault(width, {})
                row[f"{side}_us_per_gate"] = per_gate * 1e6
                row[f"{side}_rounds"] = rounds
        return dict(sorted(rows.items()))


def adaptive_chunksize(num_items: int, workers: int, est_task_seconds: float) -> int:
    """Batch width for a pooled round of ``num_items`` segments.

    ``est_task_seconds`` is the executor's running estimate of one
    task's duration (0 when unknown).  The returned size is the
    balance-oriented chunk (``num_items / (CHUNKS_PER_WORKER *
    workers)``) enlarged, when tasks are measurably short, so each
    chunk carries at least ~10x the dispatch overhead of useful work —
    but never beyond ``num_items / workers``, which would idle workers.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    if num_items <= 0:
        return 1
    balance = -(-num_items // (CHUNKS_PER_WORKER * workers))  # ceil div
    chunk = balance
    if est_task_seconds > 0.0:
        target = 10.0 * DISPATCH_OVERHEAD_SECONDS
        if target >= est_task_seconds * num_items:
            chunk = num_items  # even one chunk per worker can't amortize
        else:
            chunk = max(balance, int(target / est_task_seconds) + 1)
    per_worker = -(-num_items // workers)
    return max(1, min(chunk, per_worker))


def batch_segments(
    num_segments: int, workers: int, est_task_seconds: float
) -> list[tuple[int, int]]:
    """Partition ``range(num_segments)`` into contiguous dispatch batches.

    Each returned ``(start, end)`` half-open range becomes one pool
    task.  Batch width follows :func:`adaptive_chunksize` on the
    executor's measured per-segment oracle time, so cheap segments are
    coalesced until a task carries ~10x its dispatch overhead of work,
    while expensive segments stay spread :data:`CHUNKS_PER_WORKER` batches
    per worker for load balancing.  On a 20k-gate circuit with Ω=100
    (≈100 segments/round of sub-millisecond oracle calls) this cuts
    per-round task dispatches by roughly an order of magnitude versus
    one task per segment.
    """
    if num_segments <= 0:
        return []
    width = adaptive_chunksize(num_segments, workers, est_task_seconds)
    return [
        (start, min(start + width, num_segments))
        for start in range(0, num_segments, width)
    ]


def greedy_makespan(durations: Sequence[float], workers: int) -> float:
    """Makespan of Graham list scheduling in task-arrival order."""
    if workers < 1:
        raise ValueError("workers must be positive")
    if not durations:
        return 0.0
    free = [0.0] * min(workers, len(durations))
    heapq.heapify(free)
    finish = 0.0
    for d in durations:
        if d < 0:
            raise ValueError("negative task duration")
        start = heapq.heappop(free)
        end = start + d
        heapq.heappush(free, end)
        if end > finish:
            finish = end
    return finish
