"""Scheduling policies for the parallel executors.

Two concerns live here:

* **Makespan models** for the simulated-parallelism executor.  Greedy
  (Graham) list scheduling assigns each task, in arrival order, to the
  worker that becomes free first.  Its makespan is within 2x of optimal
  and — more importantly for our purposes — it models what a
  work-stealing fork-join runtime (Rayon in the paper's implementation)
  achieves on a parallel map whose iterations have heterogeneous costs.
  The local process pool needs no plan: every stream of a pooled round
  claims the next segment as it frees up.
* **Batching** of the rounds the socket transport sends to worker
  hosts.  :func:`batch_segments` cuts a round into contiguous batches,
  :data:`CHUNKS_PER_WORKER` per worker, so the hosts' dispatchers have
  several each to claim and a slow host holds only one at a time.
"""

from __future__ import annotations

import heapq
from typing import Sequence

__all__ = [
    "batch_segments",
    "greedy_makespan",
]

#: Batches per worker in a socket round; >1 gives the fleet slack to
#: balance heterogeneous oracle calls (Graham's bound improves as the
#: longest batch shrinks relative to the makespan).
CHUNKS_PER_WORKER = 4


def batch_segments(num_segments: int, workers: int) -> list[tuple[int, int]]:
    """Partition ``range(num_segments)`` into contiguous dispatch batches.

    Each returned ``(start, end)`` half-open range becomes one task,
    ``ceil(num_segments / (CHUNKS_PER_WORKER * workers))`` wide (the
    last may be narrower).
    """
    width = max(1, -(-num_segments // (CHUNKS_PER_WORKER * workers)))
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
