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
  hosts.  A batch is one frame, so it must be large enough that its
  dispatch overhead (framing + TCP + wakeup) is amortized by useful
  oracle work, yet small enough that every host gets several for load
  balancing.  :func:`adaptive_chunksize` resolves the width — from a
  per-segment time estimate when there is one, else balance-only,
  :data:`CHUNKS_PER_WORKER` batches per worker — and
  :func:`batch_segments` cuts the round into contiguous batches of it.
"""

from __future__ import annotations

import heapq
from typing import Sequence

__all__ = [
    "adaptive_chunksize",
    "batch_segments",
    "greedy_makespan",
]

#: Estimated fixed cost of dispatching one chunk to a worker (framing,
#: a write and a read, scheduler wakeup) — conservative for CPython on
#: Linux.
DISPATCH_OVERHEAD_SECONDS = 5e-4

#: Target chunks per worker when task times allow it; >1 gives the fleet
#: slack to balance heterogeneous oracle calls (Graham's bound improves
#: as the longest chunk shrinks relative to the makespan).
CHUNKS_PER_WORKER = 4


def adaptive_chunksize(num_items: int, workers: int, est_task_seconds: float) -> int:
    """Batch width for a round of ``num_items`` segments.

    ``est_task_seconds`` is an estimate of one task's duration (0 when
    unknown, as on the socket transport).  The returned size is the
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

    Each returned ``(start, end)`` half-open range becomes one task.
    Batch width follows :func:`adaptive_chunksize`: with a per-segment
    time estimate cheap segments are coalesced until a task carries ~10x
    its dispatch overhead of work; without one (``0.0``, what the socket
    transport passes) a round is spread :data:`CHUNKS_PER_WORKER`
    batches per worker for load balancing.
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
