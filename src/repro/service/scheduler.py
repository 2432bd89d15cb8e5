"""Cross-job round scheduling over one persistent worker fleet.

A ``popqc serve`` daemon runs many optimization jobs concurrently, but
owns exactly one warm :class:`~repro.parallel.ProcessMap` fleet — the
expensive thing (spawned workers, registered oracle, pooled arenas,
connected hosts) that the whole service exists to amortize.  This
module multiplexes the jobs onto it:

* Each job optimizes through a :class:`FleetView` — a
  :class:`~repro.parallel.SegmentExecutor`, so the unmodified POPQC
  driver runs against it.
* Every ``map_segments`` round a job issues first passes the view's own
  :class:`~repro.parallel.CacheFront` over the shared
  content-addressed segment cache and, before it, the memo of the
  daemon's gate table (hits are answered immediately and
  never enter the queue — per-job hit accounting falls out for free);
  the cache-missing segments become a *round request* on the shared
  :class:`FleetScheduler`, which merges those of every concurrently
  pending request into **one** combined ``fleet.map_segments`` call.
  The fleet's own :func:`~repro.parallel.scheduling.batch_segments`
  policy then splits the combined round across workers exactly as it
  would a single big job — so two half-width jobs fill the fleet as
  well as one full-width job, instead of each using half of it.
* Results are split back per request, each view stores its
  cache-missing outputs as packed bytes on the way out, and each job's
  driver resumes.

Merging is opportunistic: an idle dispatcher runs a lone request at
once, and whatever arrives while that fleet round is in flight merges
into the next one.

Merged rounds are **weighted-fair**, not all-you-can-eat: each fleet
round carries at most ``round_budget_segments`` segments, split
between the pending requests in proportion to their jobs' priority
weights (every waiting request gets at least one segment).  A request
bigger than its share is dispatched *partially* and finishes over
several rounds — which is exactly the point: a 10M-gate batch job's
round no longer occupies the fleet wall-to-wall while a 50-gate
interactive submit waits for it to drain.  The interactive job's
round completes within ``ceil(segments / share)`` fleet rounds of
arriving, regardless of how much batch work is queued.  Per-segment
results are independent of the round composition on every transport,
so a job's output is byte-identical whether its rounds ran alone,
merged, split across fleet rounds, or from the cache.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

from ..circuits.gate import Gate
from ..parallel import CacheFront, segment_executor
from .cache import SegmentCache

__all__ = ["FleetScheduler", "FleetView"]


class _RoundRequest:
    """One job's pending oracle round (its cache misses only).

    A request may span several fleet rounds: ``next_index`` marks the
    first segment not yet dispatched, ``results`` fills in place as
    slices come back, and ``done`` fires once every slot is filled (or
    the request failed).  The dispatcher is single-threaded and each
    fleet round is synchronous, so dispatched always implies resolved
    by the end of the round that carried it.
    """

    __slots__ = (
        "oracle",
        "segments",
        "weight",
        "next_index",
        "done",
        "results",
        "error",
    )

    def __init__(self, oracle, segments, weight: int = 1):
        self.oracle = oracle
        self.segments = segments
        self.weight = max(1, int(weight))
        self.next_index = 0
        self.done = threading.Event()
        self.results: list = [None] * len(segments)
        self.error: Optional[BaseException] = None

    @property
    def remaining(self) -> int:
        """Segments not yet dispatched to the fleet."""
        return len(self.segments) - self.next_index


class FleetScheduler:
    """Serializes concurrent jobs' rounds onto one shared fleet.

    Parameters
    ----------
    fleet:
        The persistent executor (any transport; one that only has
        ``map`` is adapted and labelled ``"inline"``, as ``popqc``
        does).  The scheduler owns its dispatch: jobs must reach it
        only through :class:`FleetView`.  Configure the fleet
        *without* a cache — each view fronts it, so hits are
        attributed per job.
    cache:
        Optional :class:`~repro.service.cache.SegmentCache` every
        view consults before any segment is queued for dispatch.
    round_budget_segments:
        The most segments one merged fleet round may carry — the
        weighted-fair quantum.  ``None`` (default) computes
        ``max(16, 4 * fleet.workers)``: big enough to keep every
        worker batched, small enough that an interactive job never
        waits behind more than one quantum of batch work.

    Attributes
    ----------
    rounds_dispatched / requests_merged / segments_dispatched:
        Combined fleet rounds run, job round-request participations
        they carried, and segments they carried.  A request split
        across fleet rounds counts one participation per round, so
        ``requests_merged > rounds_dispatched`` is cross-job batching
        (or fair splitting) actually happening.
    """

    def __init__(
        self,
        fleet,
        cache: Optional[SegmentCache] = None,
        round_budget_segments: Optional[int] = None,
    ):
        if round_budget_segments is not None and round_budget_segments < 1:
            raise ValueError("round_budget_segments must be positive")
        self.fleet = segment_executor(fleet)
        self.cache = cache
        self.round_budget_segments = round_budget_segments
        self.rounds_dispatched = 0
        self.requests_merged = 0
        self.segments_dispatched = 0
        self._pending: list[_RoundRequest] = []
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._closing = False
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="fleet-scheduler", daemon=True
        )
        self._thread.start()

    def view(self, weight: int = 1) -> "FleetView":
        """A fresh per-job executor proxy bound to this scheduler.

        ``weight`` is the job's priority weight: its share of every
        merged fleet round is proportional to it (a weight-4 job draws
        roughly 4x the segments per round of a weight-1 job).
        """
        return FleetView(self, weight=weight)

    @property
    def pending_requests(self) -> int:
        """Round requests currently queued or mid-flight (admission
        control reads this as the queue depth)."""
        with self._lock:
            return len(self._pending)

    @property
    def pending_segments(self) -> int:
        """Segments queued but not yet dispatched, across all pending
        requests — the backlog signal the service's autoscaler reads
        to decide whether the fleet is underwater."""
        with self._lock:
            return sum(req.remaining for req in self._pending)

    def close(self) -> None:
        """Stop the dispatcher and close the fleet (idempotent).

        Pending and future requests fail with :class:`RuntimeError`
        rather than hanging.
        """
        with self._wake:
            if self._closing:
                return
            self._closing = True
            pending, self._pending = self._pending, []
            self._wake.notify_all()
        for req in pending:
            req.error = RuntimeError("fleet scheduler closed")
            req.done.set()
        self._thread.join(timeout=5.0)
        self.fleet.close()

    # -- merged dispatch -------------------------------------------------------

    def run_round(
        self,
        oracle: Callable[[list[Gate]], list[Gate]],
        segments: Sequence[Sequence[Gate]],
        weight: int = 1,
    ) -> list:
        """Queue one job round and block until the fleet has answered
        all of it; results are in segment order and byte-identical to
        an unmerged round.  ``weight`` buys the request its
        weighted-fair share of each merged fleet round."""
        if not segments:
            return []
        req = _RoundRequest(oracle, list(segments), weight)
        with self._wake:
            if self._closing:
                raise RuntimeError("fleet scheduler closed")
            self._pending.append(req)
            self._wake.notify_all()
        req.done.wait()
        if req.error is not None:
            raise req.error
        return req.results

    @property
    def round_budget(self) -> int:
        """The segment quantum of one merged fleet round (also the
        backlog past which the service's autoscaler adds a worker)."""
        if self.round_budget_segments is not None:
            return self.round_budget_segments
        return max(16, 4 * self.fleet.workers)

    def _take_round(self) -> list[tuple[_RoundRequest, int, int]]:
        """The next merged round as ``(request, start, count)`` slices.

        Blocks until at least one request is queued (empty once the
        scheduler is closing), then allocates the round budget across
        every pending request sharing the first one's oracle (the fleet
        registers one oracle per round; a job running a different
        oracle simply waits one round) by weighted share: request
        ``i`` gets ``max(1, budget * weight_i / sum(weights))``
        segments, in arrival order, and any budget left after the
        shares (requests smaller than their share) tops up the
        heaviest requests first.  Requests are *not* removed from the
        pending list here — a partially dispatched request stays
        queued for the next round's allocation.
        """
        with self._wake:
            while not self._pending and not self._closing:
                self._wake.wait()
            if self._closing:
                return []
            lead = self._pending[0].oracle
            group = [r for r in self._pending if r.oracle is lead]
            budget = self.round_budget
            total_weight = sum(r.weight for r in group)
            parts: list[tuple[_RoundRequest, int, int]] = []
            left = budget
            for req in group:
                if left <= 0:
                    break
                share = max(1, (budget * req.weight) // total_weight)
                take = min(req.remaining, share, left)
                if take > 0:
                    parts.append((req, req.next_index, take))
                    req.next_index += take
                    left -= take
            if left > 0:
                # leftover budget: heaviest first, then arrival order
                # (Python's sort is stable, so ties keep queue order)
                for req in sorted(group, key=lambda r: -r.weight):
                    if left <= 0:
                        break
                    take = min(req.remaining, left)
                    if take > 0:
                        parts.append((req, req.next_index, take))
                        req.next_index += take
                        left -= take
            return parts

    def _dispatch_loop(self) -> None:
        """Dispatcher thread: allocate, run, scatter, repeat until closed."""
        while True:
            parts = self._take_round()
            if not parts:
                return
            merged: list = []
            for req, start, count in parts:
                merged.extend(req.segments[start : start + count])
            involved = {id(req): req for req, _, _ in parts}
            try:
                flat = self.fleet.map_segments(parts[0][0].oracle, merged)
            except BaseException as exc:  # noqa: BLE001 - forwarded per job
                with self._wake:
                    self._pending = [
                        r for r in self._pending if id(r) not in involved
                    ]
                for req in involved.values():
                    req.error = exc
                    req.done.set()
                continue
            pos = 0
            for req, start, count in parts:
                req.results[start : start + count] = flat[pos : pos + count]
                pos += count
            completed: list[_RoundRequest] = []
            with self._wake:
                self.rounds_dispatched += 1
                self.requests_merged += len(involved)
                self.segments_dispatched += len(merged)
                for req in involved.values():
                    if req.remaining == 0 and req in self._pending:
                        self._pending.remove(req)
                        completed.append(req)
            for req in completed:
                req.done.set()


class FleetView:
    """A per-job :class:`~repro.parallel.SegmentExecutor` over the
    shared scheduler.

    ``map_segments`` runs the job's own
    :class:`~repro.parallel.CacheFront` (when the service has a cache)
    with the scheduler's merged dispatch as its miss route, so
    :meth:`counters` — and through it ``OptimizationStats.cache_hit_rate``
    and the lookup-cost accounting — is exact for *this* job even
    while other jobs share the cache and the fleet.  Without a cache
    there are no lookups and nothing is counted: segments dispatched
    straight to the fleet are not "misses".  ``weight`` is the job's
    priority weight, carried into every round request it issues.
    """

    def __init__(self, scheduler: FleetScheduler, weight: int = 1):
        self._scheduler = scheduler
        self.weight = max(1, int(weight))
        self._front = (
            CacheFront(scheduler.cache) if scheduler.cache is not None else None
        )

    @property
    def workers(self) -> int:
        """The shared fleet's worker count."""
        return self._scheduler.fleet.workers

    @property
    def transport(self) -> str:
        """The shared fleet's wire format (labels per-job stats)."""
        return self._scheduler.fleet.transport

    def map_segments(
        self,
        oracle: Callable[[list[Gate]], list[Gate]],
        segments: Sequence[Sequence[Gate]],
    ) -> list:
        """One oracle round through the cache and the shared fleet."""
        if self._front is None:
            return self._scheduler.run_round(oracle, segments, self.weight)
        return self._front.run(
            oracle,
            segments,
            lambda missed: self._scheduler.run_round(oracle, missed, self.weight),
        )

    def counters(self) -> dict:
        """This job's cache-front counts (nothing without a cache)."""
        return self._front.counters() if self._front is not None else {}

    def close(self) -> None:
        """No-op: the scheduler owns the fleet's lifetime."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FleetView(scheduler={self._scheduler!r})"
