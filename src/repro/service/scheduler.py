"""Cross-job round scheduling over one persistent worker fleet.

A ``popqc serve`` daemon runs many jobs concurrently over exactly one
warm :class:`~repro.parallel.ProcessMap` fleet — the expensive thing
(spawned workers, registered oracle, connected hosts) the service
exists to amortize — and one loop multiplexes the jobs onto it.  A job
is a *step machine* (:func:`repro.core.popqc_rounds`: a generator that
yields each round's segments and is sent their results), its
:class:`~repro.service.cache.CacheFront` and its priority weight.

* The handler thread that admitted the job primes it — store build,
  first extraction, cache lookup — then waits once, for the whole job.
  The daemon's memo answers what it knows inside the machine, which
  yields only the rest; those are looked up on the job's front (the
  shared content cache), and a round whose every segment hits is
  answered on the spot and never enters the queue.
* A round with misses queues the job.  The one dispatcher thread
  merges every waiting job's misses into **one** ``fleet.map_segments``
  call (split across workers as one big round would be), stores each
  answered job's misses on its front and advances its machine to its
  next round with misses, or to its result, before the next fleet
  round.  So jobs a fleet round carries together stay together.

Merged rounds are **weighted-fair**: a fleet round carries at most
``round_budget_segments`` segments, split between the waiting jobs by
weight (each gets at least one), and a bigger round finishes over
several fleet rounds — a small interactive submit never waits for a
batch job to drain.  Per-segment results do not depend on the round
composition, so a job's output is byte-identical whether its rounds
ran alone, merged, split, or from the cache.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

from ..circuits.gate import Gate
from ..core import OracleFn
from ..parallel import segment_executor
from .cache import CacheFront, SegmentCache, oracle_cache_namespace

__all__ = ["FleetScheduler"]


class _Job:
    """One job: its round machine, cache front and weight, and the
    misses of the round it waits on — ``segments``, dispatched up to
    ``next_index``, their answers filling ``results`` in place (a round
    may span several fleet rounds).  ``done`` fires once, when the
    machine has returned ``value`` or the job failed with ``error``."""

    def __init__(self, steps, oracle, front: Optional[CacheFront], weight: int):
        self.steps, self.oracle, self.front = steps, oracle, front
        self.weight = max(1, int(weight))
        self.done = threading.Event()
        self.value = self.error = None

    @property
    def remaining(self) -> int:
        """Misses of the current round not yet dispatched to the fleet."""
        return len(self.segments) - self.next_index

    def advance(self, answers=None) -> bool:
        """Send the current round's ``answers`` (none, to prime) and step
        through the rounds the cache answers whole: True when the job
        waits on the fleet for a round's misses, False once it returned."""
        while True:
            try:
                segments = self.steps.send(answers)
            except StopIteration as stop:
                self.value = stop.value
                return False
            if self.front is None:  # no cache: no lookups, no "misses"
                self.round, self.segments = [], list(segments)
            else:
                self.round, self.misses = self.front.lookup(segments)
                self.segments = [seg for _, seg, _ in self.misses]
            if self.segments:
                self.next_index, self.results = 0, [None] * len(self.segments)
                return True
            answers = self.round

    def answered(self) -> bool:
        """Store the fleet's answers to the misses; then :meth:`advance`."""
        if self.front is None:  # every segment was dispatched, in order
            return self.advance(self.results)
        self.front.store(self.round, self.misses, self.results)
        return self.advance(self.round)

    def finish(self, error: Optional[BaseException] = None) -> None:
        """Release the handler thread waiting on the job."""
        self.error = error
        self.done.set()


class FleetScheduler:
    """Advances every served job's rounds over one shared fleet.

    Parameters
    ----------
    fleet:
        The persistent executor (one that only has ``map`` is adapted,
        as ``popqc`` does); each job's front fronts it, so hits are
        attributed per job.
    cache:
        Optional :class:`~repro.service.cache.SegmentCache` behind
        every job's :meth:`front`.
    round_budget_segments:
        The most segments one merged fleet round may carry, the
        weighted-fair quantum; ``None`` means ``max(16, 4 * workers)``,
        enough to batch every worker and no more.

    Attributes
    ----------
    rounds_dispatched / requests_merged / segments_dispatched:
        Fleet rounds run, job rounds they carried (once per fleet
        round, so ``requests_merged > rounds_dispatched`` is merging or
        fair splitting happening), and segments they carried.
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
        self.rounds_dispatched = self.requests_merged = self.segments_dispatched = 0
        self._pending: list[_Job] = []
        #: id(oracle) -> (oracle, its namespace), derived once per oracle
        #: (an unpicklable one's is random) and kept alive with it.
        self._namespaces: dict[int, tuple[object, bytes]] = {}
        self._wake = threading.Condition(threading.Lock())
        self._closing = False
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="fleet-scheduler", daemon=True
        )
        self._thread.start()

    def front(self, oracle: OracleFn) -> Optional[CacheFront]:
        """A fresh cache front for one job of ``oracle`` (``None``
        without a cache), in the namespace every job of it shares."""
        if self.cache is None:
            return None
        known = self._namespaces.get(id(oracle))
        if known is None:  # racing first jobs agree on the first one stored
            known = self._namespaces.setdefault(
                id(oracle), (oracle, oracle_cache_namespace(oracle))
            )
        return CacheFront(self.cache, known[1])

    @property
    def pending_requests(self) -> int:
        """Jobs waiting on or in the fleet (admission's queue depth)."""
        with self._wake:
            return len(self._pending)

    @property
    def pending_segments(self) -> int:
        """Segments queued, not yet dispatched (the autoscaler's backlog)."""
        with self._wake:
            return sum(job.remaining for job in self._pending)

    @property
    def round_budget(self) -> int:
        """The segment quantum of one merged fleet round (also the
        backlog past which the service's autoscaler adds a worker)."""
        if self.round_budget_segments is not None:
            return self.round_budget_segments
        return max(16, 4 * self.fleet.workers)

    def close(self) -> None:
        """Stop the dispatcher and close the fleet (idempotent); waiting
        and future jobs fail with :class:`RuntimeError`, never hang."""
        with self._wake:
            if self._closing:
                return
            self._closing = True
            pending, self._pending = self._pending, []
            self._wake.notify_all()
        for job in pending:
            job.finish(RuntimeError("fleet scheduler closed"))
        self._thread.join(timeout=5.0)
        self.fleet.close()

    def run(self, steps, oracle: OracleFn, front=None, weight: int = 1):
        """Run one job's round machine ``steps`` to its returned value.

        The caller primes it and steps through the rounds ``front``
        answers whole; the dispatcher advances it from its first round
        with misses, while the caller blocks once.  ``weight`` buys the
        job its share of each merged fleet round."""
        job = _Job(steps, oracle, front, weight)
        if not job.advance():
            return job.value
        with self._wake:
            if self._closing:
                raise RuntimeError("fleet scheduler closed")
            self._pending.append(job)
            self._wake.notify_all()
        job.done.wait()
        if job.error is not None:
            raise job.error
        return job.value

    def run_round(
        self, oracle: OracleFn, segments: Sequence[Sequence[Gate]], weight: int = 1
    ) -> list:
        """One round as a one-round job, bypassing any cache: results
        in segment order, byte-identical to an unmerged round."""

        def one_round():
            return (yield list(segments))

        return self.run(one_round(), oracle, weight=weight)

    # -- merged dispatch -------------------------------------------------------

    def _take_round(self) -> list[tuple[_Job, int, int]]:
        """The next merged round as ``(job, start, count)`` slices.

        Blocks until a job waits (empty once closing), then splits the
        budget across the waiting jobs sharing the first one's oracle
        (one oracle per fleet round; others wait a round): job ``i``
        gets ``max(1, budget * weight_i / sum(weights))`` segments in
        arrival order, and what is left tops up the heaviest first.
        A partially dispatched job stays queued for the next round.
        """
        with self._wake:
            while not self._pending and not self._closing:
                self._wake.wait()
            if self._closing:
                return []
            lead = self._pending[0].oracle
            group = [job for job in self._pending if job.oracle is lead]
            budget = left = self.round_budget
            total_weight = sum(job.weight for job in group)
            parts: list[tuple[_Job, int, int]] = []

            def grant(job: _Job, most: int) -> int:
                take = min(job.remaining, most)
                if take > 0:
                    parts.append((job, job.next_index, take))
                    job.next_index += take
                return take

            for job in group:
                if left <= 0:
                    break
                share = max(1, (budget * job.weight) // total_weight)
                left -= grant(job, min(share, left))
            # leftover budget: heaviest first, then arrival order (the
            # sort is stable, so ties keep queue order)
            for job in sorted(group, key=lambda job: -job.weight):
                if left <= 0:
                    break
                left -= grant(job, left)
            return parts

    def _dispatch_loop(self) -> None:
        """Dispatcher thread: allocate, run, scatter, advance the
        answered jobs, repeat until closed."""
        while self._dispatch(self._take_round()):
            pass

    def _dispatch(self, parts: list) -> bool:
        """Run one merged round and advance its answered jobs; False for
        no round (closing).  A frame of its own, so no job outlives its
        round here while the dispatcher waits for the next one."""
        if not parts:
            return False
        merged = [seg for job, i, n in parts for seg in job.segments[i : i + n]]
        involved = list(dict.fromkeys(job for job, _, _ in parts))
        try:
            flat = self.fleet.map_segments(parts[0][0].oracle, merged)
        except BaseException as exc:  # noqa: BLE001 - forwarded per job
            with self._wake:  # a job close() failed is no longer here
                failed = [job for job in involved if job in self._pending]
                self._pending = [j for j in self._pending if j not in failed]
            for job in failed:
                job.finish(exc)
            return True
        pos = 0
        for job, start, count in parts:
            job.results[start : start + count] = flat[pos : pos + count]
            pos += count
        with self._wake:
            self.rounds_dispatched += 1
            self.requests_merged += len(involved)
            self.segments_dispatched += len(merged)
            answered = [
                job
                for job in involved
                if job.remaining == 0 and job in self._pending
            ]
            self._pending = [j for j in self._pending if j not in answered]
        for job in answered:
            self._advance(job)
        return True

    def _advance(self, job: _Job) -> None:
        """Step an answered job on: back in the queue with its next
        round's misses, or finished."""
        try:
            waiting = job.answered()
        except BaseException as exc:  # noqa: BLE001 - forwarded to the job
            waiting, job.error = False, exc
        with self._wake:
            if waiting and not self._closing:
                self._pending.append(job)
                return
        job.finish(RuntimeError("fleet scheduler closed") if waiting else job.error)
