"""The ``popqc serve`` daemon: optimization jobs as a network service.

One long-running process owns the expensive state — a warm worker
fleet (any of the five transports), a registered oracle, and the
content-addressed segment cache — and serves optimization *jobs*
submitted over TCP.  The daemon is a
:class:`~repro.parallel.FrameServer` — the listener, AUTH gate, idle
timeout and stop sequence of the ``popqc worker`` host, on the same
length-prefixed frame codec — whose handler answers three frame types
of its own (:mod:`repro.service.frames`):

* ``JOB`` — a circuit (as one packed segment) plus Ω and run options;
* ``RESULT`` — the optimized circuit (packed) plus a per-job stats
  JSON object (gate reduction, rounds, cache hit rate, latency);
* ``STATUS`` — an empty request answered with a server-status JSON
  (jobs served, cache hit rate, per-job latency, fleet shape).

Each client connection is served by its own thread, one job at a time
per connection: it parses and admits a JOB, primes the job's round
machine (:func:`repro.core.popqc_rounds`), waits once for the whole
job, and replies.  *Across* connections, the one dispatcher of the
:class:`~repro.service.scheduler.FleetScheduler` advances every job,
merging their oracle rounds into shared fleet rounds.  Two levels keep
the oracle from answering a segment twice, both on unless the daemon
serves without a cache:

* **the memo** — every job's gates are ids of one daemon-wide
  :class:`~repro.circuits.intern.GateTable`, and every job runs with
  one daemon-wide memo of that table's segments
  (``popqc_rounds(memo=...)``), filled with each answer on first
  sight: a segment any job has met — earlier in the same job, too — is
  answered without being encoded, packed or hashed.  Table and memo are
  bounded and replaced together between jobs, which no output can see.
* **the segment cache** — what the memo passes on is looked up by
  content (:class:`~repro.service.cache.CacheFront`, one per job),
  across memo generations and, on disk, across restarts.  Its key
  hashes the rows' value digests, and it keeps an answer as ids of its
  table, so only a write to ``--cache-dir`` packs anything.

A job's output is byte-identical to a standalone ``popqc`` run of the
same circuit with the same oracle and Ω.

The cache has one owner and one writer path: only this process's
cache fronts read or fill it, with values an oracle the daemon
dispatched produced — no frame type touches it, so no peer can put
bytes where a later job will read them.

**Autoscaling** (``--min-workers/--max-workers/--scale-window``,
socket fleets only): a background thread reads the scheduler's
queued-segment backlog and spawns or retires local ``popqc worker``
subprocesses through the ordinary REGISTER handshake; retiring puts
a batch in flight on the retired host back at the head of the round's
queue, so scale-down never loses a round.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import re
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from ..circuits.intern import GateTable
from ..core import popqc_rounds
from ..parallel import FrameProtocolError, FrameServer, LazySegmentResult, ProcessMap
from ..parallel.frames import (
    ERR_BAD_FRAME,
    ERR_JOB_FAILED,
    FRAME_BUSY,
    FRAME_JOB,
    FRAME_RESULT,
    FRAME_STATUS,
    error_frame,
    pack_frame,
)
from .cache import SegmentCache
from .frames import (
    BUSY_MAX_ACTIVE,
    BUSY_PEER_QUOTA,
    BUSY_QUEUE_FULL,
    pack_busy_payload,
    pack_result_payload,
    unpack_job_payload,
)
from .scheduler import FleetScheduler

__all__ = ["OptimizationService", "SubprocessWorker"]

_log = logging.getLogger(__name__)


#: Pattern extracting the bound endpoint from the worker CLI banner.
_WORKER_BANNER = re.compile(r"listening on (\S+)")

#: Seconds a spawned worker has to print that banner.
SPAWN_TIMEOUT_SECONDS = 30.0

#: Entries a daemon's memo takes before it stops taking more (and is
#: replaced, with its table, at the next admission).  Every dispatched
#: answer is an entry, ~1.87 KB at omega 100 (2956 entries from two
#: seeds' ``TABLE1_SMALL`` blocks took 5.54 MB).  The benchmark's
#: ``serve_cold`` adds ~1500 a block, so a cap of 16384 would let a run
#: reach ~13k entries (~25 MB), close to the 10 % ``peak_rss_mb``
#: bound on its ~274 MB; 4096 entries is ~7.7 MB and still holds
#: ``serve_warm``'s whole working set (~1.5k segments).
MEMO_CAP = 4096


class _Memo(dict):
    """A daemon's memo: ``ids.tobytes()`` of a segment of its table ->
    the oracle's answer (:func:`repro.core.popqc_rounds`).  Reads take
    no lock; :meth:`update`, the one insert, takes one and stops at
    :data:`MEMO_CAP`."""

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()

    @property
    def full(self) -> bool:
        """Whether the memo has stopped taking entries."""
        return len(self) >= MEMO_CAP

    def update(self, answers: dict) -> None:
        """Keep ``answers`` not known yet, up to :data:`MEMO_CAP` entries.

        An answer held as ids is kept as its ids alone: the packed bytes
        a disk store derived on it are not what a replay reads."""
        with self._lock:
            for key, answer in answers.items():
                if len(self) >= MEMO_CAP:
                    return
                interned = getattr(answer, "interned", None)
                if interned is not None:
                    answer = LazySegmentResult.from_ids(*interned)
                self.setdefault(key, answer)


class SubprocessWorker:
    """One autoscaler-spawned ``popqc worker`` subprocess.

    The default ``worker_spawner`` of :class:`OptimizationService`:
    launches ``python -m repro.cli worker --bind 127.0.0.1:0`` (plus
    the service's auth token), blocks until the worker prints its
    bound address — for at most :data:`SPAWN_TIMEOUT_SECONDS`, then the
    child is stopped and the spawn fails — and exposes it as
    :attr:`address`.
    :meth:`stop` terminates the subprocess and reaps it, so a stopped
    service never leaks workers.
    """

    def __init__(self, auth_token: Optional[str] = None):
        src_root = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src_root, env.get("PYTHONPATH")])
        )
        cmd = [sys.executable, "-m", "repro.cli", "worker", "--bind", "127.0.0.1:0"]
        if auth_token is not None:
            cmd += ["--auth-token", auth_token]
        self._proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        # readline on a helper thread: a child that never prints costs
        # the deadline, not a caller stuck holding the scale lock
        banner: list[str] = []
        reader = threading.Thread(
            target=lambda: banner.append(self._proc.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(SPAWN_TIMEOUT_SECONDS)
        match = _WORKER_BANNER.search(banner[0] if banner else "")
        if match is None:
            self._proc.terminate()  # EOF releases a reader still waiting
            reader.join(5.0)
            self.stop()
            raise RuntimeError(
                f"spawned worker printed no address banner within "
                f"{SPAWN_TIMEOUT_SECONDS:g} s: {banner!r}"
            )
        self.address = match.group(1)

    @property
    def pid(self) -> int:
        """The subprocess PID (for the status object and logs)."""
        return self._proc.pid

    def stop(self) -> None:
        """Terminate and reap the subprocess (idempotent)."""
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                self._proc.kill()
                self._proc.wait(timeout=5.0)
        if self._proc.stdout is not None:
            with contextlib.suppress(OSError):
                self._proc.stdout.close()


class OptimizationService(FrameServer):
    """TCP daemon multiplexing optimization jobs over one warm fleet.

    Parameters
    ----------
    oracle:
        The oracle every job is optimized against (jobs choose Ω and
        round caps, not the oracle — the fleet registers exactly one).
    host / port:
        Bind endpoint; ``port=0`` picks an ephemeral port
        (:attr:`address` reports the bound one).
    workers / transport / hosts:
        Fleet shape, passed to :class:`~repro.parallel.ProcessMap`
        (``hosts`` for ``transport="socket"``).
    cache:
        A :class:`~repro.service.cache.SegmentCache`, or ``None`` to
        build a default in-memory cache, or ``False`` to serve without
        one, and without a memo (every segment pays the oracle).  Keys
        are scoped per oracle by the scheduler's fronts, so a cache (or
        its disk store) needs no namespace of its own and can be shared
        by daemons running different oracles.
    round_budget_segments:
        Weighted-fair quantum of one merged fleet round (see
        :class:`~repro.service.scheduler.FleetScheduler`).
    auth_token:
        Shared secret demanded of every connection
        (:class:`~repro.parallel.FrameServer`'s AUTH gate).  For a
        socket-fleet service the same token is presented to the
        ``popqc worker`` hosts, so one secret covers both rungs of the
        service.  ``None`` serves unauthenticated (trusted networks
        only).
    max_active_jobs / max_jobs_per_peer / max_pending_rounds:
        Admission control, each ``None`` (unlimited) or ``>= 1``: the
        global cap on jobs being optimized at once, the per-client
        (peer address) cap, and the scheduler queue depth past which
        new jobs are refused.  A refused JOB is answered with a typed
        BUSY frame naming the reason and a suggested retry delay —
        never a hang and never a dropped connection.
    idle_timeout_seconds:
        How long a connection may sit silent before its handler thread
        gives up on it (slow-loris defence); ``None`` disables.
    min_workers / max_workers / scale_window_seconds:
        Queue-depth-driven autoscaling (socket fleets only).
        ``min_workers`` local ``popqc worker`` subprocesses are
        spawned at startup (so ``hosts`` may be omitted entirely);
        when ``max_workers`` is set, a background thread samples the
        scheduler's queued-segment backlog every
        ``scale_window_seconds`` and spawns another worker while the
        backlog exceeds one round budget, or retires the youngest
        spawned worker (down to ``min_workers``) after two consecutive
        idle windows.  Spawned workers present the service's auth
        token.
    worker_spawner:
        Factory for spawned workers — any callable returning an object
        with ``.address`` and ``.stop()``.  Defaults to
        :class:`SubprocessWorker`; tests inject in-process hosts.

    Attributes
    ----------
    jobs_completed / jobs_failed / jobs_rejected / jobs_active:
        Totals across all connections, and jobs being optimized now.
    scale_ups / scale_downs / scale_failures:
        Autoscaler actions (spawn, retire, failed spawn).
    """

    def __init__(
        self,
        oracle: object,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: Optional[int] = None,
        transport: str = "encoded",
        hosts: Optional[Sequence[str]] = None,
        cache: object = None,
        round_budget_segments: Optional[int] = None,
        auth_token: Optional[str] = None,
        max_active_jobs: Optional[int] = None,
        max_jobs_per_peer: Optional[int] = None,
        max_pending_rounds: Optional[int] = None,
        idle_timeout_seconds: Optional[float] = 300.0,
        min_workers: Optional[int] = None,
        max_workers: Optional[int] = None,
        scale_window_seconds: float = 2.0,
        worker_spawner: Optional[Callable[[], object]] = None,
    ):
        for name, bound in (
            ("max_active_jobs", max_active_jobs),
            ("max_jobs_per_peer", max_jobs_per_peer),
            ("max_pending_rounds", max_pending_rounds),
        ):
            if bound is not None and bound < 1:
                raise ValueError(f"{name} must be positive or None")
        elastic = min_workers is not None or max_workers is not None
        if elastic and transport != "socket":
            raise ValueError(
                "autoscaling (min_workers/max_workers) requires "
                "transport='socket'"
            )
        if min_workers is not None and min_workers < 0:
            raise ValueError("min_workers must be >= 0 or None")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive or None")
        if (
            min_workers is not None
            and max_workers is not None
            and min_workers > max_workers
        ):
            raise ValueError("min_workers cannot exceed max_workers")
        if scale_window_seconds <= 0:
            raise ValueError("scale_window_seconds must be positive")
        self.oracle = oracle
        if cache is None:
            cache = SegmentCache()
        elif cache is False:
            cache = None
        self.cache = cache
        self.max_active_jobs = max_active_jobs
        self.max_jobs_per_peer = max_jobs_per_peer
        self.max_pending_rounds = max_pending_rounds
        self.min_workers = min_workers if min_workers is not None else 0
        self.max_workers = max_workers
        self.scale_window_seconds = scale_window_seconds
        self.scale_ups = 0
        self.scale_downs = 0
        self.scale_failures = 0
        super().__init__(host, port, auth_token, idle_timeout_seconds)
        self._spawned: list = []
        self._scale_lock = threading.Lock()
        self._idle_windows = 0
        self._worker_spawner = worker_spawner or (
            lambda: SubprocessWorker(auth_token)
        )
        try:
            for _ in range(self.min_workers):
                self._spawned.append(self._worker_spawner())
            all_hosts = list(hosts) if hosts else []
            all_hosts += [worker.address for worker in self._spawned]
            fleet = ProcessMap(
                workers,
                # rounds of <= 2 segments run inline; a wider round runs
                # on `workers` children, the dispatcher thread computing
                # none of it
                serial_cutoff=2,
                transport=transport,
                hosts=all_hosts if transport == "socket" else hosts,
                auth_token=auth_token if transport == "socket" else None,
            )
            self._scheduler = FleetScheduler(
                fleet, cache=cache, round_budget_segments=round_budget_segments
            )
        except BaseException:
            for worker in self._spawned:
                with contextlib.suppress(Exception):
                    worker.stop()
            with contextlib.suppress(OSError):
                self._listener.close()
            raise
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_rejected = 0
        self.jobs_active = 0
        #: Every job's ids are ids of this table, so a segment any job has
        #: met is a key of this memo (both replaced when full, at admission).
        self._table = GateTable()
        self._memo = _Memo() if cache is not None else None
        self._peers: dict[str, dict] = {}
        self._latencies: deque[float] = deque(maxlen=256)
        self._started = time.monotonic()
        self._autoscale_thread: Optional[threading.Thread] = None
        if self.max_workers is not None:
            self._autoscale_thread = threading.Thread(
                target=self._autoscale_loop, name="autoscaler", daemon=True
            )
            self._autoscale_thread.start()

    def stop(self) -> None:
        """Stop the autoscaler, then the scheduler and the fleet — so a
        job in flight is answered with a typed error, not held — then
        the listener and connections (:meth:`FrameServer.stop`) and
        any autoscaler-spawned workers."""
        self._closing.set()
        if self._autoscale_thread is not None:
            self._autoscale_thread.join(timeout=self.scale_window_seconds + 5.0)
        self._scheduler.close()
        super().stop()
        with self._scale_lock:
            spawned, self._spawned = self._spawned, []
        for worker in spawned:
            with contextlib.suppress(Exception):
                worker.stop()

    # -- autoscaling -----------------------------------------------------------

    def scale_up(self) -> Optional[str]:
        """Spawn one worker and attach it to the fleet.

        Returns its address, or ``None`` when the fleet is already at
        ``max_workers`` or the spawn failed (counted in
        ``scale_failures``; the autoscaler simply tries again next
        window).
        """
        with self._scale_lock:
            if (
                self.max_workers is not None
                and len(self._spawned) >= self.max_workers
            ):
                return None
            try:
                worker = self._worker_spawner()
            except Exception:
                self.scale_failures += 1
                _log.exception("autoscaler failed to spawn a worker")
                return None
            self._spawned.append(worker)
            self.scale_ups += 1
        self._scheduler.fleet.wire.add_host(worker.address)
        _log.info("autoscaler added worker %s", worker.address)
        return worker.address

    def scale_down(self) -> Optional[str]:
        """Retire the youngest spawned worker (never below ``min_workers``).

        The host is removed from the pool first — closing its
        connection, so a batch in flight on it goes back to the head of
        the round's queue — and the subprocess is stopped after.
        Returns the retired address, or ``None`` at the floor.
        """
        with self._scale_lock:
            if len(self._spawned) <= self.min_workers:
                return None
            worker = self._spawned.pop()
            self.scale_downs += 1
        self._scheduler.fleet.wire.remove_host(worker.address)
        worker.stop()
        _log.info("autoscaler retired worker %s", worker.address)
        return worker.address

    def _autoscale_loop(self) -> None:
        """Sample the backlog every window until the service stops."""
        while not self._closing.wait(self.scale_window_seconds):
            self._autoscale_tick()

    def _autoscale_tick(self) -> None:
        """One scale decision off the scheduler's queued-segment depth.

        Scale up while more than one round budget's worth of segments
        is queued (the fleet is at least a full round behind); scale
        down one worker after two consecutive windows with an empty
        queue and no active jobs, so a short lull between rounds of
        one job never churns the fleet.
        """
        backlog = self._scheduler.pending_segments
        if backlog > self._scheduler.round_budget:
            self._idle_windows = 0
            self.scale_up()
            return
        if backlog == 0 and self.jobs_active == 0:
            self._idle_windows += 1
            if self._idle_windows >= 2:
                if self.scale_down() is not None:
                    self._idle_windows = 0
        else:
            self._idle_windows = 0

    # -- connection handling ---------------------------------------------------

    def open_session(self, peer: str) -> dict:
        """The accounting record of the connection's peer address,
        shared by all its connections."""
        with self._lock:
            entry = self._peers.setdefault(
                peer,
                {
                    "connections": 0,
                    "jobs_completed": 0,
                    "jobs_failed": 0,
                    "jobs_active": 0,
                    "rejections": 0,
                    "bytes_received": 0,
                    "bytes_sent": 0,
                },
            )
            entry["connections"] += 1
        return entry

    def _count(self, session: dict, name: str, n: int) -> None:
        """Count for the server and for the peer (to whom an auth
        failure is one more rejection)."""
        super()._count(session, name, n)
        session["rejections" if name == "auth_failures" else name] += n

    def handle(
        self, session: dict, frame_type: int, payload: bytes
    ) -> Optional[bytes]:
        """JOB and STATUS."""
        if frame_type == FRAME_JOB:
            return self._answer_job(payload, session)
        if frame_type == FRAME_STATUS:
            return pack_frame(
                FRAME_STATUS, json.dumps(self.status()).encode("utf-8")
            )
        return None

    # -- job execution ---------------------------------------------------------

    def _retry_after_hint(self) -> float:
        """A BUSY frame's suggested delay: the mean recent job latency
        clamped to a sane band (caller holds the lock)."""
        if not self._latencies:
            return 0.1
        mean = sum(self._latencies) / len(self._latencies)
        return min(2.0, max(0.05, mean))

    def _admit_job(self, peer: dict) -> Optional[bytes]:
        """Reserve an active-job slot, or the BUSY frame refusing it.

        The check and the reservation happen under one lock acquisition
        so two racing connections cannot both squeeze past the same
        last slot.
        """
        with self._lock:
            busy = None
            if (
                self.max_active_jobs is not None
                and self.jobs_active >= self.max_active_jobs
            ):
                busy = (
                    BUSY_MAX_ACTIVE,
                    f"all {self.max_active_jobs} job slots are busy",
                )
            elif (
                self.max_jobs_per_peer is not None
                and peer["jobs_active"] >= self.max_jobs_per_peer
            ):
                busy = (
                    BUSY_PEER_QUOTA,
                    f"client already has {peer['jobs_active']} jobs in "
                    "flight",
                )
            elif (
                self.max_pending_rounds is not None
                and self._scheduler.pending_requests >= self.max_pending_rounds
            ):
                busy = (
                    BUSY_QUEUE_FULL,
                    f"scheduler queue is at its cap of "
                    f"{self.max_pending_rounds}",
                )
            if busy is not None:
                self.jobs_rejected += 1
                peer["rejections"] += 1
                kind, message = busy
                return pack_frame(
                    FRAME_BUSY,
                    pack_busy_payload(kind, self._retry_after_hint(), message),
                )
            self.jobs_active += 1
            peer["jobs_active"] += 1
            # jobs in flight finish on the table and memo they have
            if self._table.full or self._memo is not None and self._memo.full:
                self._table = GateTable()
                self._memo = _Memo() if self._memo is not None else None
            return None

    def _answer_job(self, payload: bytes, peer: dict) -> bytes:
        """The reply frame for one JOB request.

        The circuit is arrays on both sides of the driver (wire arrays
        -> ids of the daemon's table -> rounds -> ids -> wire arrays).
        What ``Gate`` rejects is rejected when the job's wire values
        the table has not seen are interned, one ``Gate`` each — a
        rejected value gets no row; what ``Gate`` lets through is
        checked first, on whole arrays.
        """
        try:
            (
                job_tag,
                omega,
                num_qubits,
                max_rounds,
                encoded,
                priority,
            ) = unpack_job_payload(payload)
        except FrameProtocolError as exc:
            return error_frame(ERR_BAD_FRAME, str(exc))
        refusal = self._admit_job(peer)
        if refusal is not None:
            return refusal
        with self._lock:  # a pair: replaced together, under this lock
            table, memo = self._table, self._memo
        t0 = time.perf_counter()
        try:
            qubits, top = encoded.qubits, np.inf if num_qubits is None else num_qubits
            if qubits.size and not 0 <= qubits.min() <= qubits.max() < top:
                raise ValueError(f"a qubit is outside the register ({num_qubits=})")
            if not np.isfinite(encoded.params).all():
                raise ValueError("a rotation angle is not a finite number")
            front, fleet = self._scheduler.front(self.oracle), self._scheduler.fleet
            steps = popqc_rounds(
                LazySegmentResult.from_ids(table.ids_from_encoded(encoded), table),
                omega,
                max_rounds=max_rounds,
                transport=fleet.transport,
                workers=fleet.workers,
                counters=front.counters if front is not None else dict,
                memo=memo,
            )
            result = self._scheduler.run(steps, self.oracle, front, priority)
            if memo is not None:  # STATUS counts the memo's answers as hits
                self.cache.note_hits(result.stats.counters["cache_memo_hits"])
            out = result.gates.encoded()
        except Exception as exc:  # noqa: BLE001 - forwarded to the client
            self._tally(peer, jobs_active=-1, jobs_failed=1)
            return error_frame(ERR_JOB_FAILED, repr(exc))
        elapsed = time.perf_counter() - t0  # admission to reply arrays ready
        stats_json = json.dumps(
            self._job_stats(result.stats, elapsed, priority)
        ).encode("utf-8")
        with self._lock:
            self._latencies.append(elapsed)
        self._tally(peer, jobs_active=-1, jobs_completed=1)
        return pack_frame(
            FRAME_RESULT, pack_result_payload(job_tag, stats_json, out)
        )

    @staticmethod
    def _job_stats(stats, wall_seconds: float, priority: int = 1) -> dict:
        """The per-job stats object shipped in a RESULT frame."""
        return {
            "initial_gates": stats.initial_gates,
            "final_gates": stats.final_gates,
            "gate_reduction": stats.gate_reduction,
            "rounds": stats.rounds,
            "oracle_calls": stats.oracle_calls,
            "oracle_calls_saved": stats.oracle_calls_saved,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "cache_hit_rate": stats.cache_hit_rate,
            "cache_bytes_saved": stats.cache_bytes_saved,
            "cache_lookup_seconds": stats.cache_lookup_seconds,
            "transport": stats.transport,
            "workers": stats.workers,
            "total_seconds": stats.total_time,
            "wall_seconds": wall_seconds,
            "priority": priority,
        }

    def status(self) -> dict:
        """The server-status object answered to STATUS frames."""
        with self._lock:
            latencies = list(self._latencies)
            status = {
                "address": self.address,
                "uptime_seconds": time.monotonic() - self._started,
                "jobs_completed": self.jobs_completed,
                "jobs_failed": self.jobs_failed,
                "jobs_active": self.jobs_active,
                "admission": {
                    "auth_required": self._auth_token is not None,
                    "auth_failures": self.auth_failures,
                    "max_active_jobs": self.max_active_jobs,
                    "max_jobs_per_peer": self.max_jobs_per_peer,
                    "max_pending_rounds": self.max_pending_rounds,
                    "jobs_rejected": self.jobs_rejected,
                },
                "clients": {
                    addr: dict(entry) for addr, entry in self._peers.items()
                },
            }
        status["scheduler"] = {
            "rounds_dispatched": self._scheduler.rounds_dispatched,
            "requests_merged": self._scheduler.requests_merged,
            "segments_dispatched": self._scheduler.segments_dispatched,
            "pending_segments": self._scheduler.pending_segments,
        }
        fleet = self._scheduler.fleet
        status["fleet"] = {
            "workers": fleet.workers,
            "transport": fleet.transport,
            "hosts": list(fleet.hosts),
        }
        status["cache"] = (
            self.cache.stats.as_dict() if self.cache is not None else None
        )
        with self._scale_lock:
            spawned = [worker.address for worker in self._spawned]
        status["autoscale"] = {
            "enabled": self.max_workers is not None,
            "min_workers": self.min_workers,
            "max_workers": self.max_workers,
            "scale_window_seconds": self.scale_window_seconds,
            "spawned_workers": spawned,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "scale_failures": self.scale_failures,
        }
        status["job_latency"] = {
            "count": len(latencies),
            "mean_seconds": sum(latencies) / len(latencies) if latencies else 0.0,
            "max_seconds": max(latencies) if latencies else 0.0,
            "last_seconds": latencies[-1] if latencies else 0.0,
        }
        return status

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"OptimizationService({self.address}, "
            f"jobs={self.jobs_completed}, active={self.jobs_active})"
        )
