"""The five workloads: inputs, set-up, timed section, traced passes.

A *job* is one request to optimize one circuit — a direct ``popqc()``
call on the batch workloads, a ``ServiceClient.optimize`` round trip on
the served ones — and a *block* is one pass over the workload's suite
(one job per ``family:size`` slot).  Timed sections run whole blocks
until ``--seconds`` have elapsed, so the job mix of every run is the
same whatever the machine's speed; only the block count varies.

Everything the program under test receives is a generated circuit: the
seed never reaches ``src/``.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import itertools
import os
import random
import threading
import time
from typing import Any, Optional

import checks
import daemon
from repro import NamOracle, ProcessMap, SerialMap, popqc
from repro.benchgen import family_names, generate
from repro.circuits import Circuit
from repro.service import ServiceClient
from spans import Recorder, TracedMap, TracedOracle

#: The only scale parameter: pool workers, daemon ``--workers`` and client
#: connections are all ``W``.
W = min(4, os.cpu_count() or 1)

_FAMILIES = tuple(family_names())
#: Every instance 11k-38k gates: the index-2 BWT and Sqrt alone would be
#: 40 % of a pass, so those two run at index 1.
TABLE1_MID = tuple((f, 1 if f in ("BWT", "Sqrt") else 2) for f in _FAMILIES)
TABLE1_SMALL = tuple((f, 1) for f in _FAMILIES)
#: Untimed warm-up pass: three small index-0 instances, enough to spawn
#: the pool, register the oracle and fill lazily built rule tables.
WARMUP = (("Grover", 0), ("Shor", 0), ("VQE", 0))
#: ``--smoke`` replaces every suite with four index-0 instances.
SMOKE = (("Grover", 0), ("Shor", 0), ("StateVec", 0), ("VQE", 0))

#: A served workload always finishes this many blocks, so the fixed input
#: set ``gate_reduction`` is computed over never depends on speed.
MIN_SERVE_BLOCKS = 3
#: Unique blocks generated for ``serve_cold`` (48 jobs); the timed
#: section ends early if they run out.
COLD_BLOCKS = 6
#: Fresh blocks the traced served section runs.
TRACE_BLOCKS = 2
JOB_TIMEOUT_S = 60.0
#: Segments of the recorded stream each per-segment probe times.
PROBE_SEGMENTS = 400
SMOKE_PROBE_SEGMENTS = 32


def now() -> float:
    """The benchmark's clock."""
    return time.perf_counter()


@dataclasses.dataclass(frozen=True)
class Job:
    """One request: ``key`` names the distinct input, ``tag`` this attempt."""

    slot: str
    key: str
    tag: str
    circuit: Circuit


@dataclasses.dataclass
class Sample:
    """The outcome of one job, as its caller saw it."""

    job: Job
    wall: float
    final_gates: int = 0
    digest: str = ""
    stats: Any = None
    error: Optional[str] = None


@dataclasses.dataclass
class TracedPass:
    """One pass with spans on: its samples, its spans, what it recorded."""

    samples: list[Sample]
    recorder: Recorder
    #: The executor proxy of an in-process pass (its ``rounds`` are the
    #: recorded segment stream); ``None`` for a served section.
    proxy: Optional[TracedMap] = None
    #: Seconds it took to start that pass's executor.
    pool_start_s: float = 0.0
    #: Speed factor of the machine while the pass ran (see ``speed``).
    speed: float = 1.0
    #: Served section only: STATUS before and after, BUSY frames absorbed.
    status: tuple = ()
    busy_rejections: int = 0


def make_jobs(suite, seed: int, suffix: str = "") -> list[Job]:
    """One generated circuit per ``(family, size index)`` of ``suite``."""
    return [
        Job(
            slot=f"{family}:{index}",
            key=f"{family}:{index}{suffix}",
            tag=f"{family}:{index}{suffix}",
            circuit=generate(family, index, seed=seed),
        )
        for family, index in suite
    ]


def attempt(job: Job, number) -> Job:
    """``job`` re-tagged as one more attempt at the same input."""
    return dataclasses.replace(job, tag=f"{job.key}@{number}")


def completed(job: Job, wall: float, circuit: Circuit, stats, outputs: dict) -> Sample:
    """The sample of a job that returned ``circuit``.

    ``outputs`` keeps the first output circuit per distinct input for
    the checks; later repeats keep only their digest.
    """
    outputs.setdefault(job.key, circuit)
    return Sample(job, wall, len(circuit.gates), checks.digest(circuit), stats)


def _span(recorder: Optional[Recorder], name: str, **kwargs):
    """A span when tracing, nothing at all when not."""
    if recorder is None:
        return contextlib.nullcontext()
    return recorder.span(name, **kwargs)


def direct_pass(
    jobs, omega: int, pmap, oracle, outputs: dict, recorder=None
) -> list[Sample]:
    """One in-process ``popqc()`` per job; the batch workloads' block."""
    samples = []
    for job in jobs:
        gates = len(job.circuit.gates)
        with _span(recorder, "circuit", request=job.tag, gates=gates):
            with _span(recorder, "core.popqc") as span:
                started = now()
                try:
                    result = popqc(job.circuit, oracle, omega, parmap=pmap)
                except Exception as exc:  # a failed job is a result, not a crash
                    samples.append(Sample(job, now() - started, error=repr(exc)))
                    continue
                wall = now() - started
                if span is not None:
                    span["counts"].update(
                        rounds=result.stats.rounds,
                        segments=result.stats.oracle_calls,
                    )
        samples.append(completed(job, wall, result.circuit, result.stats, outputs))
    return samples


def start_executor(pooled: bool, oracle, head) -> tuple[object, float]:
    """A started executor and the seconds starting it took.

    ``head`` is a short gate list; mapping ``2W + 1`` copies of it is
    wider than ``ProcessMap``'s serial cutoff, so the pool really
    starts and every worker registers the oracle.
    """
    started = now()
    if pooled:
        pmap = ProcessMap(workers=W, transport="encoded")
        pmap.map_segments(oracle, [head] * (2 * W + 1))
    else:
        pmap = SerialMap()
        pmap.map(oracle, [head])
    return pmap, now() - started


class Workload:
    """What both kinds of workload share; ``smoke`` shrinks every size."""

    def __init__(self, name: str, suite, smoke: bool, setup_repeats: int):
        self.name = name
        self.suite = SMOKE if smoke else suite
        #: Set-up runs this many times; ``setup_s`` is the median.
        self.setup_repeats = 1 if smoke else setup_repeats
        self.probe_segments = SMOKE_PROBE_SEGMENTS if smoke else PROBE_SEGMENTS
        self.oracle = NamOracle()
        #: First output circuit per distinct input, for the checks.
        self.outputs: dict[str, Circuit] = {}


class BatchWorkload(Workload):
    """Whole-circuit ``popqc()`` calls on one executor, suite after suite."""

    kind = "batch"

    def __init__(self, name: str, suite, omega: int, pooled: bool, smoke: bool):
        super().__init__(name, suite, smoke, setup_repeats=3)
        self.omega = omega
        self.pooled = pooled
        self.workers = W if pooled else 1
        self.pmap = None

    def setup(self, seed: int, trace: bool) -> None:
        """Generate the suite, start the executor, run the warm-up pass."""
        started = now()
        self.jobs = make_jobs(self.suite, seed)
        warmup = make_jobs(WARMUP, seed)
        self.generate_s = now() - started
        head = list(warmup[0].circuit.gates[:8])
        self.pmap, self.pool_start_s = start_executor(self.pooled, self.oracle, head)
        direct_pass(warmup, self.omega, self.pmap, self.oracle, {})

    def close(self) -> None:
        """Shut the executor down and wait for its workers."""
        if self.pmap is not None:
            self.pmap.close()

    @property
    def fixed_inputs(self) -> list[Job]:
        """The inputs every run optimizes at least once."""
        return self.jobs

    reference_jobs = fixed_inputs

    def timed(self, seconds: float) -> tuple[list[list[Sample]], float]:
        """Whole passes over the suite until ``seconds`` have elapsed."""
        blocks = []
        started = now()
        while True:
            jobs = [attempt(job, len(blocks)) for job in self.jobs]
            blocks.append(
                direct_pass(jobs, self.omega, self.pmap, self.oracle, self.outputs)
            )
            if now() - started >= seconds:
                return blocks, now() - started

    def traced(self) -> TracedPass:
        """One more pass on the same warm executor, with spans on.

        Under ``SerialMap`` the oracle is wrapped too, so this pass also
        yields the ``oracles.call`` spans and the recorded segment
        stream; a pool run keeps the plain oracle.
        """
        recorder = Recorder()
        proxy = TracedMap(self.pmap, recorder)
        oracle = self.oracle if self.pooled else TracedOracle(self.oracle, recorder)
        jobs = [attempt(job, "traced") for job in self.jobs]
        with recorder.span("workload", request=self.name):
            samples = direct_pass(
                jobs, self.omega, proxy, oracle, self.outputs, recorder
            )
        return TracedPass(samples, recorder, proxy, self.pool_start_s)


class ServeWorkload(Workload):
    """Closed-loop clients against a child ``popqc serve`` daemon.

    ``W`` blocking connections each submit their next job only when the
    previous result has arrived: a connection carries one job at a
    time, so there is no arrival schedule to fall behind, and latency
    is submit to result.  The load generator is this one process with
    ``W`` threads.
    """

    kind = "serve"
    omega = 100
    workers = W

    def __init__(self, name: str, warm: bool, smoke: bool):
        super().__init__(name, TABLE1_SMALL, smoke, setup_repeats=2)
        self.warm = warm
        self.min_blocks = 1 if smoke else MIN_SERVE_BLOCKS
        self.cold_blocks = 2 if smoke else COLD_BLOCKS
        self.trace_blocks = 1 if smoke else TRACE_BLOCKS
        self._stack = contextlib.ExitStack()

    def setup(self, seed: int, trace: bool) -> None:
        """Generate the jobs, start the daemon, connect, warm or prime it."""
        self._rng = random.Random(seed)
        started = now()
        if self.warm:
            self.distinct = make_jobs(self.suite, seed)
            self._unique = []
        else:
            count = self.cold_blocks + (self.trace_blocks if trace else 0)
            self._unique = [
                make_jobs(self.suite, self._rng.getrandbits(31), f"#b{b}")
                for b in range(count)
            ]
            self.distinct = [j for block in self._unique for j in block]
            warmup = make_jobs(WARMUP, seed)
        self.generate_s = now() - started
        self._replays = 0
        self.daemon = self._stack.enter_context(daemon.serve(W))
        self.control = self._client()
        self.clients = [self._client() for _ in range(W)]
        # serve_warm's priming is its warm-up: every segment of the
        # replayed circuits is in the daemon's cache afterwards
        first = self.distinct if self.warm else warmup
        failed = [s for s in self._closed_loop([first], 0.0, 1, {})[0][0] if s.error]
        if failed:
            raise RuntimeError(f"set-up job failed: {failed[0].error}")

    def _client(self) -> ServiceClient:
        client = ServiceClient(self.daemon.address, request_timeout=JOB_TIMEOUT_S)
        self._stack.callback(client.close)
        return client.connect()

    def close(self) -> None:
        """Close the connections, then stop the daemon and wait for it."""
        self._stack.close()

    @property
    def fixed_inputs(self) -> list[Job]:
        """The inputs every run optimizes at least once."""
        if self.warm:
            return self.distinct
        return [j for block in self._unique[: self.min_blocks] for j in block]

    @property
    def reference_jobs(self) -> list[Job]:
        """One job per family, also optimized standalone as the reference."""
        return self.distinct[: len(self.suite)]

    def _replay_blocks(self):
        """``serve_warm``'s endless blocks: the primed circuits, reshuffled."""
        while True:
            self._replays += 1
            block = [attempt(job, self._replays) for job in self.distinct]
            self._rng.shuffle(block)
            yield block

    def timed(self, seconds: float) -> tuple[list[list[Sample]], float]:
        """Blocks submitted closed-loop until ``seconds`` have elapsed."""
        blocks = (
            self._replay_blocks() if self.warm else self._unique[: self.cold_blocks]
        )
        return self._closed_loop(blocks, seconds, self.min_blocks, self.outputs)

    def traced(self) -> TracedPass:
        """Fresh blocks through the same daemon with client-side spans on."""
        blocks = (
            itertools.islice(self._replay_blocks(), self.trace_blocks)
            if self.warm
            else self._unique[self.cold_blocks :]
        )
        recorder = Recorder()
        before, busy = self.control.status(), self._busy_rejections()
        with recorder.span("workload", request=self.name) as root:
            done, _ = self._closed_loop(
                blocks, 0.0, self.trace_blocks, self.outputs, recorder, root
            )
        return TracedPass(
            [s for block in done for s in block],
            recorder,
            status=(before, self.control.status()),
            busy_rejections=self._busy_rejections() - busy,
        )

    def _busy_rejections(self) -> int:
        return sum(client.busy_rejections for client in self.clients)

    def _closed_loop(
        self, blocks, seconds, min_blocks, outputs, recorder=None, root=None
    ) -> tuple[list[list[Sample]], float]:
        """Run ``W`` client threads over ``blocks``; return samples per block.

        A new block is opened only at a block boundary, and only while
        fewer than ``min_blocks`` are done or the deadline has not
        passed; jobs of an open block are always finished.
        """
        source = iter(blocks)
        lock = threading.Lock()
        pending: list[tuple[int, Job]] = []
        done: list[list[Sample]] = []
        started = now()

        def pull() -> Optional[tuple[int, Job]]:
            with lock:
                if not pending:
                    if len(done) >= min_blocks and now() - started >= seconds:
                        return None
                    block = next(source, None)
                    if block is None:
                        return None
                    pending.extend((len(done), job) for job in reversed(block))
                    done.append([])
                return pending.pop()

        def client_loop(client: ServiceClient) -> None:
            while (item := pull()) is not None:
                index, job = item
                sample = self._submit(client, job, outputs, recorder, root)
                with lock:
                    done[index].append(sample)

        with concurrent.futures.ThreadPoolExecutor(W) as pool:
            for future in [pool.submit(client_loop, c) for c in self.clients]:
                future.result()
        return done, now() - started

    def _submit(self, client, job, outputs, recorder, root) -> Sample:
        """One blocking ``optimize`` round trip, timed from the client."""
        gates = len(job.circuit.gates)
        with _span(recorder, "job", request=job.tag, parent=root, gates=gates) as span:
            started = now()
            try:
                result = client.optimize(job.circuit, omega=self.omega)
            except Exception as exc:  # refused, timed out, torn frame: a failed job
                client.close()  # the next job reconnects
                return Sample(job, now() - started, error=repr(exc))
            wall = now() - started
            if span is not None:
                span["counts"].update(
                    server_wall_s=result.stats["wall_seconds"],
                    rounds=result.stats["rounds"],
                    segments=result.stats["oracle_calls"],
                    cache_hits=result.stats["cache_hits"],
                )
        return completed(job, wall, result.circuit, result.stats, outputs)


def serial_reference(workload, jobs) -> TracedPass:
    """Standalone serial ``popqc()`` of ``jobs``: the byte-identity reference.

    It runs with spans on, so it is also the serial replay that pool
    and served runs take their ``oracles.call`` spans and their segment
    stream from.
    """
    recorder = Recorder()
    pmap, start_s = start_executor(False, workload.oracle, [])
    proxy = TracedMap(pmap, recorder)
    oracle = TracedOracle(workload.oracle, recorder)
    with recorder.span("workload", request=f"{workload.name}/serial-reference"):
        samples = direct_pass(jobs, workload.omega, proxy, oracle, {}, recorder)
    return TracedPass(samples, recorder, proxy, start_s)


def build(name: str, smoke: bool):
    """The workload object for ``name``."""
    if name == "batch_serial":
        return BatchWorkload(name, TABLE1_MID, 100, False, smoke)
    if name == "batch_procs":
        return BatchWorkload(name, TABLE1_MID, 100, True, smoke)
    if name == "batch_fine":
        return BatchWorkload(name, TABLE1_SMALL, 25, True, smoke)
    if name == "serve_cold":
        return ServeWorkload(name, False, smoke)
    if name == "serve_warm":
        return ServeWorkload(name, True, smoke)
    raise ValueError(f"unknown workload {name!r}")
