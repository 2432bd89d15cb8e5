"""Parallelism substrate: the parmap protocol, executors and scheduling.

POPQC's only parallel primitive is an order-preserving map over oracle
segments (paper Section 2.4).  Four executors implement it:
:class:`SerialMap` (the reference), :class:`ThreadMap`,
:class:`SimulatedParallelism` (serial execution with p-worker makespan
accounting, for the scaling experiments) and :class:`ProcessMap`, the
oracle-transport executor, whose ``transport=`` picks how a segment
reaches a worker — ``"encoded"`` (default: one packed blob per batch
through the pool pipe), ``"shm"`` (pooled shared-memory arenas),
``"threads"``, ``"pickle"`` (the seed behaviour, a benchmark baseline)
or ``"socket"`` (:mod:`repro.parallel.dist`, TCP frames to ``popqc
worker`` hosts).  Every rung is byte-identical; the class docstring has
the details, ``README.md`` the matrix.

The POPQC driver reaches an executor through one seam:
``map_segments(oracle, segments)`` when the executor provides it,
``map(oracle, segments)`` otherwise.  ``map_segments`` speaks
:class:`LazySegmentResult` both ways: segments go in as ids into the
driver's gate table and come back in the wire format, staying there
until a driver reads them — the acceptance test needs only ``len()``
(the packed header), so rejected oracle outputs are never decoded
(:class:`DecodeStats`, ``OptimizationStats.skipped_decode_bytes``).
Chunk and batch sizes adapt to measured per-segment oracle time
(:func:`adaptive_chunksize` / :func:`batch_segments`), and every task
carries an oracle generation token so a stale worker fails loudly
(:class:`StaleOracleError`).

Above the executors sits the content-addressed segment result cache
(:mod:`repro.service.cache`): a :class:`ProcessMap` constructed with
``cache=`` answers repeated segments from it, on every transport
identically, keyed by :func:`oracle_fingerprint`.
"""

from .dist import (
    AuthenticationError,
    CacheClient,
    FrameProtocolError,
    RemoteOracleError,
    SocketHostPool,
    WorkerHost,
    WorkerUnavailableError,
    local_cluster,
)
from .executor import (
    TRANSPORTS,
    ParallelMap,
    ProcessMap,
    SerialMap,
    StaleOracleError,
    ThreadMap,
    default_workers,
    oracle_fingerprint,
)
from .results import DecodeStats, LazySegmentResult
from .scheduling import (
    adaptive_chunksize,
    batch_segments,
    greedy_makespan,
    ideal_makespan,
    lpt_makespan,
)
from .shm import HAVE_SHM, ShmArenaPool, StaleArenaError
from .simulated import SimulatedParallelism

__all__ = [
    "HAVE_SHM",
    "TRANSPORTS",
    "AuthenticationError",
    "CacheClient",
    "DecodeStats",
    "FrameProtocolError",
    "LazySegmentResult",
    "ParallelMap",
    "ProcessMap",
    "RemoteOracleError",
    "SerialMap",
    "ShmArenaPool",
    "SimulatedParallelism",
    "SocketHostPool",
    "StaleArenaError",
    "StaleOracleError",
    "ThreadMap",
    "WorkerHost",
    "WorkerUnavailableError",
    "local_cluster",
    "adaptive_chunksize",
    "batch_segments",
    "default_workers",
    "greedy_makespan",
    "ideal_makespan",
    "lpt_makespan",
    "oracle_fingerprint",
]
