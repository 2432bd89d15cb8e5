"""Parallelism substrate: the parmap protocol, executors and scheduling.

Architecture
------------
POPQC's only parallel primitive is an order-preserving map over oracle
segments (paper Section 2.4).  Four executors implement it:

* :class:`SerialMap` — the reference 1-worker executor.
* :class:`ThreadMap` — shared thread pool; useful when the oracle
  releases the GIL.
* :class:`ProcessMap` — the oracle-transport executor.  Segments reach
  workers through one of four *oracle transports*: ``"encoded"``
  (default) registers the oracle once per worker via a pool
  initializer and ships each segment as compact numpy arrays
  (:mod:`repro.circuits.encoding`), so per-round IPC is a few
  contiguous buffers; ``"shm"`` packs every round's segments into one
  pooled shared-memory arena (:mod:`repro.parallel.shm`) and
  dispatches batched ``(arena, start, end)`` descriptors
  (:func:`batch_segments`), so the pipe carries no segment bytes at
  all; ``"threads"`` runs oracle calls on a shared thread pool over
  the parent's own buffers — no pipes, no arenas, no oracle
  registration — which pays off when the oracle releases the GIL
  (the vectorized rule engine, :mod:`repro.oracles.vector_engine`);
  ``"pickle"`` re-pickles the oracle callable and every
  ``list[Gate]`` per call (the seed behaviour, kept as a benchmark
  baseline).  Chunk and batch sizes adapt to measured per-segment
  oracle time (:func:`adaptive_chunksize` / :func:`batch_segments`),
  and every process-pool task carries an oracle generation token so
  stale workers fail loudly (:class:`StaleOracleError`) instead of
  applying the wrong oracle.
* :class:`SimulatedParallelism` — serial execution with p-worker
  makespan accounting for the scaling experiments.

Oracle results come back as :class:`LazySegmentResult` handles that
stay in the wire format until a driver reads their gates: POPQC's
acceptance test needs only ``len()`` (answered from the packed
header), so rejected oracle outputs are never decoded.  The skipped
work is tracked by :class:`DecodeStats` and surfaced as
``OptimizationStats.skipped_decode_bytes``.

The POPQC driver reaches an executor through one seam:
``map_segments(oracle, segments)`` when the executor provides it
(currently :class:`ProcessMap`, whose ``transport=`` picks the wire
format), ``map(oracle, segments)`` otherwise.

The fifth transport completes the ladder: ``"socket"``
(:mod:`repro.parallel.dist`) carries the same packed bytes as
length-prefixed frames over TCP to ``popqc worker`` hosts — serial →
pool → shm → threads → multi-host, every rung byte-identical.

Above the ladder sits the content-addressed segment result cache
(:mod:`repro.service.cache`): any :class:`ProcessMap` constructed with
``cache=`` answers repeated segments from it — on every transport
identically — instead of paying the oracle again, keyed by
:func:`oracle_fingerprint` so entries are scoped per oracle
configuration.
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
