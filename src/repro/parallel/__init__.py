"""Parallelism substrate: the parmap protocol, executors and transports.

POPQC's only parallel primitive is an order-preserving map over oracle
segments (paper Section 2.4).  Three executors implement it:
:class:`SerialMap` (the reference), :class:`SimulatedParallelism`
(serial execution with p-worker makespan accounting, for the scaling
experiments) and :class:`ProcessMap`, the oracle-transport executor,
whose ``transport=`` names the :class:`Transport` class
(:data:`TRANSPORTS`) that carries a segment to a worker —
``"encoded"`` (default: a round's ids and rows, or its packed bytes,
through each child's pipe), ``"shm"`` (pooled shared-memory arenas),
``"threads"``, ``"pickle"`` (the seed behaviour, a benchmark baseline) or
``"socket"`` (TCP frames to ``popqc worker`` hosts).  Every rung is
byte-identical; :mod:`repro.parallel.transports` has the details.

The POPQC driver reaches an executor through one seam,
:class:`SegmentExecutor`: ``map_segments(oracle, segments)``,
``counters()``, ``transport`` and ``workers``
(:func:`segment_executor` adapts an executor that only has ``map``).
``map_segments`` speaks :class:`LazySegmentResult` both ways: segments
go in as ids into the driver's gate table and come back as ids of it
(an inline round) or in the wire format, staying there until a driver
reads them — the acceptance test
needs only ``len()`` (the packed header), so rejected oracle outputs
are never decoded (:class:`DecodeStats`).  A round wider than the
executor's ``serial_cutoff`` leaves the parent; on the local pool it is
a claim round, every stream taking the next segment as it frees up
(which stream answers follows the clock, output never does), and on
the socket transport it is cut into balance-only batches
(:func:`batch_segments`) that every host's dispatcher claims the same
way, one at a time.  Every message carries an oracle generation
token so a stale worker fails loudly (:class:`StaleOracleError`).

Modules, bottom up: :mod:`~repro.parallel.frames` (the frame codec,
:class:`FrameServer`, :class:`FrameConnection`),
:mod:`~repro.parallel.worker` (:class:`WorkerHost`, the ``popqc
worker`` daemon) and :mod:`~repro.parallel.hostpool` (its client
registry), :mod:`~repro.parallel.transports`,
:mod:`~repro.parallel.executor`.  Nothing here imports
:mod:`repro.service`, and nothing here caches a result: an executor
runs every segment it is handed (the run's memo and the daemon's
content cache sit in front of it, in :mod:`repro.core` and
:mod:`repro.service`).
"""

from .executor import (
    ParallelMap,
    ProcessMap,
    SegmentExecutor,
    SerialMap,
    default_workers,
    segment_executor,
)
from .frames import (
    AuthenticationError,
    FrameConnection,
    FrameProtocolError,
    FrameServer,
    RemoteOracleError,
    StaleOracleError,
    parse_address,
)
from .hostpool import SocketHostPool, WorkerUnavailableError
from .results import DecodeStats, LazySegmentResult
from .scheduling import batch_segments, greedy_makespan
from .shm import HAVE_SHM, ShmArenaPool, StaleArenaError
from .simulated import SimulatedParallelism
from .transports import TRANSPORTS, Transport
from .worker import WorkerHost, local_cluster

__all__ = [
    "HAVE_SHM",
    "TRANSPORTS",
    "AuthenticationError",
    "DecodeStats",
    "FrameConnection",
    "FrameProtocolError",
    "FrameServer",
    "LazySegmentResult",
    "ParallelMap",
    "ProcessMap",
    "RemoteOracleError",
    "SegmentExecutor",
    "SerialMap",
    "ShmArenaPool",
    "SimulatedParallelism",
    "SocketHostPool",
    "StaleArenaError",
    "StaleOracleError",
    "Transport",
    "WorkerHost",
    "WorkerUnavailableError",
    "local_cluster",
    "batch_segments",
    "default_workers",
    "greedy_makespan",
    "parse_address",
    "segment_executor",
]
