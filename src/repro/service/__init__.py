"""The ``popqc serve`` layer: a persistent optimization service.

:mod:`repro.parallel` is the per-run hot path — five oracle transports
from in-process pipes to multi-host sockets, all carrying the same
packed wire format byte-identically.  This package is the layer above:
a long-running daemon (``popqc serve``) that multiplexes many
concurrent optimization *jobs* over one warm worker fleet, and never
pays the oracle twice for a segment it has already optimized.

* :mod:`repro.service.cache` — a content-addressed **segment result
  cache**: a fingerprint of a segment's content (its rows' value
  digests, or its packed wire bytes) → the oracle's answer (kept as
  ids in memory, packed on disk), with an in-memory LRU in front of an
  optional disk store that survives server restarts, read and written
  only through a job's :class:`CacheFront`.
* :mod:`repro.service.scheduler` — the cross-job round scheduler:
  each job is a POPQC round machine (:func:`repro.core.popqc_rounds`,
  with the daemon's memo) whose rounds are looked up on the job's own
  cache front; one dispatcher merges every waiting job's misses into
  shared rounds of the one persistent fleet's ``map_segments`` and
  advances each answered job.
* :mod:`repro.service.frames` — the JOB/RESULT/STATUS/BUSY payloads,
  spoken only here, on :mod:`repro.parallel.frames`' codec.
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  ``popqc serve`` daemon (a :class:`repro.parallel.FrameServer`) and
  the :class:`ServiceClient` / ``popqc submit`` side of it (a
  :class:`repro.parallel.FrameConnection`).
"""

from .cache import CacheFront, CacheStats, SegmentCache, oracle_namespace
from .client import JobResult, ServiceClient
from .frames import ServiceBusyError, ServiceError
from .scheduler import FleetScheduler
from .server import OptimizationService, SubprocessWorker

__all__ = [
    "CacheFront",
    "CacheStats",
    "FleetScheduler",
    "JobResult",
    "OptimizationService",
    "SegmentCache",
    "ServiceBusyError",
    "ServiceClient",
    "ServiceError",
    "SubprocessWorker",
    "oracle_namespace",
]
