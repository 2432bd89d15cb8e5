"""Client side of the ``popqc serve`` protocol.

:class:`ServiceClient` is the Python API (``popqc submit`` is the CLI
wrapper): it packs a circuit into one JOB frame, blocks for the RESULT
frame, and returns the optimized circuit together with the server's
per-job stats object.  One client holds one connection; jobs on it run
sequentially, and concurrency comes from running several clients (the
server merges their rounds into shared fleet rounds).

Against a hardened server the client also speaks the admission
protocol: it presents the shared ``auth_token`` in an AUTH frame
immediately after connecting, and answers BUSY refusals with a bounded
exponential-backoff retry loop (``busy_retries`` attempts, sleeping
``max(server hint, backoff)`` between them) before giving up with
:class:`~repro.service.ServiceBusyError`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from ..circuits import Circuit
from ..circuits.encoding import encode_segment
from ..circuits.gate import Gate
from ..circuits.intern import GateTable
from ..parallel.frames import (
    FRAME_BUSY,
    FRAME_JOB,
    FRAME_RESULT,
    FRAME_STATUS,
    FrameConnection,
    FrameProtocolError,
)
from .frames import (
    ServiceBusyError,
    ServiceError,
    pack_job_payload,
    unpack_busy_payload,
    unpack_result_payload,
)

__all__ = ["JobResult", "ServiceClient"]

#: Hard ceiling on the server-supplied BUSY retry hint, in seconds.
#: The hint is untrusted wire input feeding ``time.sleep`` — the same
#: rule as the JOB priority clamp — so a forged huge value must not
#: stall a client beyond one polite minute per attempt.
MAX_RETRY_AFTER_SECONDS = 60.0


def _clamp_retry_after(retry_after: float) -> float:
    """Clamp a wire-supplied BUSY retry hint to a sane range.

    Negative values, NaN and other garbage read as 0.0 (the client's
    own backoff still applies); anything above
    :data:`MAX_RETRY_AFTER_SECONDS` — including infinity — is capped
    there.  ``not (x > 0.0)`` rather than ``x <= 0.0`` so NaN, which
    fails every comparison, lands in the safe branch.
    """
    if not (retry_after > 0.0):
        return 0.0
    return min(retry_after, MAX_RETRY_AFTER_SECONDS)


@dataclass
class JobResult:
    """One served job: the optimized circuit plus the server's stats.

    ``stats`` is the JSON object from the RESULT frame — gate counts,
    rounds, cache hit rate and oracle calls saved, server-side wall
    seconds (see ``OptimizationService._job_stats``).
    """

    circuit: Circuit
    stats: dict

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of this job's segments answered by the server cache."""
        return float(self.stats.get("cache_hit_rate", 0.0))


class ServiceClient(FrameConnection):
    """Blocking client for one ``popqc serve`` endpoint.

    A :class:`~repro.parallel.frames.FrameConnection` (context manager,
    lazy connect, AUTH on connect) with the service's requests.
    Server-side job failures raise
    :class:`~repro.service.ServiceError`; transport problems raise the
    frame-protocol errors of :mod:`repro.parallel.frames`; a missing or
    wrong ``auth_token`` raises
    :class:`~repro.parallel.AuthenticationError` (never retried).

    BUSY refusals are retried with exponential backoff, starting at
    ``busy_backoff_seconds`` and doubling up to
    ``busy_backoff_max_seconds``, at most ``busy_retries`` times; each
    sleep honours the server's suggested retry delay when it is
    longer.  ``busy_rejections`` counts every BUSY the client has
    absorbed (retried or not), for tests and capacity dashboards.

    RESULT frames decode through one :class:`~repro.circuits.intern.
    GateTable` per connection, so a gate value the connection has
    decoded before costs a dict probe and no new ``Gate``: results share
    their ``Gate`` objects (which are frozen).  The table is replaced
    before a result once it has passed :data:`~repro.circuits.intern.
    TABLE_CAP` entries, as a daemon replaces its own.  A JOB is encoded
    straight from its gates, never through the table: interning a
    circuit the connection has not seen costs more than encoding it.
    """

    refusal_error = ServiceError

    def __init__(
        self,
        address: str,
        connect_timeout: float = 5.0,
        request_timeout: Optional[float] = 600.0,
        auth_token: Optional[str] = None,
        busy_retries: int = 8,
        busy_backoff_seconds: float = 0.05,
        busy_backoff_max_seconds: float = 2.0,
    ):
        if busy_retries < 0:
            raise ValueError("busy_retries must be >= 0")
        super().__init__(address, connect_timeout, request_timeout, auth_token)
        self.busy_retries = busy_retries
        self.busy_backoff_seconds = busy_backoff_seconds
        self.busy_backoff_max_seconds = busy_backoff_max_seconds
        self.busy_rejections = 0
        self._job_tag = 0
        self._table = GateTable()  # decodes RESULTs; see the class docstring

    # -- requests --------------------------------------------------------------

    def optimize(
        self,
        circuit: Circuit | Sequence[Gate],
        omega: int = 100,
        max_rounds: Optional[int] = None,
        priority: int = 1,
    ) -> JobResult:
        """Submit one optimization job and block for its result.

        ``priority`` is this job's weight in the server's weighted-fair
        scheduler (clamped to ``[1, MAX_PRIORITY]`` on the wire):
        relative to the other jobs in flight it buys a proportionally
        larger share of every merged fleet round.
        """
        if isinstance(circuit, Circuit):
            gates, num_qubits = list(circuit.gates), circuit.num_qubits
        else:
            gates, num_qubits = list(circuit), None
        self._job_tag += 1
        tag = self._job_tag
        job = pack_job_payload(
            tag, omega, num_qubits, max_rounds, encode_segment(gates), priority
        )
        backoff = self.busy_backoff_seconds
        for attempt in range(self.busy_retries + 1):
            frame_type, payload = self.request(
                FRAME_JOB, job, FRAME_RESULT, FRAME_BUSY
            )
            if frame_type == FRAME_RESULT:
                break
            kind, retry_after, message = unpack_busy_payload(payload)
            retry_after = _clamp_retry_after(retry_after)
            self.busy_rejections += 1
            if attempt == self.busy_retries:
                raise ServiceBusyError(
                    f"server busy after {self.busy_retries} retries "
                    f"(kind {kind}): {message}"
                )
            time.sleep(min(self.busy_backoff_max_seconds, max(retry_after, backoff)))
            backoff = min(self.busy_backoff_max_seconds, backoff * 2)
        got_tag, stats_json, encoded = unpack_result_payload(payload)
        if got_tag != tag:
            raise FrameProtocolError(
                f"result tag {got_tag} does not match job tag {tag}"
            )
        if self._table.full:
            self._table = GateTable()
        table = self._table
        gates = table.gates_of(table.ids_from_encoded(encoded))
        return JobResult(
            circuit=Circuit(gates, num_qubits),
            stats=json.loads(stats_json.decode("utf-8")),
        )

    def status(self) -> dict:
        """The server's status object (jobs, cache, fleet, latency)."""
        _, payload = self.request(FRAME_STATUS, b"", FRAME_STATUS)
        return json.loads(payload.decode("utf-8"))
