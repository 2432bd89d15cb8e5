"""The ``popqc serve`` frames: JOB, RESULT, STATUS and BUSY payloads.

The frame header, the frame-type table and the endpoints are
:mod:`repro.parallel.frames`'; this module holds the four payloads only
the optimization service speaks, with the error types its client
raises (all integers little-endian)::

    JOB        <QIIQI4x: job tag, omega, num qubits + 1, max rounds + 1,
               priority> + the circuit as one packed segment
    RESULT     <QI: job tag, stats-JSON nbytes> + stats JSON
               -- pad to 8 -- + the optimized circuit as one packed segment
    STATUS     empty payload as a request; utf-8 JSON as the reply
    BUSY       <Bxxxd: reason kind, suggested retry-after seconds>
               + utf-8 message

BUSY is the service's admission-control reply to a JOB the server
cannot take right now (active-job quota, per-client quota, or a
saturated scheduler queue); it names the reason and a suggested retry
delay, and :class:`~repro.service.ServiceClient` answers it with
bounded exponential backoff.
"""

from __future__ import annotations

import struct
from typing import Optional

from ..circuits.encoding import EncodedSegment, pack_segment, unpack_segment_from
from ..parallel.frames import FrameProtocolError

__all__ = [
    "BUSY_MAX_ACTIVE",
    "BUSY_PEER_QUOTA",
    "BUSY_QUEUE_FULL",
    "MAX_PRIORITY",
    "ServiceBusyError",
    "ServiceError",
    "pack_busy_payload",
    "pack_job_payload",
    "pack_result_payload",
    "unpack_busy_payload",
    "unpack_job_payload",
    "unpack_result_payload",
]

_JOB_HEADER = struct.Struct(
    "<QIIQI4x"
)  # job tag, omega, num qubits + 1, max rounds + 1, priority (pad to 8)
_RESULT_HEADER = struct.Struct("<QI")  # job tag, stats-JSON nbytes
_BUSY_HEADER = struct.Struct("<Bxxxd")  # reason kind, retry-after seconds

#: Reason kinds carried by BUSY frames (service admission control).
BUSY_MAX_ACTIVE = 1
BUSY_PEER_QUOTA = 2
BUSY_QUEUE_FULL = 3

#: Job priorities ride the wire as a small positive weight; anything a
#: client sends is clamped into this range before it buys fleet share.
MAX_PRIORITY = 16


class ServiceError(RuntimeError):
    """A job failed server-side; the message carries the remote repr."""


class ServiceBusyError(ServiceError):
    """The server refused the job with BUSY frames until the client's
    retry budget ran out (admission control: active-job quota,
    per-client quota, or a saturated scheduler queue)."""


def pack_busy_payload(kind: int, retry_after: float, message: str) -> bytes:
    """BUSY payload: reason kind + suggested retry delay + utf-8 message."""
    return _BUSY_HEADER.pack(kind, retry_after) + message.encode("utf-8")


def unpack_busy_payload(payload: bytes) -> tuple[int, float, str]:
    """(reason kind, retry-after seconds, message) from a BUSY payload."""
    if len(payload) < _BUSY_HEADER.size:
        raise FrameProtocolError("BUSY payload shorter than its header")
    kind, retry_after = _BUSY_HEADER.unpack_from(payload, 0)
    message = payload[_BUSY_HEADER.size :].decode("utf-8", "replace")
    return kind, retry_after, message


def pack_job_payload(
    job_tag: int,
    omega: int,
    num_qubits: Optional[int],
    max_rounds: Optional[int],
    encoded: EncodedSegment,
    priority: int = 1,
) -> bytes:
    """JOB payload: job header + the circuit as one packed segment.

    ``job_tag`` is a client-chosen identifier echoed in the RESULT
    frame.  ``num_qubits`` and ``max_rounds`` both wire ``None`` as 0
    and a value ``v`` as ``v + 1``, so an explicit 0 (a legal
    ``max_rounds`` meaning "zero rounds") survives the trip.
    ``priority`` is the job's scheduling weight (1..``MAX_PRIORITY``;
    clamped on both ends of the wire): a priority-4 job draws roughly
    4x the fleet share of a priority-1 job in each merged round.
    """
    head = _JOB_HEADER.pack(
        job_tag,
        omega,
        0 if num_qubits is None else num_qubits + 1,
        0 if max_rounds is None else max_rounds + 1,
        min(MAX_PRIORITY, max(1, priority)),
    )
    return head + pack_segment(encoded)


def unpack_job_payload(
    payload: bytes,
) -> tuple[int, int, Optional[int], Optional[int], EncodedSegment, int]:
    """(job tag, omega, num qubits, max rounds, circuit, priority)
    from a JOB payload.

    The circuit comes back as a zero-copy :class:`EncodedSegment` view
    into ``payload``.  The priority is clamped into
    ``[1, MAX_PRIORITY]`` — the sender is untrusted, and a forged
    weight must never buy more than the documented maximum share.
    Raises :class:`FrameProtocolError` on a torn payload.
    """
    if len(payload) < _JOB_HEADER.size:
        raise FrameProtocolError("JOB payload shorter than its header")
    job_tag, omega, nq1, mr1, priority = _JOB_HEADER.unpack_from(payload, 0)
    try:
        encoded, end = unpack_segment_from(payload, _JOB_HEADER.size)
    except (struct.error, ValueError) as exc:
        raise FrameProtocolError(f"torn JOB payload: {exc}") from exc
    if end > len(payload):
        raise FrameProtocolError("JOB payload truncated mid-circuit")
    return (
        job_tag,
        omega,
        nq1 - 1 if nq1 else None,
        mr1 - 1 if mr1 else None,
        encoded,
        min(MAX_PRIORITY, max(1, priority)),
    )


def pack_result_payload(
    job_tag: int, stats_json: bytes, encoded: EncodedSegment
) -> bytes:
    """RESULT payload: header + stats JSON + the packed optimized circuit.

    The packed circuit starts at the first 8-aligned offset after the
    JSON, so consecutive reads stay on the wire format's natural
    alignment.
    """
    head = _RESULT_HEADER.pack(job_tag, len(stats_json))
    gap = bytes(-(_RESULT_HEADER.size + len(stats_json)) % 8)
    return head + stats_json + gap + pack_segment(encoded)


def unpack_result_payload(
    payload: bytes,
) -> tuple[int, bytes, EncodedSegment]:
    """(job tag, stats JSON bytes, circuit) from a RESULT payload."""
    if len(payload) < _RESULT_HEADER.size:
        raise FrameProtocolError("RESULT payload shorter than its header")
    job_tag, json_len = _RESULT_HEADER.unpack_from(payload, 0)
    pos = _RESULT_HEADER.size + json_len
    if pos > len(payload):
        raise FrameProtocolError("RESULT payload shorter than its stats JSON")
    stats_json = bytes(payload[_RESULT_HEADER.size : pos])
    start = pos + (-pos) % 8
    try:
        encoded, end = unpack_segment_from(payload, start)
    except (struct.error, ValueError) as exc:
        raise FrameProtocolError(f"torn RESULT payload: {exc}") from exc
    if end > len(payload):
        raise FrameProtocolError("RESULT payload truncated mid-circuit")
    return job_tag, stats_json, encoded
