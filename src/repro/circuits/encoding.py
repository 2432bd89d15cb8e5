"""Compact numpy-backed gate-segment encoding for IPC transport.

The POPQC driver ships 2Ω-gate segments to oracle workers every round.
Pickling a ``list[Gate]`` serializes one frozen dataclass per gate —
hundreds of per-object pickle opcodes and memo entries per segment, and
one Python-object reconstruction per gate on the other end.  This
module flattens a segment into a few parallel numpy arrays so a segment
crosses the process boundary as a handful of contiguous buffers.

The encoding is lossless: :func:`decode_segment` reconstructs a gate
list that compares equal (``==``) to the input of
:func:`encode_segment`, including gate names outside the base set and
arbitrary arities.  Parameters are stored bit-exactly as float64.

Layout of an :class:`EncodedSegment` with ``n`` gates:

``names``
    Tuple of distinct gate names appearing in the segment, in first-use
    order; the per-segment opcode table.
``ops``
    ``(n,)`` integer array; ``ops[i]`` indexes ``names``.  uint8 when
    the segment has at most 256 distinct names, int32 otherwise.
``arities``
    ``(n,)`` integer array of per-gate qubit counts (uint8 when every
    arity fits); gate ``i``'s qubits are the next ``arities[i]``
    entries of ``qubits``.
``qubits``
    Flat int32 array of qubit indices for all gates, concatenated.
``param_mask``
    Bit-packed (``numpy.packbits``) boolean array marking which gates
    carry a parameter.
``params``
    float64 array holding, in gate order, the parameters of exactly
    the gates whose mask bit is set.

:func:`encode_columns` builds the same arrays from per-gate columns (a
:class:`~repro.circuits.intern.GateTable`'s rows, the rule engine's
slots) and :func:`wire_columns` reads per-gate columns back, both in
numpy, so neither side builds a ``Gate`` to cross the wire.

Beyond the in-process dataclass, this module defines the segment *wire
format*: :func:`pack_segment_into` lays an :class:`EncodedSegment` out
as one contiguous, self-describing byte block, and
:func:`unpack_segment_from` reconstructs it as zero-copy numpy views
into the carrying buffer.  The shared-memory transport
(:mod:`repro.parallel.shm`) packs every round's segments into one arena
with this format; a future multi-host socket transport reuses the same
bytes over a different carrier.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .gate import Gate

__all__ = [
    "EncodedSegment",
    "encode_segment",
    "encode_columns",
    "decode_segment",
    "wire_columns",
    "encoded_nbytes",
    "packed_segment_nbytes",
    "pack_segment",
    "pack_segment_into",
    "unpack_segment_from",
    "packed_segment_span",
    "segment_fingerprint",
]


@dataclass(frozen=True, eq=False)
class EncodedSegment:
    """A gate segment flattened into parallel numpy arrays.

    Equality is value-based (array contents), not the dataclass
    default, which would trip over numpy's elementwise ``==``.
    Instances are not hashable.
    """

    names: tuple[str, ...]
    ops: np.ndarray
    arities: np.ndarray
    qubits: np.ndarray
    param_mask: np.ndarray
    params: np.ndarray
    length: int

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EncodedSegment):
            return NotImplemented
        return (
            self.length == other.length
            and self.names == other.names
            and np.array_equal(self.ops, other.ops)
            and np.array_equal(self.arities, other.arities)
            and np.array_equal(self.qubits, other.qubits)
            and np.array_equal(self.param_mask, other.param_mask)
            and np.array_equal(self.params, other.params)
        )

    @property
    def nbytes(self) -> int:
        """Approximate wire size of the array payload in bytes."""
        return (
            self.ops.nbytes
            + self.arities.nbytes
            + self.qubits.nbytes
            + self.param_mask.nbytes
            + self.params.nbytes
        )


def encode_segment(segment: Sequence[Gate]) -> EncodedSegment:
    """Flatten ``segment`` into an :class:`EncodedSegment`.

    Round-trips exactly through :func:`decode_segment` for any gate
    list, including empty segments and gates of arbitrary arity.
    """
    n = len(segment)
    opcodes: dict[str, int] = {}
    op_list: list[int] = []
    arity_list: list[int] = []
    mask = np.zeros(n, dtype=bool)
    flat_qubits: list[int] = []
    param_values: list[float] = []
    for i, g in enumerate(segment):
        code = opcodes.get(g.name)
        if code is None:
            code = opcodes[g.name] = len(opcodes)
        op_list.append(code)
        arity_list.append(len(g.qubits))
        flat_qubits.extend(g.qubits)
        if g.param is not None:
            mask[i] = True
            param_values.append(g.param)
    op_dtype = np.uint8 if len(opcodes) <= 256 else np.int32
    arity_dtype = np.uint8 if max(arity_list, default=0) <= 255 else np.int32
    return EncodedSegment(
        names=tuple(opcodes),
        ops=np.asarray(op_list, dtype=op_dtype),
        arities=np.asarray(arity_list, dtype=arity_dtype),
        qubits=np.asarray(flat_qubits, dtype=np.int32),
        param_mask=np.packbits(mask),
        params=np.asarray(param_values, dtype=np.float64),
        length=n,
    )


def encode_columns(
    names: Sequence[str],
    name_ids: np.ndarray,
    arity: np.ndarray,
    pairs: np.ndarray,
    has_param: np.ndarray,
    param: np.ndarray,
) -> EncodedSegment:
    """The :class:`EncodedSegment` of gates held as columns, array for
    array what :func:`encode_segment` returns on those gates (opcode
    table in first-use order, the same dtype choices).

    Gate ``i`` is ``names[name_ids[i]]`` on the first ``arity[i]`` (one
    or two) qubits of ``pairs[i]``, with ``param[i]`` where
    ``has_param[i]``.
    """
    used = list(dict.fromkeys(name_ids.tolist()))  # distinct, in first-use order
    opcode = np.empty(len(names), dtype=np.uint8 if len(used) <= 256 else np.int32)
    opcode[used] = np.arange(len(used))
    real = np.ones((len(arity), 2), dtype=bool)  # of (q0, q1) per gate
    real[:, 1] = arity == 2
    return EncodedSegment(
        names=tuple(map(names.__getitem__, used)),
        ops=opcode[name_ids],
        arities=arity.astype(np.uint8),
        qubits=pairs.reshape(-1)[real.reshape(-1)],
        param_mask=np.packbits(has_param),
        params=param[has_param],
        length=len(arity),
    )


def wire_columns(encoded: EncodedSegment) -> tuple[np.ndarray, ...]:
    """``(arity, first qubit, last qubit, has param, param or 0.0)`` per
    gate of ``encoded`` — whose gates must each act on one or two
    qubits — read in numpy.  ``ValueError`` when the parameter count
    disagrees with the mask."""
    n = encoded.length
    arity = encoded.arities.astype(np.int64)
    has_param = np.unpackbits(encoded.param_mask, count=n).view(bool)
    if len(encoded.params) != np.count_nonzero(has_param):
        raise ValueError("parameter count differs from the mask's")  # no broadcast
    param = np.zeros(n)
    param[has_param] = encoded.params
    end = np.cumsum(arity)
    return arity, encoded.qubits[end - arity], encoded.qubits[end - 1], has_param, param


def decode_segment(encoded: EncodedSegment) -> list[Gate]:
    """Reconstruct the gate list encoded by :func:`encode_segment`."""
    n = encoded.length
    names = encoded.names
    ops = encoded.ops.tolist()
    arities = encoded.arities.tolist()
    qubits = encoded.qubits.tolist()
    has_param = np.unpackbits(encoded.param_mask, count=n).tolist() if n else []
    params = encoded.params.tolist()
    gates: list[Gate] = []
    pos = 0
    next_param = 0
    for i in range(n):
        a = arities[i]
        param = None
        if has_param[i]:
            param = params[next_param]
            next_param += 1
        gates.append(Gate(names[ops[i]], tuple(qubits[pos : pos + a]), param))
        pos += a
    return gates


def encoded_nbytes(segment: Sequence[Gate]) -> int:
    """Wire size the encoded transport pays for ``segment`` (bytes)."""
    return encode_segment(segment).nbytes


# -- flat wire format ----------------------------------------------------------
#
# One EncodedSegment as a contiguous, self-describing byte block:
#
#   header   <IIIII: gates, names, qubit-index count, param count, flags
#            (flags bit0: ops are int32, bit1: arities are int32)
#   names    per name: <H byte length + utf-8 bytes
#   -- pad to 8 --
#   params   float64[param count]
#   qubits   int32[qubit-index count]
#   ops      uint8|int32[gates]        -- 4-aligned
#   arities  uint8|int32[gates]        -- 4-aligned
#   mask     uint8[ceil(gates / 8)]
#   -- pad to 8 --  (so consecutive segments stay 8-aligned)
#
# All sections are at naturally aligned offsets, so unpacking yields
# aligned zero-copy numpy views into the carrying buffer.

_PACK_HEADER = struct.Struct("<IIIII")
_NAME_LEN = struct.Struct("<H")
_FLAG_OPS_I32 = 1
_FLAG_ARITIES_I32 = 2


def _align(offset: int, alignment: int) -> int:
    return (offset + alignment - 1) & ~(alignment - 1)


@lru_cache(maxsize=256)  # a run's segments share a handful of name tuples
def _names_blob(names: tuple[str, ...]) -> bytes:
    parts = []
    for name in names:
        raw = name.encode("utf-8")
        parts.append(_NAME_LEN.pack(len(raw)))
        parts.append(raw)
    return b"".join(parts)


def packed_segment_nbytes(encoded: EncodedSegment) -> int:
    """Size of ``encoded`` in the flat wire format (8-byte aligned)."""
    return len(pack_segment(encoded))


def pack_segment(encoded: EncodedSegment) -> bytes:
    """``encoded`` in the flat wire format, as one byte string.

    The one writer of the layout above; pad bytes are zero, so the
    result is canonical (see :func:`segment_fingerprint`).
    """
    flags = 0
    if encoded.ops.dtype == np.int32:
        flags |= _FLAG_OPS_I32
    if encoded.arities.dtype == np.int32:
        flags |= _FLAG_ARITIES_I32
    head = _PACK_HEADER.pack(
        encoded.length,
        len(encoded.names),
        encoded.qubits.size,
        encoded.params.size,
        flags,
    )
    parts = [head, _names_blob(tuple(encoded.names))]
    pos = len(head) + len(parts[1])
    for arr, alignment in (
        (encoded.params, 8),
        (encoded.qubits, 4),
        (encoded.ops, 4),
        (encoded.arities, 4),
        (encoded.param_mask, 1),
    ):
        gap = -pos % alignment
        parts += (bytes(gap), arr.tobytes())
        pos += gap + arr.nbytes
    parts.append(bytes(-pos % 8))
    return b"".join(parts)


def pack_segment_into(encoded: EncodedSegment, buf, offset: int = 0) -> int:
    """Write ``encoded`` into ``buf`` at ``offset``; return the end offset.

    ``buf`` is any writable contiguous buffer (``bytearray``,
    ``memoryview``, ``SharedMemory.buf``).
    """
    packed = pack_segment(encoded)
    end = offset + len(packed)
    memoryview(buf)[offset:end] = packed
    return end


def packed_segment_span(buf, offset: int = 0) -> tuple[int, int]:
    """``(gate count, end offset)`` of the packed segment at ``offset``.

    Reads only the fixed header and the name-table length prefixes — no
    array views, no gate decoding.  This is what lazy result handling
    uses to copy a packed result out of a shared-memory arena (and to
    answer ``len()``) without ever unpacking a segment nobody accepted.
    """
    mv = memoryview(buf)
    n, num_names, num_qubits, num_params, flags = _PACK_HEADER.unpack_from(
        mv, offset
    )
    pos = offset + _PACK_HEADER.size
    for _ in range(num_names):
        (ln,) = _NAME_LEN.unpack_from(mv, pos)
        pos += _NAME_LEN.size + ln
    pos = _align(pos, 8)
    pos += 8 * num_params
    pos += 4 * num_qubits
    op_size = 4 if flags & _FLAG_OPS_I32 else 1
    arity_size = 4 if flags & _FLAG_ARITIES_I32 else 1
    pos = _align(pos, 4) + op_size * n
    pos = _align(pos, 4) + arity_size * n
    pos += -(-n // 8)
    return n, _align(pos, 8)


#: Digest size (bytes) of :func:`segment_fingerprint`.  128 bits keeps
#: the collision probability negligible for any realistic cache volume
#: (~2^64 distinct segments before a birthday collision is likely).
FINGERPRINT_BYTES = 16


def segment_fingerprint(packed, *, namespace: bytes = b"") -> str:
    """Canonical content fingerprint of one packed segment (hex string).

    ``packed`` is the segment in the flat wire format as produced by
    :func:`pack_segment_into` into a *zero-initialized* buffer — the
    layout is deterministic and padding bytes are zero there, so equal
    gate lists always hash equal and distinct gate lists hash distinct
    (up to blake2b collisions, i.e. never in practice).  Do not
    fingerprint bytes sliced out of a recycled shared-memory arena,
    where pad gaps may carry stale data: repack first.

    ``namespace`` is mixed into the keyed hash and scopes the
    fingerprint — the segment-result cache passes a digest of the
    oracle here, so two oracles can never answer from each other's
    cache entries.  Namespaces longer than blake2b's 64-byte key limit
    are compressed through a digest first (truncating would silently
    drop key material and could collapse two namespaces into one).
    """
    if len(namespace) > 64:
        namespace = hashlib.blake2b(namespace, digest_size=32).digest()
    digest = hashlib.blake2b(
        bytes(packed), digest_size=FINGERPRINT_BYTES, key=namespace
    )
    return digest.hexdigest()


def unpack_segment_from(buf, offset: int = 0) -> tuple[EncodedSegment, int]:
    """Read one packed segment from ``buf``; return it and the end offset.

    The returned segment's arrays are zero-copy *views* into ``buf``:
    they stay valid only while the buffer does (for shared-memory
    arenas, until the block is reused for a later round).  Decode or
    copy before releasing the carrier.
    """
    mv = memoryview(buf)
    n, num_names, num_qubits, num_params, flags = _PACK_HEADER.unpack_from(mv, offset)
    pos = offset + _PACK_HEADER.size
    names = []
    for _ in range(num_names):
        (ln,) = _NAME_LEN.unpack_from(mv, pos)
        pos += _NAME_LEN.size
        names.append(bytes(mv[pos : pos + ln]).decode("utf-8"))
        pos += ln
    pos = _align(pos, 8)
    op_dtype = np.int32 if flags & _FLAG_OPS_I32 else np.uint8
    arity_dtype = np.int32 if flags & _FLAG_ARITIES_I32 else np.uint8
    arrays = []
    for dtype, count, alignment in (
        (np.float64, num_params, 8),
        (np.int32, num_qubits, 4),
        (op_dtype, n, 4),
        (arity_dtype, n, 4),
        (np.uint8, -(-n // 8), 1),
    ):
        pos = _align(pos, alignment)
        arrays.append(np.frombuffer(mv, dtype=dtype, count=count, offset=pos))
        pos += arrays[-1].nbytes
    params, qubits, ops, arities, mask = arrays
    segment = EncodedSegment(
        names=tuple(names),
        ops=ops,
        arities=arities,
        qubits=qubits,
        param_mask=mask,
        params=params,
        length=n,
    )
    return segment, _align(pos, 8)
