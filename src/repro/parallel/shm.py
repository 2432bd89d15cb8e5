"""Pooled shared-memory arenas for the zero-copy oracle transport.

The ``"encoded"`` transport already collapsed per-gate pickling into a
handful of numpy buffers, but those buffers are still *copied* through
the executor pipe on every round — once into the pickle stream, once
out of it, per segment, per direction.  This module removes the copies:
each round the parent packs every segment (flat wire format of
:mod:`repro.circuits.encoding`) into one shared-memory **arena**, and
workers receive only ``(arena name, segment indices)`` — a few dozen
bytes per task.  Workers map the arena once, slice zero-copy views out
of it, and write their encoded results into a second arena whose
regions the parent reserved up front, so the reply pipe carries only
per-segment "it's in the arena" markers.

Arenas come from a :class:`ShmArenaPool` — a ring of reusable
``multiprocessing.shared_memory`` blocks.  Rounds reuse blocks instead
of re-creating them, so the steady-state cost of a round is two
``memcpy``-speed packs and zero ``shm_open``/``mmap`` calls.  The pool
unlinks every block it ever created on :meth:`ShmArenaPool.close` (and,
as a backstop, from a ``weakref.finalize``), so executor shutdown —
clean or after a worker crash — leaves no ``/dev/shm`` entries behind.

Arena layout (offsets in bytes)::

    input arena                      result arena
    [0:8)    round id                [0:8)    round id
    [8:16)   segment count n         [8:16)   segment count n
    [16:16+8n)  int64 offset per     [16:16+16n) int64 (offset, capacity)
             segment                          pair per segment
    [...]    packed segments         [...]    reserved result regions

The directory lives in the arena itself, so a task message never has to
carry per-segment geometry; workers read the header, check the round id
against the one in their task (stale-arena guard), and slice.

Platform notes: ``multiprocessing.shared_memory`` needs Python >= 3.8
and a POSIX/Windows shared-memory facility.  :data:`HAVE_SHM` reports
availability; :class:`~repro.parallel.ProcessMap` falls back to the
``"encoded"`` transport when it is ``False``.
"""

from __future__ import annotations

import struct
import weakref
from typing import Sequence

import numpy as np

from ..circuits.encoding import (
    EncodedSegment,
    pack_segment_into,
    packed_segment_nbytes,
)

try:  # pragma: no cover - import guard exercised via HAVE_SHM monkeypatching
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - all supported platforms have it
    _shared_memory = None

#: True when ``multiprocessing.shared_memory`` is importable here.
HAVE_SHM = _shared_memory is not None

__all__ = [
    "HAVE_SHM",
    "ShmArenaPool",
    "StaleArenaError",
    "attach_arena",
    "check_round",
    "packed_sizes",
    "read_arena_header",
    "read_input_directory",
    "read_result_directory",
    "input_arena_layout",
    "result_arena_layout",
    "write_input_arena",
    "write_result_directory",
]

_ARENA_HEADER = struct.Struct("<QQ")

#: Free-list depth; blocks beyond this are unlinked on release so a
#: one-off giant round does not pin memory forever.
_MAX_FREE_BLOCKS = 4

#: Smallest block the pool allocates (allocation is page-granular
#: anyway, and a floor keeps tiny rounds from fragmenting the ring).
_MIN_BLOCK_BYTES = 1 << 16


class StaleArenaError(RuntimeError):
    """A worker was handed an arena whose round id does not match its
    task — the parent reused the block before the task ran, which the
    barrier semantics of ``map_segments`` are supposed to prevent."""


def _unlink_blocks(blocks: list) -> None:
    """Close and unlink every block in ``blocks`` (idempotent)."""
    while blocks:
        block = blocks.pop()
        try:
            block.close()
            block.unlink()
        except (FileNotFoundError, OSError):  # already gone: fine
            pass


class ShmArenaPool:
    """A ring of reusable shared-memory blocks.

    ``acquire`` hands out the smallest free block that fits (or creates
    one, rounding the size up to a power of two so steady-state rounds
    of similar size always reuse); ``release`` returns it to the ring.
    The pool owns every block it created and unlinks them all on
    :meth:`close`, which is also registered as a finalizer so even an
    abandoned pool cleans up at garbage collection / interpreter exit.

    Attributes
    ----------
    allocations / reuses:
        How often ``acquire`` had to create a block vs. recycle one.
    bytes_allocated:
        Total capacity of all blocks ever created (monotonic).
    """

    def __init__(self) -> None:
        if not HAVE_SHM:  # pragma: no cover - platform-dependent
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        self._blocks: list = []  # every live block, shared with finalizer
        self._free: list = []
        self.allocations = 0
        self.reuses = 0
        self.bytes_allocated = 0
        self._finalizer = weakref.finalize(self, _unlink_blocks, self._blocks)

    def acquire(self, nbytes: int):
        """A block with capacity >= ``nbytes`` (reused when possible)."""
        best = None
        for block in self._free:
            if block.size >= nbytes and (best is None or block.size < best.size):
                best = block
        if best is not None:
            self._free.remove(best)
            self.reuses += 1
            return best
        capacity = max(_MIN_BLOCK_BYTES, 1 << (max(1, nbytes) - 1).bit_length())
        block = _shared_memory.SharedMemory(create=True, size=capacity)
        self._blocks.append(block)
        self.allocations += 1
        self.bytes_allocated += block.size
        return block

    def release(self, block) -> None:
        """Return ``block`` to the ring for a later round."""
        self._free.append(block)
        if len(self._free) > _MAX_FREE_BLOCKS:
            # trim the largest block: steady-state rounds are similar in
            # size, so the outlier is the one-off giant round's arena
            extra = max(self._free, key=lambda b: b.size)
            self._free.remove(extra)
            self._blocks.remove(extra)
            _unlink_blocks([extra])

    def discard(self, block) -> None:
        """Unlink ``block`` instead of recycling it.

        Used after a failed round.  Its outstanding replies are read (or
        its children stopped) before the error propagates, but what it
        left in the block is never trusted again, so the block is never
        handed to a later round.  Workers' existing mappings stay valid
        until they close, so a stray write lands in orphaned memory
        instead of a reused arena.
        """
        if block in self._blocks:
            self._blocks.remove(block)
        _unlink_blocks([block])

    @property
    def ring_bytes(self) -> int:
        """Current capacity of the ring (live blocks, bytes)."""
        return sum(block.size for block in self._blocks)

    def close(self) -> None:
        """Unlink every block the pool ever created."""
        self._free.clear()
        _unlink_blocks(self._blocks)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ShmArenaPool(blocks={len(self._blocks)}, "
            f"allocations={self.allocations}, reuses={self.reuses})"
        )


# -- worker-side attachment ----------------------------------------------------


def attach_arena(name: str):
    """Attach to an existing arena by name (worker side).

    The attachment is *not* registered with the multiprocessing
    resource tracker: the parent owns the block's lifetime, and letting
    workers also claim it makes the tracker either double-unregister
    (fork: shared tracker, KeyError noise) or unlink arenas the parent
    still uses (spawn: per-child tracker, bpo-39959).  Python 3.13 has
    ``track=False`` for exactly this; earlier versions need the
    registration call suppressed around the constructor.
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        pass
    from multiprocessing import resource_tracker

    def _no_register(*args, **kwargs):
        return None

    original_register = resource_tracker.register
    resource_tracker.register = _no_register
    try:
        return _shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


# -- arena geometry ------------------------------------------------------------


def input_arena_layout(packed_sizes: Sequence[int]) -> tuple[list[int], int]:
    """(segment offsets, total bytes) for an input arena."""
    n = len(packed_sizes)
    pos = _align8(_ARENA_HEADER.size + 8 * n)
    offsets = []
    for size in packed_sizes:
        offsets.append(pos)
        pos += size  # packed sizes are already 8-byte multiples
    return offsets, pos


def result_arena_layout(
    packed_sizes: Sequence[int], slack_bytes: int = 64
) -> tuple[list[tuple[int, int]], int]:
    """((offset, capacity) per segment, total bytes) for a result arena.

    Each region is sized for the segment's *input* plus 25% + slack:
    accepted oracle rewrites shrink segments, so overflow (handled by a
    pipe fallback) only happens for pathological growing oracles.
    """
    n = len(packed_sizes)
    pos = _align8(_ARENA_HEADER.size + 16 * n)
    regions = []
    for size in packed_sizes:
        capacity = _align8(size + size // 4 + slack_bytes)
        regions.append((pos, capacity))
        pos += capacity
    return regions, pos


def write_input_arena(
    buf,
    round_id: int,
    encoded: Sequence[EncodedSegment],
    offsets: Sequence[int],
) -> None:
    """Write header, directory and packed segments into an input arena."""
    _ARENA_HEADER.pack_into(buf, 0, round_id, len(encoded))
    np.frombuffer(buf, dtype=np.int64, count=len(encoded), offset=_ARENA_HEADER.size)[
        :
    ] = offsets
    for enc, offset in zip(encoded, offsets):
        pack_segment_into(enc, buf, offset)


def write_result_directory(
    buf, round_id: int, regions: Sequence[tuple[int, int]]
) -> None:
    """Write header and (offset, capacity) directory into a result arena."""
    _ARENA_HEADER.pack_into(buf, 0, round_id, len(regions))
    table = np.frombuffer(
        buf, dtype=np.int64, count=2 * len(regions), offset=_ARENA_HEADER.size
    )
    table[0::2] = [off for off, _ in regions]
    table[1::2] = [cap for _, cap in regions]


def read_arena_header(buf) -> tuple[int, int]:
    """(round id, segment count) of an arena."""
    return _ARENA_HEADER.unpack_from(buf, 0)


def read_input_directory(buf, n: int) -> np.ndarray:
    """The int64 segment-offset table of an input arena."""
    return np.frombuffer(buf, dtype=np.int64, count=n, offset=_ARENA_HEADER.size)


def read_result_directory(buf, n: int) -> np.ndarray:
    """The int64 ``(offset, capacity)`` table of a result arena,
    shaped ``(n, 2)``."""
    flat = np.frombuffer(buf, dtype=np.int64, count=2 * n, offset=_ARENA_HEADER.size)
    return flat.reshape(n, 2)


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def check_round(buf, expected_round: int, arena_name: str) -> int:
    """Validate an arena's round id against a task's; return segment count."""
    round_id, n = read_arena_header(buf)
    if round_id != expected_round:
        raise StaleArenaError(
            f"arena {arena_name} holds round {round_id}, task expected "
            f"{expected_round}"
        )
    return n


def packed_sizes(encoded: Sequence[EncodedSegment]) -> list[int]:
    """Wire sizes of ``encoded`` in the flat format (8-byte multiples)."""
    return [packed_segment_nbytes(enc) for enc in encoded]
