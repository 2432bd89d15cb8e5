"""Content-addressed segment result cache.

Real optimization workloads — parameter sweeps, iterative compilation,
benchmark suites — are full of *repeated* segments: the same 2Ω-gate
window shows up in job after job (and round after round, once a region
of the circuit has converged).  The oracle is a pure function of the
segment, so re-running it on a segment it has already answered is pure
waste.  This module makes the answer addressable by content.

**The key** is a 128-bit blake2b keyed by an oracle digest
(:func:`oracle_namespace`), so entries written under one oracle are
unreachable under any other: a cache can even be shared on disk between
servers running different rule sets without cross-talk.  What it
hashes depends on how the segment is held:

* a segment held as ids of a :class:`~repro.circuits.intern.GateTable`
  (every segment of a served job) hashes its rows' value digests
  (:meth:`GateTable.content_key`), so equal gate lists get equal keys
  from any table, and nothing is packed to take one;
* any other segment hashes its canonical packed bytes
  (:func:`repro.circuits.encoding.segment_fingerprint`).

**The value** is the oracle's answer.  The memory level holds an answer
held as ids as those ids plus their table, so a hit from the same table
is :meth:`~repro.parallel.results.LazySegmentResult.from_ids` with
nothing decoded or packed; a hit from another table (the daemon
replaced its table) is translated into the asking table and the entry
moves onto it, so a retired table is released once its last entry has
moved or gone.  Any other answer is held as packed result bytes, and a
hit is a lazy handle over them.  ``max_bytes`` charges an id entry its
ids' bytes and each table entries keep alive :data:`TABLE_ROW_BYTES` a
row, once.

Storage is two-level:

* an **in-memory LRU** bounded by entry count and byte volume (the hot
  working set of the running server);
* an optional **disk store** (one file per entry, written atomically
  via rename) that survives server restarts and can be shared by
  several servers, bounded by ``max_disk_bytes`` with oldest-first
  pruning (unbounded only when no bound is configured).  An entry there
  is always packed result bytes, packed when it is written; a disk hit
  is a lazy handle over them.  A truncated or corrupt entry — a crashed
  writer, a torn disk — reads as a *miss*, never an exception, and the
  bad file is removed so it cannot poison later lookups.  Keys of id
  segments were packed-bytes keys in older releases, so a store written
  by an older daemon is not read: its entries are misses.

The cache has one owner, the ``popqc serve`` daemon, and one reader
and writer, :class:`CacheFront` (one per job): it asks the cache about
the segments a job's memo passed on and stores what the daemon's fleet
answered for the misses, so every entry is the output of an oracle the
daemon ran.  It is the only level that is shared: on disk (several
daemons on one ``disk_dir``) and across a daemon's memo generations.
It is not on the wire.  A segment the daemon's memo answers never gets
here and is counted here all the same (:meth:`SegmentCache.note_hits`),
so ``stats`` describe the segments asked about, not the level that knew.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import struct
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Sequence, Union

from ..circuits.encoding import segment_fingerprint
from ..circuits.intern import GateTable
from ..parallel import LazySegmentResult

__all__ = ["CacheFront", "CacheStats", "SegmentCache", "oracle_namespace"]

#: On-disk entry header: magic + payload length.  The length makes
#: truncation detectable without trusting the filesystem's size alone.
_DISK_HEADER = struct.Struct("<4sQ")
_DISK_MAGIC = b"PQCS"

#: Bytes ``max_bytes`` charges per row of a table that id entries keep
#: alive: its columns, its ``Gate`` and its map entries (about what
#: :data:`~repro.circuits.intern.TABLE_CAP` assumes).
TABLE_ROW_BYTES = 500

#: A memory-level value: packed result bytes, or ``(ids, table)``.
_Value = Union[bytes, tuple]


def _held(value: _Value) -> int:
    """The bytes an entry holds of its own (a table is charged apart)."""
    return len(value) if isinstance(value, bytes) else value[0].nbytes


def oracle_namespace(oracle: object) -> bytes:
    """A 16-byte digest identifying ``oracle`` for cache key scoping.

    Hashes the oracle's pickle bytes — the serialization the process
    and socket transports ship to their workers — so two oracle
    objects share a namespace iff a worker could not tell them apart,
    and any configuration difference (rule set, engine, thresholds)
    separates their entries.  Raises whatever ``pickle`` raises for
    unpicklable oracles; :func:`oracle_cache_namespace` degrades
    instead.
    """
    return hashlib.blake2b(pickle.dumps(oracle), digest_size=16).digest()


def oracle_cache_namespace(oracle: object) -> bytes:
    """Cache-scoping key material for ``oracle``, never raising.

    Unpicklable oracles (lambdas, closures) are legal on the threads
    transport, so the cache front must not crash on them: they get a
    random one-off namespace instead of a content fingerprint.  The
    scheduler derives it once per oracle for its lifetime, so such an
    oracle still hits its own earlier entries in one daemon — it just
    never shares entries across processes or restarts (which content
    addressing could not promise for an unserializable oracle anyway).
    """
    try:
        return oracle_namespace(oracle)
    except Exception:  # pickle errors vary by payload; all mean "opaque"
        return os.urandom(16)


class CacheStats:
    """Counters for one :class:`SegmentCache`.

    ``hits`` counts lookups answered from memory or disk;
    ``disk_hits`` is the subset that had to be read back from the disk
    store.  ``bytes_saved`` sums the bytes each hit entry held (packed
    result bytes, or an id entry's ids), for oracle work that was never
    paid again.  ``corrupt_entries`` counts disk entries dropped because
    they failed validation; ``disk_evictions`` counts entries pruned
    oldest-first to keep the disk store under its byte bound.
    """

    __slots__ = (
        "hits",
        "misses",
        "stores",
        "evictions",
        "disk_hits",
        "disk_evictions",
        "corrupt_entries",
        "bytes_saved",
    )

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.disk_hits = 0
        self.disk_evictions = 0
        self.corrupt_entries = 0
        self.bytes_saved = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when idle)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        """The counters as a plain dict (for STATUS frames and logs)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "disk_evictions": self.disk_evictions,
            "corrupt_entries": self.corrupt_entries,
            "bytes_saved": self.bytes_saved,
            "hit_rate": self.hit_rate,
        }


class SegmentCache:
    """Two-level (memory LRU + optional disk) segment-result cache.

    Parameters
    ----------
    max_entries / max_bytes:
        Bounds on the in-memory level; the least recently used entries
        are evicted when either is exceeded.  ``max_bytes`` counts the
        bytes entries hold and, once each, the tables id entries keep
        alive.  Entries evicted from memory remain readable from disk.
    disk_dir:
        Directory of the persistent level (created if missing).
        ``None`` keeps the cache memory-only.
    max_disk_bytes:
        Byte bound on the disk store (``--cache-disk-bytes``).  When a
        write pushes the store past the bound, the **oldest entries by
        modification time are pruned first** until it fits — a
        long-lived daemon must never fill the disk.  ``None`` leaves
        the store unbounded (the pre-bound behavior, reasonable only
        for short-lived or externally rotated stores).
    All methods are thread-safe; the server's connection handlers and
    the fleet scheduler hit one shared instance concurrently.
    """

    def __init__(
        self,
        max_entries: int = 65536,
        max_bytes: int = 256 * 1024 * 1024,
        disk_dir: Optional[str | Path] = None,
        max_disk_bytes: Optional[int] = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        if max_disk_bytes is not None and max_disk_bytes < 1:
            raise ValueError("max_disk_bytes must be positive")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.max_disk_bytes = max_disk_bytes
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._memory: OrderedDict[str, _Value] = OrderedDict()
        self._memory_bytes = 0
        #: each table id entries keep alive -> [its entries, bytes charged]
        self._tables: dict[GateTable, list[int]] = {}
        self._disk: Optional[Path] = None
        self._disk_bytes = 0
        if disk_dir is not None:
            self._disk = Path(disk_dir)
            self._disk.mkdir(parents=True, exist_ok=True)
            # a restarted daemon inherits whatever the store already
            # holds; the bound must account for it from the first write
            for entry in self._disk.glob("*.seg"):
                with contextlib.suppress(OSError):
                    self._disk_bytes += entry.stat().st_size

    # -- key derivation --------------------------------------------------------

    def key_for(self, packed, extra: bytes = b"") -> str:
        """The cache key of one canonically packed segment.

        ``extra`` is key material mixed into the hash — a
        :class:`CacheFront` passes the digest (:func:`oracle_namespace`)
        of the oracle its job runs, so entries of different oracles
        share both levels and one oracle's results are never served to
        another.
        """
        return segment_fingerprint(packed, namespace=extra)

    # -- lookup / store --------------------------------------------------------

    def get(self, key: str) -> Optional[bytes]:
        """The packed result bytes for ``key``, or ``None`` on a miss
        (an id entry is packed to answer)."""
        value = self._lookup(key)
        if value is None or isinstance(value, bytes):
            return value
        return LazySegmentResult.from_ids(*value).packed_bytes()

    def answer(
        self, key: str, table: Optional[GateTable] = None
    ) -> Optional[LazySegmentResult]:
        """The answer stored under ``key`` as a lazy handle, or ``None``.

        An id entry on another table than ``table`` (when one is given)
        is translated into it, and the entry moves onto it.
        """
        value = self._lookup(key)
        if value is None:
            return None
        if isinstance(value, bytes):
            return LazySegmentResult.from_packed(value)
        ids, held = value
        if table is not None and held is not table:
            ids, held = table.intern(held.gates_of(ids)), table
            with self._lock:
                if self._memory.get(key) is value:
                    self._install(key, (ids, held))
        return LazySegmentResult.from_ids(ids, held)

    def _lookup(self, key: str) -> Optional[_Value]:
        """The value stored under ``key``, or ``None``, counted.

        Memory hits refresh LRU recency; disk hits are promoted into
        the memory level.  A corrupt disk entry is deleted and reported
        as a miss.
        """
        with self._lock:
            value = self._memory.get(key)
            if value is not None:
                self._memory.move_to_end(key)
                self.stats.hits += 1
                self.stats.bytes_saved += _held(value)
        if value is None:
            value = self._disk_read(key)
            with self._lock:
                if value is None:
                    self.stats.misses += 1
                    return None
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self.stats.bytes_saved += len(value)
                self._install(key, value)
        return value

    def note_hits(self, hits: int) -> None:
        """Count ``hits`` lookups that a daemon's memo answered in front
        of this cache: a hit is a hit wherever it was resolved."""
        with self._lock:
            self.stats.hits += hits

    def put(self, key: str, value) -> None:
        """Store an answer under ``key`` in both levels: packed bytes, or
        a result handle — kept in memory as its ids when it has them,
        packed only for the disk."""
        handle = isinstance(value, LazySegmentResult)
        kept = (value.interned or value.packed_bytes()) if handle else bytes(value)
        with self._lock:
            self.stats.stores += 1
            self._install(key, kept)
        if self._disk is not None:
            self._disk_write(key, value.packed_bytes() if handle else kept)

    def __len__(self) -> int:
        return len(self._memory)

    @property
    def memory_bytes(self) -> int:
        """Byte volume currently held by the in-memory level."""
        return self._memory_bytes

    def clear_memory(self) -> None:
        """Drop the in-memory level (the disk store is untouched)."""
        with self._lock:
            self._memory.clear()
            self._tables.clear()
            self._memory_bytes = 0

    # -- memory level ----------------------------------------------------------

    def _install(self, key: str, value: _Value) -> None:
        """Insert/refresh ``key`` in memory and evict past the bounds."""
        old = self._memory.pop(key, None)
        if old is not None:
            self._release(old)
        self._memory[key] = value
        self._memory_bytes += _held(value)
        if not isinstance(value, bytes):  # charge its table, now its size
            held = self._tables.setdefault(value[1], [0, 0])
            charge = len(value[1]) * TABLE_ROW_BYTES
            held[0] += 1
            self._memory_bytes += charge - held[1]
            held[1] = charge
        while len(self._memory) > self.max_entries or (
            self._memory_bytes > self.max_bytes and len(self._memory) > 1
        ):
            _, evicted = self._memory.popitem(last=False)
            self._release(evicted)
            self.stats.evictions += 1

    def _release(self, value: _Value) -> None:
        """Uncharge an entry gone from memory, and its table with its
        last entry."""
        self._memory_bytes -= _held(value)
        if not isinstance(value, bytes):
            held = self._tables[value[1]]
            held[0] -= 1
            if not held[0]:
                self._memory_bytes -= held[1]
                del self._tables[value[1]]

    # -- disk level ------------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        assert self._disk is not None
        return self._disk / f"{key}.seg"

    def _disk_read(self, key: str) -> Optional[bytes]:
        """One validated disk entry, or ``None`` (missing or corrupt)."""
        if self._disk is None:
            return None
        path = self._entry_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        if len(raw) >= _DISK_HEADER.size:
            magic, length = _DISK_HEADER.unpack_from(raw, 0)
            if magic == _DISK_MAGIC and len(raw) == _DISK_HEADER.size + length:
                return raw[_DISK_HEADER.size :]
        # truncated or foreign bytes: drop the entry so it cannot keep
        # costing a read+validate on every lookup.  Deletion is
        # idempotent under the lock: concurrent readers of the same bad
        # entry race to unlink it, and only the one whose unlink landed
        # counts the corruption (and its bytes) — the losers observe
        # the file already gone and report a plain miss.
        with self._lock:
            try:
                path.unlink()
            except OSError:
                pass  # a concurrent reader already removed it
            else:
                self.stats.corrupt_entries += 1
                self._disk_bytes = max(0, self._disk_bytes - len(raw))
        return None

    def _disk_write(self, key: str, value: bytes) -> None:
        """Write one entry atomically (write-to-temp + rename) and keep
        the store under ``max_disk_bytes``."""
        if self._disk is None:
            return
        path = self._entry_path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        blob = _DISK_HEADER.pack(_DISK_MAGIC, len(value)) + value
        old = 0
        with contextlib.suppress(OSError):
            old = path.stat().st_size
        try:
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except OSError:
            # a full or read-only disk degrades the cache, never the run
            with contextlib.suppress(OSError):
                tmp.unlink()
            return
        with self._lock:
            self._disk_bytes += len(blob) - old
            over = (
                self.max_disk_bytes is not None
                and self._disk_bytes > self.max_disk_bytes
            )
        if over:
            self._prune_disk(keep=path)

    def _prune_disk(self, keep: Optional[Path] = None) -> None:
        """Prune the disk store oldest-first down to ``max_disk_bytes``.

        ``keep`` protects the entry just written — a store whose bound
        is smaller than one entry must still serve that entry, it just
        cannot accumulate others.  The scan recomputes the byte total
        from the directory itself, so drift from concurrent writers
        self-corrects on every prune.
        """
        assert self._disk is not None and self.max_disk_bytes is not None
        with self._lock:
            entries = []
            total = 0
            for entry in self._disk.glob("*.seg"):
                try:
                    st = entry.stat()
                except OSError:
                    continue
                entries.append((st.st_mtime, st.st_size, entry))
                total += st.st_size
            entries.sort(key=lambda item: item[0])
            for _mtime, size, entry in entries:
                if total <= self.max_disk_bytes:
                    break
                if keep is not None and entry == keep:
                    continue
                with contextlib.suppress(OSError):
                    entry.unlink()
                    total -= size
                    self.stats.disk_evictions += 1
            self._disk_bytes = total

    @property
    def disk_bytes(self) -> int:
        """Byte volume currently accounted to the disk store."""
        return self._disk_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        disk = str(self._disk) if self._disk else "none"
        return (
            f"SegmentCache(entries={len(self._memory)}, "
            f"bytes={self._memory_bytes}, disk={disk})"
        )


class CacheFront:
    """The content-addressed front of one served job's oracle rounds.

    The daemon's scheduler builds one per job, scoped by the namespace
    of the job's oracle: :meth:`lookup` answers the segments the cache
    knows and :meth:`store` puts the fleet's answers to the rest in it.
    It is the cache's only writer, and the hit accounting is exact for
    the job that owns it.

    Attributes
    ----------
    hits / misses:
        Segment lookups answered by / past the cache.  Every hit is an
        oracle call that was never made.
    bytes_saved:
        Bytes the hit entries held (see :class:`CacheStats`).
    lookup_seconds:
        Seconds spent fingerprinting and probing the cache (the price
        of admission; compare against the oracle time the hits saved).
    """

    def __init__(self, cache: SegmentCache, namespace: bytes):
        self.cache = cache
        self.namespace = namespace
        self.hits = 0
        self.misses = 0
        self.bytes_saved = 0
        self.lookup_seconds = 0.0

    def lookup(self, segments: Sequence) -> tuple[list, list]:
        """A round's results, ``None`` at each miss, and the misses as
        ``(index, segment, key)`` for :meth:`store`.

        A segment held as ids is keyed by its rows' digests, and a hit
        comes back as ids of its table; any other segment is keyed by its
        canonical packed bytes, which a miss keeps, so a byte transport
        does not encode it again.
        """
        cache, namespace = self.cache, self.namespace
        t0 = time.perf_counter()
        results: list = [None] * len(segments)
        misses: list = []
        for i, seg in enumerate(map(LazySegmentResult.of, segments)):
            if seg.interned is None:
                table, key = None, cache.key_for(seg.packed_bytes(), extra=namespace)
            else:
                ids, table = seg.interned
                key = table.content_key(ids, namespace)
            hit = cache.answer(key, table)
            if hit is None:
                misses.append((i, seg, key))
            else:
                self.bytes_saved += _held(hit.interned or hit.packed_bytes())
                results[i] = hit
        self.hits += len(segments) - len(misses)
        self.misses += len(misses)
        self.lookup_seconds += time.perf_counter() - t0
        return results, misses

    def store(self, results: list, misses: list, answers: Sequence) -> None:
        """Put the misses' ``answers`` in ``results`` and the cache."""
        for (i, _, key), answer in zip(misses, answers):
            results[i] = answer
            self.cache.put(key, LazySegmentResult.of(answer))

    def counters(self) -> dict:
        """The four counts, under the names a run's stats report."""
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_bytes_saved": self.bytes_saved,
            "cache_lookup_seconds": self.lookup_seconds,
        }
