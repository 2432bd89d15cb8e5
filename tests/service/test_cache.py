"""The content-addressed segment result cache.

Property tests pin the key derivation (injective over distinct packed
segments, stable across pack/unpack round trips, oracle-scoped), and
the storage levels are exercised directly: LRU eviction by entry count
and byte volume, disk persistence across instances, and corruption of
disk entries (truncation, foreign bytes, bad magic) reading as a miss
— never an exception — with the bad file removed.  Answers held as ids
stay ids in memory, move to the table that asks, and are packed only
for the disk.
"""

import os
import struct
import threading

import pytest
from hypothesis import given, settings

from repro.circuits import CNOT, RZ, H, X
from repro.circuits.encoding import (
    encode_segment,
    pack_segment,
    pack_segment_into,
    packed_segment_nbytes,
    segment_fingerprint,
    unpack_segment_from,
)
from repro.circuits.intern import GateTable
from repro.oracles import IdentityOracle, NamOracle
from repro.parallel import LazySegmentResult
from repro.service import CacheFront, SegmentCache, oracle_namespace
from repro.service.cache import TABLE_ROW_BYTES

from ..conftest import gate_list_strategy


def _packed(gates) -> bytes:
    enc = encode_segment(gates)
    buf = bytearray(packed_segment_nbytes(enc))
    pack_segment_into(enc, buf, 0)
    return bytes(buf)


class TestFingerprint:
    @given(gate_list_strategy(), gate_list_strategy())
    def test_injective_over_distinct_packed_segments(self, a, b):
        """Distinct gate lists pack to distinct bytes and distinct
        fingerprints; equal gate lists always agree."""
        fa = segment_fingerprint(_packed(a))
        fb = segment_fingerprint(_packed(b))
        if a == b:
            assert fa == fb
        else:
            assert fa != fb

    @settings(max_examples=25)
    @given(gate_list_strategy())
    def test_stable_across_pack_unpack_round_trips(self, gates):
        """Re-packing an unpacked segment reproduces the fingerprint:
        the wire bytes are canonical, so a segment keeps its cache
        identity no matter how many carriers it crossed."""
        first = _packed(gates)
        unpacked, _ = unpack_segment_from(first, 0)
        buf = bytearray(packed_segment_nbytes(unpacked))
        pack_segment_into(unpacked, buf, 0)
        assert segment_fingerprint(bytes(buf)) == segment_fingerprint(first)

    def test_namespace_scopes_keys(self):
        packed = _packed([H(0), CNOT(0, 1)])
        plain = segment_fingerprint(packed)
        scoped = segment_fingerprint(packed, namespace=b"oracle-A")
        other = segment_fingerprint(packed, namespace=b"oracle-B")
        assert len({plain, scoped, other}) == 3

    def test_overlong_namespaces_stay_distinct(self):
        """Namespaces past blake2b's 64-byte key limit are compressed,
        not truncated: a long cache namespace must never swallow the
        oracle digest appended after it."""
        packed = _packed([H(0)])
        base = b"n" * 64
        a = segment_fingerprint(packed, namespace=base + b"oracle-A")
        b = segment_fingerprint(packed, namespace=base + b"oracle-B")
        assert a != b

    def test_oracle_namespace_separates_configurations(self):
        """Two oracles that pickle differently must never share keys."""
        assert oracle_namespace(NamOracle()) != oracle_namespace(IdentityOracle())
        assert oracle_namespace(NamOracle()) == oracle_namespace(NamOracle())

    def test_cache_key_for_appends_extra_material(self):
        cache = SegmentCache()
        packed = _packed([X(2)])
        assert cache.key_for(packed) != cache.key_for(packed, extra=b"oracle")


class TestMemoryLevel:
    def test_round_trip_and_hit_accounting(self):
        cache = SegmentCache()
        key = cache.key_for(_packed([H(0)]))
        assert cache.get(key) is None
        cache.put(key, b"result-bytes")
        assert cache.get(key) == b"result-bytes"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.bytes_saved == len(b"result-bytes")
        assert 0.0 < cache.stats.hit_rate < 1.0

    def test_lru_evicts_by_entry_count(self):
        cache = SegmentCache(max_entries=2)
        cache.put("a", b"1")
        cache.put("b", b"2")
        cache.get("a")  # refresh: b is now the least recently used
        cache.put("c", b"3")
        assert cache.get("a") == b"1"
        assert cache.get("c") == b"3"
        assert cache.get("b") is None
        assert cache.stats.evictions == 1

    def test_lru_evicts_by_byte_volume(self):
        cache = SegmentCache(max_bytes=100)
        cache.put("a", b"x" * 60)
        cache.put("b", b"y" * 60)  # 120 B > 100 B: a evicted
        assert cache.get("a") is None
        assert cache.get("b") is not None
        assert cache.memory_bytes == 60

    def test_single_oversized_entry_is_kept(self):
        """An entry larger than max_bytes still caches (evicting to an
        empty cache would make the bound a denial of service)."""
        cache = SegmentCache(max_bytes=10)
        cache.put("big", b"z" * 50)
        assert cache.get("big") == b"z" * 50

    def test_overwrite_updates_byte_accounting(self):
        cache = SegmentCache()
        cache.put("k", b"aaaa")
        cache.put("k", b"bb")
        assert cache.memory_bytes == 2
        assert len(cache) == 1


class TestIdEntries:
    """An answer held as ids stays ids in memory: a hit on its table is
    those ids, a hit from another table is translated and moves the
    entry there, and the bytes bound charges ids plus each table once."""

    ANSWER = [H(0), CNOT(0, 1), RZ(1, 0.5)]

    def _stored(self, cache, table):
        ids = table.intern(self.ANSWER)
        cache.put("k", LazySegmentResult.from_ids(ids, table))
        return ids

    def test_a_hit_on_the_same_table_is_its_ids(self):
        cache, table = SegmentCache(), GateTable()
        ids = self._stored(cache, table)
        hit = cache.answer("k", table)
        assert hit.interned[1] is table and hit.interned[0] is ids
        assert cache.stats.bytes_saved == ids.nbytes
        assert cache.memory_bytes == ids.nbytes + len(table) * TABLE_ROW_BYTES
        # the byte API packs an id entry to answer
        assert cache.get("k") == pack_segment(encode_segment(self.ANSWER))

    def test_a_hit_from_another_table_moves_the_entry_there(self):
        cache, old, new = SegmentCache(), GateTable(), GateTable()
        new.intern([X(3), X(4)])  # other ids for the same values
        self._stored(cache, old)
        hit = cache.answer("k", new)
        assert hit.interned[1] is new and hit == self.ANSWER
        assert cache.answer("k", new).interned[1] is new
        # the old table is no longer charged: only the new one is
        assert cache.memory_bytes == hit.interned[0].nbytes + len(new) * TABLE_ROW_BYTES
        cache.put("k", b"bytes")  # the last id entry gone: no table charged
        assert cache.memory_bytes == len(b"bytes")

    def test_tables_count_against_the_bytes_bound(self):
        table = GateTable()
        table.intern([RZ(0, 0.01 * k) for k in range(1, 11)])
        cache = SegmentCache(max_bytes=10 * TABLE_ROW_BYTES)
        self._stored(cache, table)
        cache.put("b", b"x")  # ids + 13 rows past the bound: k evicted
        assert cache.get("k") is None and cache.memory_bytes == 1

    def test_the_disk_gets_packed_bytes(self, tmp_path):
        self._stored(SegmentCache(disk_dir=tmp_path), GateTable())
        reborn = SegmentCache(disk_dir=tmp_path)
        hit = reborn.answer("k", GateTable())
        assert hit.interned is None and not hit.decoded and hit == self.ANSWER

    def test_a_front_keys_ids_by_content_and_answers_ids(self):
        gates = [H(0), H(0), X(1)]
        table = GateTable()
        ids = table.intern(gates)
        segment = LazySegmentResult.from_ids(ids, table)
        front = CacheFront(SegmentCache(), b"ns")
        results, misses = front.lookup([segment])
        assert [key for *_, key in misses] == [table.content_key(ids, b"ns")]
        answer = LazySegmentResult.from_ids(table.intern(gates[2:]), table)
        front.store(results, misses, [answer])
        (hit,), missed = front.lookup([segment])
        assert missed == [] and hit.interned[1] is table and hit == gates[2:]
        assert front.bytes_saved == hit.interned[0].nbytes


class TestDiskLevel:
    def test_persists_across_instances(self, tmp_path):
        first = SegmentCache(disk_dir=tmp_path)
        key = first.key_for(_packed([H(0), H(0)]))
        first.put(key, b"persisted")
        reborn = SegmentCache(disk_dir=tmp_path)
        assert reborn.get(key) == b"persisted"
        assert reborn.stats.disk_hits == 1

    def test_memory_eviction_falls_back_to_disk(self, tmp_path):
        cache = SegmentCache(max_entries=1, disk_dir=tmp_path)
        cache.put("a", b"1")
        cache.put("b", b"2")  # evicts a from memory, not from disk
        assert cache.get("a") == b"1"
        assert cache.stats.disk_hits == 1

    @pytest.mark.parametrize(
        "corruption",
        ["truncate", "empty", "bad-magic", "wrong-length", "garbage"],
    )
    def test_corrupt_entry_is_a_miss_not_a_crash(self, tmp_path, corruption):
        cache = SegmentCache(disk_dir=tmp_path)
        cache.put("k", b"good-bytes")
        cache.clear_memory()
        (path,) = tmp_path.glob("*.seg")
        raw = path.read_bytes()
        if corruption == "truncate":
            path.write_bytes(raw[: len(raw) - 3])
        elif corruption == "empty":
            path.write_bytes(b"")
        elif corruption == "bad-magic":
            path.write_bytes(b"XXXX" + raw[4:])
        elif corruption == "wrong-length":
            path.write_bytes(raw[:4] + struct.pack("<Q", 10**6) + raw[12:])
        else:
            path.write_bytes(b"\x00\x01\x02")
        assert cache.get("k") is None
        assert cache.stats.corrupt_entries == 1
        # the bad entry is gone: the next lookup is a plain miss
        assert not path.exists()
        assert cache.get("k") is None
        assert cache.stats.corrupt_entries == 1

    def test_rewrite_after_corruption_recovers(self, tmp_path):
        cache = SegmentCache(disk_dir=tmp_path)
        cache.put("k", b"v1")
        cache.clear_memory()
        (path,) = tmp_path.glob("*.seg")
        path.write_bytes(b"torn")
        assert cache.get("k") is None
        cache.put("k", b"v2")
        cache.clear_memory()
        assert cache.get("k") == b"v2"


class TestDiskBound:
    """``max_disk_bytes`` keeps the on-disk store bounded by pruning
    oldest entries first (mtime order), never the one just written."""

    def test_zero_bound_refused(self):
        with pytest.raises(ValueError, match="max_disk_bytes"):
            SegmentCache(max_disk_bytes=0)

    def test_oldest_entries_pruned_first(self, tmp_path):
        cache = SegmentCache(disk_dir=tmp_path, max_disk_bytes=100)
        for age, key in enumerate(["a", "b", "c"]):
            cache.put(key, bytes(20))
            os.utime(cache._entry_path(key), (age, age))
        assert cache.stats.disk_evictions == 0
        cache.put("d", bytes(20))  # over the bound: "a" is the oldest
        cache.clear_memory()
        assert cache.get("a") is None
        assert cache.get("b") == bytes(20)
        assert cache.get("c") == bytes(20)
        assert cache.get("d") == bytes(20)
        assert cache.stats.disk_evictions == 1
        assert cache.disk_bytes <= 100
        assert cache.disk_bytes == sum(
            p.stat().st_size for p in tmp_path.glob("*.seg")
        )

    def test_just_written_entry_survives_a_tiny_bound(self, tmp_path):
        cache = SegmentCache(disk_dir=tmp_path, max_disk_bytes=1)
        cache.put("k", bytes(50))
        os.utime(cache._entry_path("k"), (1, 1))
        cache.clear_memory()
        assert cache.get("k") == bytes(50)  # pruning spares the newest write
        cache.put("l", bytes(50))
        cache.clear_memory()
        assert cache.get("k") is None
        assert cache.get("l") == bytes(50)
        assert cache.stats.disk_evictions == 1

    def test_restart_rescans_disk_usage(self, tmp_path):
        writer = SegmentCache(disk_dir=tmp_path)
        for age, key in enumerate(["a", "b", "c"]):
            writer.put(key, bytes(20))
            os.utime(writer._entry_path(key), (age, age))
        on_disk = sum(p.stat().st_size for p in tmp_path.glob("*.seg"))
        reborn = SegmentCache(disk_dir=tmp_path, max_disk_bytes=on_disk + 10)
        assert reborn.disk_bytes == on_disk
        reborn.put("d", bytes(20))  # accounting carried over: this prunes
        assert reborn.stats.disk_evictions >= 1
        assert reborn.disk_bytes <= on_disk + 10


class TestConcurrentCorruptDeletion:
    def test_racing_readers_count_one_corruption(self, tmp_path):
        """N threads hitting the same corrupt entry: every read is a
        plain miss, the file is unlinked exactly once, and exactly one
        corruption is counted."""
        cache = SegmentCache(disk_dir=tmp_path)
        cache.put("k", b"payload")
        cache.clear_memory()
        (path,) = tmp_path.glob("*.seg")
        path.write_bytes(b"garbage")
        before = cache.disk_bytes
        n = 8
        barrier = threading.Barrier(n)
        results = []

        def reader():
            barrier.wait()
            results.append(cache.get("k"))

        threads = [threading.Thread(target=reader) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert results == [None] * n
        assert not path.exists()
        assert cache.stats.corrupt_entries == 1
        # only the unlink winner subtracts the bytes it actually read
        assert cache.disk_bytes == before - len(b"garbage")
