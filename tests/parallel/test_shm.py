"""Shared-memory arena lifecycle and the shm oracle transport.

The zero-copy transport is only production-safe if its arenas cannot
leak: every block the ring ever creates must be unlinked on executor
shutdown — clean or after a worker crash — and platforms without
``multiprocessing.shared_memory`` must degrade to the encoded
transport instead of failing.
"""

import os

import pytest

from repro.circuits import CNOT, H, X
from repro.oracles import NamOracle
from repro.parallel import HAVE_SHM, ProcessMap, ShmArenaPool
from repro.parallel import shm as shm_mod

pytestmark = pytest.mark.skipif(not HAVE_SHM, reason="no shared_memory here")

SHM_DIR = "/dev/shm"
HAVE_SHM_DIR = os.path.isdir(SHM_DIR)


def _shm_entries() -> set:
    return set(os.listdir(SHM_DIR)) if HAVE_SHM_DIR else set()


def _segments(count=8):
    return [[H(0), H(0), X(1), CNOT(0, 1)] for _ in range(count)]


class CrashingOracle:
    """Kills its worker process outright (not an exception — a crash)."""

    def __call__(self, segment):
        os._exit(13)


class RaisingOracle:
    """Fails the task with an ordinary exception (pool survives)."""

    def __call__(self, segment):
        raise ValueError("boom")


class TestShmArenaPool:
    def test_acquire_reuses_blocks(self):
        pool = ShmArenaPool()
        try:
            a = pool.acquire(1000)
            name = a.name
            pool.release(a)
            b = pool.acquire(500)  # smaller fits in the recycled block
            assert b.name == name
            assert pool.allocations == 1
            assert pool.reuses == 1
        finally:
            pool.close()

    def test_acquire_grows_for_larger_requests(self):
        pool = ShmArenaPool()
        try:
            a = pool.acquire(1000)
            pool.release(a)
            b = pool.acquire(a.size + 1)  # free block too small: allocate
            assert b.name != a.name
            assert pool.allocations == 2
        finally:
            pool.close()

    def test_close_unlinks_every_block(self):
        before = _shm_entries()
        pool = ShmArenaPool()
        blocks = [pool.acquire(4096) for _ in range(3)]
        if HAVE_SHM_DIR:
            assert _shm_entries() - before  # blocks visible while alive
        pool.release(blocks[0])  # one free, two in flight: all must go
        pool.close()
        assert _shm_entries() - before == set()

    def test_free_list_is_bounded(self):
        pool = ShmArenaPool()
        try:
            blocks = [pool.acquire((i + 1) * 100_000) for i in range(7)]
            for b in blocks:
                pool.release(b)
            assert len(pool._free) <= shm_mod._MAX_FREE_BLOCKS
        finally:
            pool.close()

    def test_finalizer_cleans_up_abandoned_pool(self):
        before = _shm_entries()
        pool = ShmArenaPool()
        pool.acquire(4096)
        pool._finalizer()  # what gc / interpreter exit would run
        assert _shm_entries() - before == set()


class TestShmTransportLifecycle:
    def test_shutdown_unlinks_arenas(self):
        before = _shm_entries()
        pm = ProcessMap(2, serial_cutoff=0, transport="shm")
        try:
            out = pm.map_segments(NamOracle(), _segments())
            assert all(len(seg) < 4 for seg in out)
            if HAVE_SHM_DIR:
                assert _shm_entries() - before  # arenas live mid-run
        finally:
            pm.close()
        assert _shm_entries() - before == set()

    def test_worker_crash_leaves_no_arenas(self):
        from concurrent.futures.process import BrokenProcessPool

        before = _shm_entries()
        pm = ProcessMap(2, serial_cutoff=0, transport="shm")
        try:
            with pytest.raises(BrokenProcessPool):
                pm.map_segments(CrashingOracle(), _segments())
        finally:
            pm.close()
        assert _shm_entries() - before == set()

    def test_failed_round_discards_arenas_instead_of_recycling(self):
        # a failed round may leave straggler batch tasks writing into
        # the arenas; recycling them would hand a later round corrupted
        # memory, so they must be unlinked, and the next round must run
        # on fresh blocks
        before = _shm_entries()
        pm = ProcessMap(2, serial_cutoff=0, transport="shm")
        try:
            with pytest.raises(ValueError, match="boom"):
                pm.map_segments(RaisingOracle(), _segments())
            assert pm.wire.arenas.ring_bytes == 0  # ring emptied, nothing recycled
            assert _shm_entries() - before == set()  # and nothing leaked
            oracle = NamOracle()
            want = [oracle(list(s)) for s in _segments()]
            assert pm.map_segments(oracle, _segments()) == want
        finally:
            pm.close()
        assert _shm_entries() - before == set()

    def test_arena_ring_reused_across_rounds(self):
        pm = ProcessMap(2, serial_cutoff=0, transport="shm")
        try:
            oracle = NamOracle()
            pm.map_segments(oracle, _segments())
            allocs_after_first = pm.counters()["arena_allocations"]
            for _ in range(3):
                pm.map_segments(oracle, _segments())
            assert pm.counters()["arena_allocations"] == allocs_after_first
            assert pm.counters()["arena_reuses"] >= 6  # 3 rounds x 2 arenas
            assert pm.wire.arenas.ring_bytes > 0
        finally:
            pm.close()

    def test_batched_dispatch_accounted(self):
        pm = ProcessMap(2, serial_cutoff=0, transport="shm")
        try:
            pm.map_segments(NamOracle(), _segments(12))
            assert pm.pool_dispatches == 1  # one claim round
            assert pm.counters()["results_returned"] == 12  # each through the arena
        finally:
            pm.close()


class TestShmFallback:
    def test_falls_back_to_encoded_without_shared_memory(self, monkeypatch):
        monkeypatch.setattr(shm_mod, "HAVE_SHM", False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            pm = ProcessMap(2, serial_cutoff=0, transport="shm")
        try:
            assert pm.transport == "encoded"
            assert pm.requested_transport == "shm"
            oracle = NamOracle()
            want = [oracle(list(s)) for s in _segments()]
            assert pm.map_segments(oracle, _segments()) == want
        finally:
            pm.close()

    def test_popqc_accepts_shm_request_on_fallen_back_executor(self, monkeypatch):
        from repro.circuits import Circuit
        from repro.core import popqc

        monkeypatch.setattr(shm_mod, "HAVE_SHM", False)
        with pytest.warns(RuntimeWarning):
            pm = ProcessMap(2, serial_cutoff=0, transport="shm")
        try:
            circuit = Circuit(sum(_segments(20), []), 2)
            res = popqc(circuit, NamOracle(), 4, parmap=pm)
            assert res.stats.transport == "encoded"  # what actually ran
        finally:
            pm.close()


class TestStaleGuards:
    def test_stale_arena_round_id_rejected(self):
        import numpy as np

        pool = ShmArenaPool()
        try:
            block = pool.acquire(4096)
            shm_mod.write_input_arena(
                block.buf, round_id=7, encoded=[], offsets=np.zeros(0, dtype=np.int64)
            )
            with pytest.raises(shm_mod.StaleArenaError, match="round 7"):
                shm_mod.check_round(block.buf, 8, block.name)
            assert shm_mod.check_round(block.buf, 7, block.name) == 0
        finally:
            pool.close()
