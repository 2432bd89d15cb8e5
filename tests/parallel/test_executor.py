"""Tests for the parmap executors."""

import pickle

import pytest

from repro.parallel import ProcessMap, SerialMap, default_workers


def square(x: int) -> int:
    return x * x


class TestSerialMap:
    def test_order_preserved(self):
        assert SerialMap().map(square, [3, 1, 2]) == [9, 1, 4]

    def test_empty(self):
        assert SerialMap().map(square, []) == []

    def test_workers_is_one(self):
        assert SerialMap().workers == 1

    def test_close_noop(self):
        SerialMap().close()


class TestProcessMap:
    def test_picklable_oracle_roundtrip(self):
        # the actual POPQC use case: a NamOracle crossing process bounds
        from repro.circuits import H
        from repro.oracles import NamOracle
        from repro.parallel.transports import _answer_pickled

        # a pickle-transport round's message: the oracle and the gate lists
        message = _answer_pickled, (1, 1, NamOracle(), [[H(0), H(0)]]), 1
        step, (_, _, oracle, segments), _ = pickle.loads(pickle.dumps(message))
        assert step is _answer_pickled and oracle(segments[0]) == []

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError):
            ProcessMap(2, transport="grpc")

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_rejected(self, workers):
        """Refused at construction, not by the first wide round's claim
        cell (``-1``) or read as every core (``0``)."""
        with pytest.raises(ValueError, match=f"at least 1, got {workers}"):
            ProcessMap(workers, serial_cutoff=0)


class TestMapSegments:
    """The persistent-worker oracle transport."""

    def _segments(self, count=6):
        from repro.circuits import CNOT, H, X

        return [[H(0), H(0), X(1), CNOT(0, 1)] for _ in range(count)]

    def test_small_batch_runs_inline(self):
        from repro.oracles import NamOracle

        pm = ProcessMap(2, serial_cutoff=8)
        try:
            out = pm.map_segments(NamOracle(), self._segments(3))
            assert pm.wire._pool is None  # never escalated to processes
        finally:
            pm.close()
        assert all(len(seg) < 4 for seg in out)

    @pytest.mark.parametrize("transport", ["encoded", "pickle"])
    def test_matches_serial_oracle(self, transport):
        from repro.oracles import NamOracle

        oracle = NamOracle()
        segments = self._segments(8)
        want = [oracle(list(seg)) for seg in segments]
        pm = ProcessMap(2, serial_cutoff=0, transport=transport)
        try:
            assert pm.map_segments(oracle, segments) == want
        finally:
            pm.close()

    def test_oracle_registered_once_per_pool(self):
        from repro.oracles import NamOracle

        oracle = NamOracle()
        pm = ProcessMap(2, serial_cutoff=0)
        try:
            pm.map_segments(oracle, self._segments())
            pool = pm.wire._pool
            pm.map_segments(oracle, self._segments())
            assert pm.wire._pool is pool  # same workers, no re-registration
            assert pm.wire._oracle is oracle
        finally:
            pm.close()

    def test_swapping_oracle_rebuilds_pool(self):
        from repro.oracles import IdentityOracle, NamOracle

        pm = ProcessMap(2, serial_cutoff=0)
        try:
            pm.map_segments(NamOracle(), self._segments())
            pool = pm.wire._pool
            out = pm.map_segments(IdentityOracle(), self._segments())
            assert pm.wire._pool is not pool
            assert out == self._segments()  # identity oracle is a no-op
        finally:
            pm.close()

    @pytest.mark.parametrize("transport", ["encoded", "shm"])
    def test_swapping_oracle_bumps_generation(self, transport):
        # regression: a swapped oracle must never be served by workers
        # registered for the previous one.  The pool rebuild plus the
        # per-task generation token make that structurally impossible.
        from repro.oracles import IdentityOracle, NamOracle

        pm = ProcessMap(2, serial_cutoff=0, transport=transport)
        try:
            pm.map_segments(NamOracle(), self._segments())
            gen_a = pm.wire.generation
            out = pm.map_segments(IdentityOracle(), self._segments())
            assert pm.wire.generation > gen_a
            assert out == self._segments()  # the *new* oracle's results
        finally:
            pm.close()

    def test_stale_generation_rejected_worker_side(self):
        # simulate a worker whose initializer registered generation 1
        # receiving a task tagged for generation 2 (the failure mode the
        # token exists to catch: without it the worker would silently
        # apply the stale oracle)
        import os
        import threading

        from repro.circuits import encode_segment, pack_segment
        from repro.circuits.encoding import unpack_segment_from
        from repro.oracles import IdentityOracle
        from repro.parallel import StaleOracleError
        from repro.parallel import transports as executor_mod

        executor_mod._register_worker_oracle(IdentityOracle(), 1)
        try:
            encoded = encode_segment(self._segments(1)[0])
            blob = pack_segment(encoded)
            # one child of a by-value claim round, taking both segments:
            # packed bytes in, packed bytes back, results still in the
            # flat wire format (lazy decode)
            executor_mod._WORKER_CELL = threading.Lock(), [7, 0, 0], 0, os.getppid()
            answers = executor_mod._answer_packed((7, 1, [blob, blob]))
            assert [index for index, _ in answers] == [0, 1]
            for _, reply in answers:
                assert isinstance(reply, bytes)
                roundtripped, _ = unpack_segment_from(reply)
                assert roundtripped == encoded
            executor_mod._WORKER_CELL = threading.Lock(), [8, 0, 0], 0, os.getppid()
            with pytest.raises(StaleOracleError, match="generation 2"):
                executor_mod._answer_packed((8, 2, [blob]))
        finally:
            executor_mod._register_worker_oracle(None, -1)
            executor_mod._WORKER_CELL = None

    def test_serialization_time_tracked(self):
        from repro.oracles import NamOracle

        pm = ProcessMap(2, serial_cutoff=0)
        try:
            pm.map_segments(NamOracle(), self._segments(8))
            assert pm.last_serialization_time > 0.0
            assert pm.serialization_time >= pm.last_serialization_time
        finally:
            pm.close()


class TestThreadsTransport:
    """The in-process thread-pool oracle transport."""

    def _segments(self, count=6):
        from repro.circuits import CNOT, H, X

        return [[H(0), H(0), X(1), CNOT(0, 1)] for _ in range(count)]

    def test_matches_serial_oracle(self):
        from repro.oracles import NamOracle

        oracle = NamOracle()
        segments = self._segments(8)
        want = [oracle(list(seg)) for seg in segments]
        pm = ProcessMap(2, serial_cutoff=0, transport="threads")
        try:
            assert pm.map_segments(oracle, segments) == want
        finally:
            pm.close()

    def test_no_process_pool_spawned(self):
        from concurrent.futures import ThreadPoolExecutor

        from repro.oracles import NamOracle

        pm = ProcessMap(2, serial_cutoff=0, transport="threads")
        try:
            pm.map_segments(NamOracle(), self._segments(8))
            # no process pool, only threads
            assert isinstance(pm.wire._pool, ThreadPoolExecutor)
        finally:
            pm.close()
        assert pm.wire._pool is None  # close() shut the thread pool

    def test_thread_pool_reused_across_rounds(self):
        from repro.oracles import NamOracle

        pm = ProcessMap(2, serial_cutoff=0, transport="threads")
        try:
            pm.map_segments(NamOracle(), self._segments(8))
            pool = pm.wire._pool
            pm.map_segments(NamOracle(), self._segments(8))
            assert pm.wire._pool is pool
        finally:
            pm.close()

    def test_gate_list_oracle_skips_encoding(self):
        from repro.oracles import NamOracle

        pm = ProcessMap(2, serial_cutoff=0, transport="threads")
        try:
            pm.map_segments(NamOracle(), self._segments(8))
            # no packed bytes exist for a plain gate-list oracle
            assert pm.counters()["results_returned"] == 0
            assert pm.last_serialization_time == 0.0
            assert pm.counters()["thread_wall_seconds"] > 0.0
            assert pm.counters()["thread_task_seconds"] > 0.0
        finally:
            pm.close()


def test_default_workers_positive():
    assert default_workers() >= 1
