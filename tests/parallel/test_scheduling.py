"""Tests for the scheduling policies: makespan models, the socket
transport's batching, and the one rule that decides where a round runs
(driven through a fake wire, never with real workers)."""

import pytest
from hypothesis import given, strategies as st

from repro.circuits import CNOT, H
from repro.parallel import (
    LazySegmentResult,
    ProcessMap,
    batch_segments,
    greedy_makespan,
)

DURATIONS = st.lists(st.floats(0.0, 10.0, allow_nan=False), max_size=40)
WORKERS = st.integers(1, 16)


def lower_bound(durations, workers):
    """No schedule beats max(total / p, longest task)."""
    return max(sum(durations) / workers, max(durations, default=0.0))


class TestKnownCases:
    def test_empty(self):
        assert greedy_makespan([], 4) == 0.0

    def test_single_worker_is_serial(self):
        assert greedy_makespan([1, 2, 3], 1) == 6.0

    def test_enough_workers_is_max(self):
        assert greedy_makespan([1, 2, 3], 3) == 3.0

    def test_two_workers(self):
        # arrival order: w1 gets 3 (busy to 3), w2 gets 2 (busy to 2),
        # then 2 goes to w2 (busy to 4)
        assert greedy_makespan([3, 2, 2], 2) == 4.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            greedy_makespan([-1.0], 2)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            greedy_makespan([1.0], 0)


class TestBounds:
    @given(DURATIONS, WORKERS)
    def test_greedy_between_ideal_and_serial(self, durations, workers):
        serial = sum(durations)
        greedy = greedy_makespan(durations, workers)
        ideal = lower_bound(durations, workers)
        assert ideal <= greedy + 1e-9
        assert greedy <= serial + 1e-9

    @given(DURATIONS, WORKERS)
    def test_graham_two_approximation(self, durations, workers):
        # Graham's bound: greedy <= (2 - 1/p) * optimal <= 2 * ideal
        greedy = greedy_makespan(durations, workers)
        ideal = lower_bound(durations, workers)
        assert greedy <= 2 * ideal + 1e-9

    @given(DURATIONS)
    def test_one_worker_exact(self, durations):
        assert greedy_makespan(durations, 1) == pytest.approx(sum(durations))

    @given(DURATIONS, WORKERS)
    def test_more_workers_never_hurts(self, durations, workers):
        assert greedy_makespan(durations, workers + 1) <= (
            greedy_makespan(durations, workers) + 1e-9
        )


class TestBatchSegments:
    def test_empty(self):
        assert batch_segments(0, 4) == []

    @given(st.integers(1, 500), WORKERS)
    def test_partition_covers_range_contiguously(self, n, workers):
        batches = batch_segments(n, workers)
        assert batches[0][0] == 0
        assert batches[-1][1] == n
        for (_, prev_end), (start, end) in zip(batches, batches[1:]):
            assert start == prev_end
            assert end > start

    def test_widths_are_balance_only(self):
        """ceil(n / (4 * workers)) wide: about four batches a worker,
        whatever the segments cost."""
        grid = [
            (1, 1, 1), (1, 8, 1), (8, 4, 1), (16, 1, 4), (17, 1, 5),
            (100, 3, 9), (160, 4, 10), (161, 4, 11), (500, 16, 8),
        ]
        for n, workers, width in grid:
            batches = batch_segments(n, workers)
            assert all(end - start == width for start, end in batches[:-1])
            assert 0 < batches[-1][1] - batches[-1][0] <= width


class _FakeWire:
    """A transport that answers in the calling thread and counts its
    rounds instead of starting workers."""

    workers = 2

    def __init__(self):
        self.rounds = 0

    def run_round(self, oracle, segments):
        self.rounds += 1
        return [LazySegmentResult.from_gates(oracle(s.gates())) for s in segments], 0.0

    def counters(self):
        return {}

    def close(self):
        pass


SEGMENT = [H(0), CNOT(0, 1)] * 5


@pytest.fixture
def fake_map():
    """``make(serial_cutoff=None)`` -> a ``ProcessMap`` on a fake wire."""

    def make(serial_cutoff=None):
        pm = ProcessMap(2, serial_cutoff, transport="threads")
        pm.wire = _FakeWire()
        return pm

    return make


class TestMeasuredPlacement:
    """Where a round runs is one rule: at most ``serial_cutoff`` segments
    in the parent, every wider round on the wire, once."""

    WIDTHS = [1, 2, 3, 8, 40, 2, 9, 100, 5]

    def _run(self, pm, rounds):
        for i in range(rounds):
            n = self.WIDTHS[i % len(self.WIDTHS)]
            assert pm.map_segments(list, [SEGMENT] * n) == [SEGMENT] * n

    @pytest.mark.parametrize("cutoff", [0, 2, 8])
    def test_explicit_cutoff_never_asks_the_model(self, fake_map, cutoff):
        """An explicit cutoff is the whole rule, as the default's is: no
        model is there to ask."""
        pm = fake_map(serial_cutoff=cutoff)
        self._run(pm, 90)
        assert pm.serial_cutoff == cutoff
        assert pm.pool_dispatches == pm.wire.rounds
        assert pm.pool_dispatches == 10 * sum(n > cutoff for n in self.WIDTHS)

    def test_default_floor_is_two(self, fake_map):
        pm = fake_map()
        self._run(pm, 90)
        assert pm.serial_cutoff == 2
        assert pm.pool_dispatches == pm.wire.rounds == 60  # widths 1 and 2 never left
