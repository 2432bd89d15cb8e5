"""Tests for the scheduling policies: makespan models, chunking, and the
round-cost model that decides where a round runs (driven with stated
costs and an injected clock, never with real time)."""

import types

import pytest
from hypothesis import given, strategies as st

from repro.circuits import CNOT, H
from repro.parallel import (
    LazySegmentResult,
    ProcessMap,
    RoundCostModel,
    adaptive_chunksize,
    greedy_makespan,
)

from repro.parallel import executor as executor_module
from repro.parallel.scheduling import MAX_PROBE_INTERVAL, PROBE_INTERVAL

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


class TestAdaptiveChunksize:
    def test_unknown_task_time_uses_balance_chunk(self):
        # seed policy: ~4 chunks per worker
        assert adaptive_chunksize(160, 4, 0.0) == 10

    def test_long_tasks_keep_small_chunks(self):
        # 100ms oracle calls amortize dispatch on their own
        assert adaptive_chunksize(160, 4, 0.1) == 10

    def test_short_tasks_get_bigger_chunks(self):
        # microsecond tasks must be batched to amortize IPC
        small = adaptive_chunksize(1000, 4, 1e-6)
        assert small > adaptive_chunksize(1000, 4, 1e-2)

    def test_never_exceeds_items_per_worker(self):
        # batching must not idle workers
        for est in (0.0, 1e-6, 1e-3, 1.0):
            assert adaptive_chunksize(8, 4, est) <= 2

    def test_at_least_one(self):
        assert adaptive_chunksize(0, 4, 0.0) == 1
        assert adaptive_chunksize(1, 8, 1.0) == 1

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            adaptive_chunksize(10, 0, 0.0)

    @given(
        st.integers(0, 5000),
        st.integers(1, 64),
        st.floats(0.0, 10.0, allow_nan=False),
    )
    def test_always_positive_and_bounded(self, items, workers, est):
        chunk = adaptive_chunksize(items, workers, est)
        assert chunk >= 1
        if items > 0:
            assert chunk <= -(-items // workers) or chunk == 1


class TestBatchSegments:
    def test_empty(self):
        from repro.parallel import batch_segments

        assert batch_segments(0, 4, 0.0) == []

    @given(st.integers(1, 500), WORKERS, st.floats(0.0, 1.0, allow_nan=False))
    def test_partition_covers_range_contiguously(self, n, workers, est):
        from repro.parallel import batch_segments

        batches = batch_segments(n, workers, est)
        assert batches[0][0] == 0
        assert batches[-1][1] == n
        for (_, prev_end), (start, end) in zip(batches, batches[1:]):
            assert start == prev_end
            assert end > start

    @given(st.integers(1, 500), WORKERS)
    def test_widths_match_adaptive_chunksize(self, n, workers):
        from repro.parallel import batch_segments

        est = 1e-5
        width = adaptive_chunksize(n, workers, est)
        batches = batch_segments(n, workers, est)
        assert all(end - start == width for start, end in batches[:-1])
        assert batches[-1][1] - batches[-1][0] <= width

    def test_cheap_segments_coalesce(self):
        from repro.parallel import batch_segments

        # 100 sub-50us segments at 4 workers: dispatch count drops by
        # ~an order of magnitude vs one task per segment
        batches = batch_segments(100, 4, 5e-5)
        assert len(batches) <= 10

    def test_expensive_segments_stay_spread(self):
        from repro.parallel import batch_segments

        # 100ms oracle calls amortize dispatch on their own; keep
        # chunks_per_worker batches per worker for balance
        batches = batch_segments(100, 4, 0.1)
        assert len(batches) >= 10


def _drive(model, segments, cost, rounds):
    """``rounds`` rounds of ``segments`` 10-gate segments, each placed
    by ``model`` and charged ``cost[side]`` seconds per gate; returns
    the sides chosen."""
    sides = []
    for _ in range(rounds):
        side = model.choose(segments)
        model.observe(side, segments, 10 * segments, cost[side] * 10 * segments)
        sides.append(side)
    return sides


class TestRoundCostModel:
    def test_unmeasured_goes_pool_first_then_inline(self):
        model = RoundCostModel()
        assert model.estimate("inline", 8) is None
        assert model.choose(8) == "pool"
        assert model.choose(8) == "pool"  # still nothing observed (a cold round)
        model.observe("pool", 8, 80, 1.0)
        assert model.choose(8) == "inline"
        model.observe("inline", 8, 80, 2.0)
        assert model.choose(8) == "pool"  # both measured: the cheaper one

    def test_cheaper_side_wins_class_by_class(self):
        model = RoundCostModel()
        for segments, inline, pool in ((4, 1.0, 3.0), (64, 3.0, 1.0)):
            model.observe("inline", segments, 100, inline)
            model.observe("pool", segments, 100, pool)
        assert [model.choose(n) for n in (4, 5, 7)] == ["inline"] * 3
        assert [model.choose(n) for n in (64, 100, 127)] == ["pool"] * 3
        assert model.table() == {
            3: {"inline_us_per_gate": 1e4, "inline_rounds": 1,
                "pool_us_per_gate": 3e4, "pool_rounds": 1},
            7: {"inline_us_per_gate": 3e4, "inline_rounds": 1,
                "pool_us_per_gate": 1e4, "pool_rounds": 1},
        }

    def test_unmeasured_class_borrows_its_neighbour(self):
        model = RoundCostModel()
        model.observe("inline", 2, 100, 1.0)  # class 2
        model.observe("inline", 200, 100, 5.0)  # class 8
        model.observe("pool", 200, 100, 3.0)
        assert model.estimate("inline", 6) == 1.0 / 100  # class 3: nearer 2
        assert model.estimate("inline", 60) == 5.0 / 100  # class 6: nearer 8
        assert model.estimate("inline", 16) == 1.0 / 100  # class 5: a tie, the narrower
        assert model.estimate("pool", 3) == 3.0 / 100  # the only pool class
        assert model.choose(6) == "inline" and model.choose(60) == "pool"

    def test_estimate_is_a_weighted_mean(self):
        model = RoundCostModel()
        model.observe("inline", 4, 0, 1.0)  # no gates: nothing to divide by
        assert model.estimate("inline", 4) is None
        model.observe("inline", 4, 10, 1.0)
        model.observe("inline", 4, 10, 2.0)
        assert model.estimate("inline", 4) == pytest.approx(0.7 * 0.1 + 0.3 * 0.2)

    def test_dearer_pool_probed_1_in_16_then_less(self):
        model = RoundCostModel()
        cost = {"inline": 1e-6, "pool": 2e-6}
        assert _drive(model, 8, cost, 2) == ["pool", "inline"]  # warm-up
        sides = _drive(model, 8, cost, 2000)
        pooled = [i for i, side in enumerate(sides, 1) if side == "pool"]
        assert pooled[:5] == [16, 48, 112, 240, 496]  # gaps 16, 32, 64, 128, 256
        gaps = [b - a for a, b in zip(pooled, pooled[1:])]
        assert gaps == sorted(gaps) and gaps[-1] == MAX_PROBE_INTERVAL
        for start in range(0, len(sides), PROBE_INTERVAL):  # never more than 1 in 16
            assert sides[start : start + PROBE_INTERVAL].count("pool") <= 1

    def test_cheaper_pool_keeps_its_wide_rounds(self):
        """The other direction: where the pool wins, the pool is chosen,
        and it is inline that gets the occasional probe."""
        model = RoundCostModel()
        cost = {"inline": 2e-6, "pool": 1e-6}
        _drive(model, 100, cost, 2)
        sides = _drive(model, 100, cost, 500)
        probed = [i for i, side in enumerate(sides, 1) if side == "inline"]
        assert probed == [16, 48, 112, 240, 496]

    def test_probe_interval_resets_on_a_swap(self):
        model = RoundCostModel()
        _drive(model, 8, {"inline": 1e-6, "pool": 2e-6}, 2 + 48)  # interval now 64
        cost = {"inline": 9e-6, "pool": 2e-6}  # the parent got slow
        sides = _drive(model, 8, cost, 40)
        swap = sides.index("pool")
        assert swap < 8  # a few inline rounds move the mean past the pool's
        assert sides[swap : swap + 15] == ["pool"] * 15
        assert sides[swap + 15] == "inline"  # probed after 16 again, not 64


class _FakeWire:
    """A transport that charges a clock instead of starting workers; its
    first round is the cold one (no pool seconds reported)."""

    workers = 2

    def __init__(self, clock, seconds_per_gate):
        self.clock = clock
        self.seconds_per_gate = seconds_per_gate
        self.rounds = 0

    def run_round(self, oracle, segments, plan):
        self.rounds += 1
        spent = self.seconds_per_gate * sum(map(len, segments))
        self.clock.now += spent
        results = [LazySegmentResult.from_gates(list(seg.gates())) for seg in segments]
        return results, 0.0, spent if self.rounds > 1 else None

    def counters(self):
        return {}

    def close(self):
        pass


SEGMENT = [H(0), CNOT(0, 1)] * 5


@pytest.fixture
def timed_map(monkeypatch):
    """``make(pool_cost, serial_cutoff=None)`` -> a ``ProcessMap`` on a
    fake wire and an oracle, both charging seconds per gate to a clock
    that replaces ``time`` in the executor module: the oracle 1 us, the
    wire ``pool_cost``."""
    clock = types.SimpleNamespace(now=0.0)
    clock.perf_counter = lambda: clock.now
    monkeypatch.setattr(executor_module, "time", clock)

    def oracle(gates):
        clock.now += 1e-6 * len(gates)
        return gates

    def make(pool_cost, serial_cutoff=None):
        pm = ProcessMap(2, serial_cutoff, transport="threads")
        pm.wire = _FakeWire(clock, pool_cost)
        return pm, oracle

    return make


class TestMeasuredPlacement:
    WIDTHS = [1, 2, 3, 8, 40, 2, 9, 100, 5]

    def _run(self, pm, oracle, rounds):
        for i in range(rounds):
            n = self.WIDTHS[i % len(self.WIDTHS)]
            assert pm.map_segments(oracle, [SEGMENT] * n) == [SEGMENT] * n

    def test_cold_round_is_not_observed(self, timed_map):
        pm, oracle = timed_map(pool_cost=50e-6)
        pm.map_segments(oracle, [SEGMENT] * 5)  # starts the pool
        assert pm.pool_dispatches == 1 and pm.cost_model.table() == {}
        pm.map_segments(oracle, [SEGMENT] * 5)  # warm: the pool's first figure
        assert pm.cost_model.estimate("pool", 5) == pytest.approx(50e-6)
        pm.map_segments(oracle, [SEGMENT] * 5)  # then inline's
        assert pm.cost_model.estimate("inline", 5) == pytest.approx(1e-6)
        assert (pm.pool_dispatches, pm.inline_rounds, pm.inline_segments) == (2, 1, 5)
        assert pm.counters()["inline_rounds"] == 1
        assert pm.counters()["inline_segments"] == 5

    def test_pool_at_twice_the_price_gets_1_in_16(self, timed_map):
        pm, oracle = timed_map(pool_cost=2e-6)
        self._run(pm, oracle, 18)  # warm-up: both sides measured, here or next door
        pooled, inline = pm.pool_dispatches, pm.inline_rounds
        self._run(pm, oracle, 900)
        pooled, inline = pm.pool_dispatches - pooled, pm.inline_rounds - inline
        assert pooled + inline == 600  # the rounds above the floor, each counted once
        assert 0 < pooled <= 600 // 16
        late = pm.pool_dispatches
        self._run(pm, oracle, 900)
        assert pm.pool_dispatches - late < pooled  # and the probes thin out

    def test_pool_at_half_the_price_keeps_wide_rounds(self, timed_map):
        pm, oracle = timed_map(pool_cost=0.5e-6)
        self._run(pm, oracle, 18)
        pooled, inline = pm.pool_dispatches, pm.inline_rounds
        self._run(pm, oracle, 900)
        pooled, inline = pm.pool_dispatches - pooled, pm.inline_rounds - inline
        assert pooled + inline == 600 and inline <= 600 // 16
        assert pm.segments_batched > 0 and pm.last_batch_sizes

    @pytest.mark.parametrize("cutoff", [0, 2, 8])
    def test_explicit_cutoff_never_asks_the_model(self, timed_map, cutoff):
        pm, oracle = timed_map(pool_cost=100e-6, serial_cutoff=cutoff)
        asked = []
        pm.cost_model.choose = lambda n: asked.append(n) or "inline"
        self._run(pm, oracle, 90)
        assert asked == [] and pm.serial_cutoff == cutoff
        assert pm.pool_dispatches == 10 * sum(n > cutoff for n in self.WIDTHS)
        assert pm.inline_rounds == 0  # the pool 100x dearer, and still the fixed rule

    def test_default_floor_is_two(self, timed_map):
        pm, oracle = timed_map(pool_cost=0.01e-6)  # a pool that is nearly free
        self._run(pm, oracle, 90)
        assert pm.serial_cutoff == 2
        assert pm.wire.rounds + pm.inline_rounds == 60  # widths 1 and 2 never left

    def test_batch_plan_fed_measured_inline_seconds(self, timed_map, monkeypatch):
        seen = []
        real = executor_module.batch_segments
        monkeypatch.setattr(
            executor_module,
            "batch_segments",
            lambda n, workers, est: seen.append(est) or real(n, workers, est),
        )
        pm, oracle = timed_map(pool_cost=2e-6, serial_cutoff=2)
        pm.map_segments(oracle, [SEGMENT] * 40)
        assert seen == [0.0]  # nothing measured yet: the balance-only plan
        pm.map_segments(oracle, [SEGMENT] * 2)  # an inline round: 1 us a gate
        pm.map_segments(oracle, [SEGMENT] * 40)
        assert seen[1] == pytest.approx(1e-6 * len(SEGMENT))  # per segment
        assert pm.last_batch_sizes == [20, 20]  # 10 us tasks coalesce per worker
        assert not hasattr(pm, "_task_seconds_est") and not hasattr(pm, "_observe")
