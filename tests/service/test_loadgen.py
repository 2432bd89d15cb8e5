"""The load-generation harness: determinism, aggregation, end to end.

The harness's core contract is reproducibility — the same mix + seed
must expand into the same schedule and the same circuit bytes on every
machine — so most of this file pins pure functions (`build_schedule`,
`schedule_manifest`, `percentile`, `MixReport` aggregation) without a
server.  One end-to-end class replays a small suite against a live
in-process `OptimizationService` and checks the emitted schema-v1
record is complete and internally consistent.
"""

import json
import random

import pytest

from repro.oracles import NamOracle
from repro.service import OptimizationService
from repro.service.loadgen import (
    SCHEMA,
    JobOutcome,
    MixReport,
    TrafficMix,
    build_circuits,
    build_schedule,
    circuit_digest,
    default_mixes,
    percentile,
    run_load,
    run_slo_suite,
    schedule_manifest,
)

MIX = TrafficMix(
    name="unit",
    families=(("Grover", 0), ("BoolSat", 0)),
    jobs=12,
    arrival_rate_jobs_per_s=50.0,
    duplicate_fraction=0.4,
    priorities=((1, 0.7), (8, 0.3)),
)


class TestBuildSchedule:
    def test_deterministic(self):
        a = build_schedule(MIX, seed=3)
        b = build_schedule(MIX, seed=3)
        assert a == b

    def test_seed_changes_schedule(self):
        assert build_schedule(MIX, seed=3) != build_schedule(MIX, seed=4)

    def test_mix_name_salts_stream(self):
        other = TrafficMix(
            name="unit2",
            families=MIX.families,
            jobs=MIX.jobs,
            arrival_rate_jobs_per_s=MIX.arrival_rate_jobs_per_s,
            duplicate_fraction=MIX.duplicate_fraction,
            priorities=MIX.priorities,
        )
        assert build_schedule(MIX, seed=3) != build_schedule(other, seed=3)

    def test_arrivals_monotone(self):
        schedule = build_schedule(MIX, seed=3)
        offsets = [j.at_seconds for j in schedule]
        assert offsets == sorted(offsets)
        assert offsets[0] > 0.0  # first Poisson gap is drawn too

    def test_no_pacing_means_zero_offsets(self):
        mix = TrafficMix(name="closed", families=(("Grover", 0),), jobs=4)
        assert all(j.at_seconds == 0.0 for j in build_schedule(mix, seed=1))

    def test_duplicates_point_at_originals(self):
        schedule = build_schedule(MIX, seed=3)
        for job in schedule:
            if job.duplicate_of is not None:
                original = schedule[job.duplicate_of]
                assert original.duplicate_of is None
                assert original.circuit_seed == job.circuit_seed
                assert (original.family, original.spec) == (
                    job.family,
                    job.spec,
                )

    def test_priorities_drawn_from_distribution(self):
        drawn = {j.priority for j in build_schedule(MIX, seed=3)}
        assert drawn <= {1, 8}

    def test_unique_pool_shape(self):
        mix = TrafficMix(
            name="pool",
            families=(("Grover", 0), ("VQE", 0)),
            jobs=10,
            unique_pool=3,
        )
        schedule = build_schedule(mix, seed=5)
        assert all(j.duplicate_of is None for j in schedule[:3])
        assert all(j.duplicate_of is not None for j in schedule[3:])
        assert all(j.duplicate_of < 3 for j in schedule[3:])

    def test_unique_pool_overrides_duplicate_fraction(self):
        mix = TrafficMix(
            name="pool",
            families=(("Grover", 0),),
            jobs=6,
            duplicate_fraction=1.0,
            unique_pool=4,
        )
        schedule = build_schedule(mix, seed=5)
        assert [j.duplicate_of for j in schedule[:4]] == [None] * 4


class TestCircuits:
    def test_duplicates_share_objects(self):
        schedule = build_schedule(MIX, seed=3)
        circuits = build_circuits(schedule)
        for job in schedule:
            if job.duplicate_of is not None:
                assert circuits[job.index] is circuits[job.duplicate_of]

    def test_circuit_seed_determines_circuit(self):
        schedule = build_schedule(MIX, seed=3)
        again = build_circuits(schedule)
        first = build_circuits(schedule)
        for a, b in zip(first, again):
            assert a.gates == b.gates

    def test_digest_is_content_addressed(self):
        schedule = build_schedule(MIX, seed=3)
        circuits = build_circuits(schedule)
        a, b = build_circuits(schedule), circuits
        for x, y in zip(a, b):
            assert circuit_digest(x) == circuit_digest(y)
        # different circuits hash differently (overwhelmingly likely)
        uniques = [
            circuits[j.index] for j in schedule if j.duplicate_of is None
        ]
        if len(uniques) > 1:
            digests = {circuit_digest(c) for c in uniques}
            assert len(digests) > 1


class TestManifest:
    def test_byte_identical_for_same_seed(self):
        mixes = list(default_mixes(smoke=True).values())
        assert schedule_manifest(mixes, 7) == schedule_manifest(mixes, 7)

    def test_seed_changes_bytes(self):
        mixes = list(default_mixes(smoke=True).values())
        assert schedule_manifest(mixes, 7) != schedule_manifest(mixes, 8)

    def test_manifest_is_canonical_json(self):
        mixes = list(default_mixes(smoke=True).values())
        text = schedule_manifest(mixes, 7)
        parsed = json.loads(text)
        assert parsed["schema"] == SCHEMA + "+schedule"
        assert parsed["seed"] == 7
        assert set(parsed["mixes"]) == {
            "cold",
            "warm",
            "flood",
            "interactive",
        }
        redumped = json.dumps(parsed, sort_keys=True, indent=2) + "\n"
        assert redumped == text

    def test_manifest_entries_cover_schedule(self):
        mix = default_mixes(smoke=True)["warm"]
        parsed = json.loads(schedule_manifest([mix], 7))
        entries = parsed["mixes"]["warm"]
        assert len(entries) == mix.jobs
        for entry in entries:
            assert entry["digest"].strip()
            assert entry["num_gates"] > 0


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_single_value(self):
        assert percentile([3.5], 99) == 3.5

    def test_median_even(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)

    def test_interpolation_matches_numpy_default(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        assert percentile(values, 90) == pytest.approx(46.0)
        assert percentile(values, 0) == 10.0
        assert percentile(values, 100) == 50.0

    def test_order_independent(self):
        rng = random.Random(9)
        values = [rng.random() for _ in range(37)]
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert percentile(values, 73) == percentile(shuffled, 73)


def _outcome(latency, *, hits=0, misses=0, dup=False, error=None, busy=0):
    return JobOutcome(
        mix="m",
        index=0,
        priority=1,
        scheduled_at=0.0,
        queue_delay_seconds=0.0,
        latency_seconds=latency,
        duplicate=dup,
        cache_hits=hits,
        cache_misses=misses,
        busy_rejections=busy,
        error=error,
    )


class TestMixReport:
    def test_failed_jobs_excluded_from_latency(self):
        report = MixReport(name="m", scheduled=3)
        report.outcomes = [
            _outcome(1.0),
            _outcome(2.0),
            _outcome(99.0, error="ServiceBusyError: full"),
        ]
        assert report.latencies == [1.0, 2.0]
        assert len(report.failed) == 1

    def test_duplicate_latencies_isolated(self):
        report = MixReport(name="m", scheduled=2)
        report.outcomes = [_outcome(2.0), _outcome(0.5, dup=True)]
        assert report.duplicate_latencies == [0.5]

    def test_cache_hit_rate(self):
        report = MixReport(name="m", scheduled=2)
        report.outcomes = [
            _outcome(1.0, hits=3, misses=1),
            _outcome(1.0, hits=2, misses=2),
        ]
        assert report.cache_hit_rate == pytest.approx(5 / 8)

    def test_trajectory_windows_cover_all_jobs(self):
        report = MixReport(name="m", scheduled=7)
        report.outcomes = [
            _outcome(1.0, hits=i, misses=1) for i in range(7)
        ]
        trajectory = report.cache_hit_trajectory(buckets=3)
        assert sum(w["jobs"] for w in trajectory) == 7
        assert len(trajectory) == 3

    def test_trajectory_caps_at_job_count(self):
        report = MixReport(name="m", scheduled=2)
        report.outcomes = [_outcome(1.0, hits=1, misses=1)] * 2
        assert len(report.cache_hit_trajectory(buckets=10)) == 2

    def test_as_dict_schema_fields(self):
        report = MixReport(name="m", scheduled=2, wall_seconds=4.0)
        report.outcomes = [
            _outcome(1.0, hits=1, misses=3, busy=2),
            _outcome(3.0, dup=True, hits=4, misses=0),
        ]
        record = report.as_dict()
        assert record["jobs_scheduled"] == 2
        assert record["jobs_completed"] == 2
        assert record["jobs_failed"] == 0
        assert record["busy_rejections"] == 2
        assert record["latency_seconds"]["p50"] == pytest.approx(2.0)
        assert record["throughput_jobs_per_s"] == pytest.approx(0.5)
        assert record["duplicate_latency_seconds"]["count"] == 1
        assert record["cache"]["hit_rate"] == pytest.approx(5 / 8)
        assert record["priorities"] == {"1": 2}
        assert record["errors"] == []


@pytest.fixture(scope="module")
def service():
    srv = OptimizationService(
        NamOracle(), workers=2, transport="threads"
    ).start()
    yield srv
    srv.stop()


class TestEndToEnd:
    def test_run_load_completes_every_job(self, service):
        mix = TrafficMix(
            name="e2e",
            families=(("Grover", 0),),
            jobs=4,
            unique_pool=1,
            omega=60,
            clients=2,
        )
        result = run_load(service.address, [mix], seed=11)
        report = result.mixes["e2e"]
        assert report.scheduled == 4
        assert len(report.completed) == 4
        assert not report.failed
        # the three replays of the pool circuit are pure cache hits
        assert report.cache_hit_rate > 0.5
        assert all(o.latency_seconds > 0 for o in report.outcomes)

    def test_slo_suite_record_is_complete(self, service):
        record = run_slo_suite(
            service.address, seed=11, smoke=True, time_scale=0.2
        )
        assert record["schema"] == SCHEMA
        assert set(record["mixes"]) == {
            "cold",
            "warm",
            "flood",
            "interactive",
        }
        for section in record["mixes"].values():
            assert section["jobs_failed"] == 0
            assert section["jobs_completed"] == section["jobs_scheduled"]
        assert record["derived"]["warm_p50_speedup_vs_cold"] > 0
        assert record["derived"]["interactive_p99_over_flood_p50"] > 0
        assert record["slo"]["warm_p50_speedup_min"] == 1.3
        # warm duplicates exist and the cache served them
        warm = record["mixes"]["warm"]
        assert warm["duplicate_latency_seconds"]["count"] > 0
        assert warm["cache"]["hit_rate"] > 0
        assert json.dumps(record)  # JSON-serializable end to end
