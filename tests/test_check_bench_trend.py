"""The CI perf gate itself (`benchmarks/check_bench_trend.py`).

The gate script guards every perf record the repo commits, but until
now nothing tested the gate — a bug there silently disarms CI.  These
tests import the script as a module (it lives outside the package) and
drive `main()` with synthetic records on disk, asserting exit statuses
for: healthy runs, transport throughput regressions, service-load SLO
violations (armed even cross-runner-class), p99 regressions (warn-only
cross-class unless --strict), cache-benefit floors, failed jobs, and
malformed schemas.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = (
    Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "check_bench_trend.py"
)
_spec = importlib.util.spec_from_file_location("check_bench_trend", _SCRIPT)
trend = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trend)


def _transport_record(serial=1000.0, socket=500.0, cpus=2):
    return {
        "schema": "popqc-bench-transport/v4",
        "host": {"cpus": cpus},
        "results": {
            "serial": {"segments_per_s": serial},
            "socket": {"segments_per_s": socket},
        },
    }


def _mix(p50=0.1, p99=0.2, hit_rate=0.0, failed=0):
    return {
        "jobs_scheduled": 4,
        "jobs_completed": 4 - failed,
        "jobs_failed": failed,
        "busy_rejections": 0,
        "latency_seconds": {"p50": p50, "p90": p99, "p99": p99},
        "throughput_jobs_per_s": 1.0,
        "cache": {"hit_rate": hit_rate, "trajectory": []},
        "errors": ["ServiceError: boom"] if failed else [],
    }


def _service_record(
    speedup=3.0, interactive_ratio=0.3, warm_hit=0.7, cpus=2, failed=0
):
    return {
        "schema": "popqc-bench-service-load/v1",
        "host": {"cpus": cpus},
        "config": {"seed": 7},
        "mixes": {
            "cold": _mix(p50=0.3, p99=0.5),
            "warm": _mix(p50=0.1, p99=0.3, hit_rate=warm_hit, failed=failed),
            "flood": _mix(p50=1.0, p99=1.2),
            "interactive": _mix(p50=0.1, p99=0.2),
        },
        "derived": {
            "warm_p50_speedup_vs_cold": speedup,
            "interactive_p99_over_flood_p50": interactive_ratio,
            "total_wall_seconds": 5.0,
        },
        "slo": {
            "warm_p50_speedup_min": 2.0,
            "interactive_p99_over_flood_p50_max": 1.0,
        },
    }


@pytest.fixture()
def write(tmp_path):
    def _write(name, record):
        path = tmp_path / name
        path.write_text(json.dumps(record))
        return str(path)

    return _write


class TestTransportGate:
    def test_healthy_passes(self, write):
        cur = write("cur.json", _transport_record())
        base = write("base.json", _transport_record())
        assert trend.main([cur, base]) == 0

    def test_serial_regression_fails(self, write):
        cur = write("cur.json", _transport_record(serial=700.0))
        base = write("base.json", _transport_record(serial=1000.0))
        assert trend.main([cur, base, "--tolerance", "0.2"]) == 1

    def test_within_tolerance_passes(self, write):
        cur = write("cur.json", _transport_record(serial=850.0))
        base = write("base.json", _transport_record(serial=1000.0))
        assert trend.main([cur, base, "--tolerance", "0.2"]) == 0

    def test_cross_class_regression_warns_only(self, write):
        cur = write("cur.json", _transport_record(serial=100.0, cpus=2))
        base = write("base.json", _transport_record(serial=1000.0, cpus=64))
        assert trend.main([cur, base]) == 0
        assert trend.main([cur, base, "--strict"]) == 1

    def test_socket_gate_has_double_tolerance(self, write):
        # a 30% socket drop passes at --tolerance 0.2 (socket floor 40%)
        cur = write("cur.json", _transport_record(socket=350.0))
        base = write("base.json", _transport_record(socket=500.0))
        assert trend.main([cur, base, "--tolerance", "0.2"]) == 0

    def test_cache_hit_speedup_floor_armed_cross_class(self, write):
        # the >=3x warm-cache floor lives here, not in tier-1 timing
        def with_service(speedup):
            record = _transport_record(cpus=2)
            record["service"] = {"hit_speedup_vs_oracle": speedup}
            return record

        base = write("base.json", _transport_record(cpus=64))
        assert trend.main([write("ok.json", with_service(3.5)), base]) == 0
        assert trend.main([write("slow.json", with_service(2.5)), base]) == 1

    def test_dispatch_section_is_printed_never_gated(self, write, capsys):
        record = _transport_record()
        record["dispatch"] = {
            "floor": 2,
            "inline_rounds": 110,
            "pool_rounds": 10,
            "per_class": {
                "3": {"inline_us_per_gate": 2.0, "inline_rounds": 19},
                "7": {"inline_us_per_gate": 9.0, "inline_rounds": 1,
                      "pool_us_per_gate": 4.5, "pool_rounds": 19},
            },
        }
        base = write("base.json", _transport_record())
        assert trend.main([write("cur.json", record), base]) == 0
        out = capsys.readouterr().out
        assert "110 rounds inline / 10 pooled above the floor of 2" in out
        assert "width class  3: inline 2.00 us/gate x 19\n" in out
        assert "width class  7: inline 9.00 us/gate x 1, pool 4.50 us/gate x 19" in out

    def test_validate_only_rejected_for_transport(self, write):
        cur = write("cur.json", _transport_record())
        assert trend.main([cur, "--validate-only"]) == 2


class TestServiceLoadValidation:
    def test_well_formed(self):
        assert trend.validate_service_load(_service_record()) == []

    def test_missing_sections_reported(self):
        record = _service_record()
        del record["slo"]
        del record["mixes"]["warm"]["cache"]
        problems = trend.validate_service_load(record)
        assert any("slo" in p for p in problems)
        assert any("warm" in p for p in problems)

    def test_wrong_schema_tag(self):
        record = _service_record()
        record["schema"] = "popqc-bench-transport/v4"
        assert trend.validate_service_load(record)

    def test_malformed_record_fails_gate(self, write):
        record = _service_record()
        del record["derived"]["warm_p50_speedup_vs_cold"]
        cur = write("cur.json", record)
        assert trend.main([cur, "--validate-only"]) == 1


class TestServiceLoadGate:
    def test_healthy_passes(self, write):
        cur = write("cur.json", _service_record())
        base = write("base.json", _service_record())
        assert trend.main([cur, base]) == 0

    def test_validate_only_needs_no_baseline(self, write):
        cur = write("cur.json", _service_record())
        assert trend.main([cur, "--validate-only"]) == 0

    def test_baseline_required_without_validate_only(self, write):
        cur = write("cur.json", _service_record())
        with pytest.raises(SystemExit):
            trend.main([cur])

    def test_warm_slo_violation_fails(self, write):
        cur = write("cur.json", _service_record(speedup=1.5))
        base = write("base.json", _service_record())
        assert trend.main([cur, base]) == 1

    def test_slo_gates_armed_cross_class(self, write):
        """Ratios are hardware-independent: a different runner class
        must NOT soften an SLO violation."""
        cur = write("cur.json", _service_record(speedup=1.5, cpus=2))
        base = write("base.json", _service_record(cpus=64))
        assert trend.main([cur, base]) == 1
        cur2 = write("cur2.json", _service_record(interactive_ratio=1.4))
        assert trend.main([cur2, base]) == 1

    def test_slo_violation_fails_even_validate_only(self, write):
        cur = write("cur.json", _service_record(interactive_ratio=2.0))
        assert trend.main([cur, "--validate-only"]) == 1

    @pytest.mark.parametrize(
        "speedup, status", [(2.0, 0), (2.01, 0), (1.99, 1), (0.0, 1)]
    )
    def test_warm_speedup_floor_from_both_sides(self, write, speedup, status):
        """The only home of the warm >= 2x wall-clock ratio (tier-1's
        ``test_warm_cache_latency_benefit`` asserts hit counts): at the
        floor passes, a hair under fails, with and without a baseline."""
        cur = write("cur.json", _service_record(speedup=speedup))
        base = write("base.json", _service_record(cpus=64))
        assert trend.main([cur, base]) == status
        assert trend.main([cur, "--validate-only"]) == status

    @pytest.mark.parametrize(
        "ratio, status", [(1.0, 0), (0.99, 0), (1.01, 1), (0.0, 1)]
    )
    def test_starvation_ceiling_from_both_sides(self, write, ratio, status):
        """The only home of interactive p99 <= flood p50 (tier-1's
        ``test_interactive_starvation_bound`` asserts completion): at
        the ceiling passes, over it fails, and a zero ratio — no
        interactive sample at all — is a violation, not a pass."""
        cur = write("cur.json", _service_record(interactive_ratio=ratio))
        base = write("base.json", _service_record(cpus=64))
        assert trend.main([cur, base]) == status
        assert trend.main([cur, "--validate-only"]) == status

    def test_slo_floors_come_from_the_record(self, write):
        """The record carries the floors it was measured against, so a
        loosened constant shows up in the diff of the committed JSON."""
        record = _service_record(speedup=2.5)
        record["slo"]["warm_p50_speedup_min"] = 3.0
        assert trend.main([write("cur.json", record), "--validate-only"]) == 1

    def test_failed_jobs_fail(self, write):
        cur = write("cur.json", _service_record(failed=1))
        base = write("base.json", _service_record())
        assert trend.main([cur, base]) == 1

    def test_hit_rate_floor(self, write):
        cur = write("cur.json", _service_record(warm_hit=0.5))
        base = write("base.json", _service_record(warm_hit=0.7))
        assert trend.main([cur, base]) == 1
        # inside the slack: passes
        cur2 = write("cur2.json", _service_record(warm_hit=0.66))
        assert trend.main([cur2, base]) == 0

    def test_hit_rate_floor_armed_cross_class(self, write):
        cur = write("cur.json", _service_record(warm_hit=0.4, cpus=2))
        base = write("base.json", _service_record(warm_hit=0.7, cpus=64))
        assert trend.main([cur, base]) == 1

    def test_p99_regression_same_class_fails(self, write):
        record = _service_record()
        record["mixes"]["cold"]["latency_seconds"]["p99"] = 10.0
        cur = write("cur.json", record)
        base = write("base.json", _service_record())
        assert trend.main([cur, base, "--p99-tolerance", "0.5"]) == 1

    def test_p99_within_tolerance_passes(self, write):
        record = _service_record()
        record["mixes"]["cold"]["latency_seconds"]["p99"] = 0.7  # +40%
        cur = write("cur.json", record)
        base = write("base.json", _service_record())
        assert trend.main([cur, base, "--p99-tolerance", "0.5"]) == 0

    def test_p99_regression_cross_class_warns_only(self, write):
        record = _service_record(cpus=2)
        record["mixes"]["cold"]["latency_seconds"]["p99"] = 10.0
        cur = write("cur.json", record)
        base = write("base.json", _service_record(cpus=64))
        assert trend.main([cur, base]) == 0
        assert trend.main([cur, base, "--strict"]) == 1

    def test_malformed_baseline_fails(self, write):
        cur = write("cur.json", _service_record())
        broken = copy.deepcopy(_service_record())
        del broken["mixes"]["warm"]
        base = write("base.json", broken)
        assert trend.main([cur, base]) == 1


def _transport_record_v5(speedup=4.0, cpus=2, **kwargs):
    record = _transport_record(**kwargs, cpus=cpus)
    record["schema"] = "popqc-bench-transport/v5"
    record["cluster_cache"] = {
        "segments": 24,
        "remote_hit_speedup_vs_oracle": 1.1,  # printed, not gated
        "remote_hit_speedup_vs_cold": speedup,
        "host_a": {"hits": 0, "misses": 24, "stores": 24, "errors": 0},
        "host_b": {"hits": 24, "misses": 0, "stores": 0, "errors": 0},
    }
    return record


class TestClusterCacheGate:
    """Schema v5 transport records must carry a healthy cluster_cache
    section; the ratio gate is armed regardless of runner class."""

    def test_healthy_v5_passes(self, write):
        cur = write("cur.json", _transport_record_v5())
        base = write("base.json", _transport_record_v5())
        assert trend.main([cur, base]) == 0

    def test_missing_section_is_a_regression(self, write):
        record = _transport_record_v5()
        del record["cluster_cache"]
        cur = write("cur.json", record)
        base = write("base.json", _transport_record_v5())
        assert trend.main([cur, base]) == 1

    def test_speedup_at_or_below_one_fails(self, write):
        cur = write("cur.json", _transport_record_v5(speedup=0.8))
        base = write("base.json", _transport_record_v5())
        assert trend.main([cur, base]) == 1

    @pytest.mark.parametrize("speedup, status", [(1.01, 0), (1.0, 1), (None, 1)])
    def test_speedup_floor_from_both_sides(self, write, speedup, status):
        """The only home of ``remote_hit_speedup_vs_cold > 1.0`` (tier-1's
        ``test_second_host_resolves_warm_segments_remotely`` asserts the
        hit counts): just over one passes; exactly one and a missing
        ratio fail."""
        cur = write("cur.json", _transport_record_v5(speedup=speedup))
        base = write("base.json", _transport_record_v5())
        assert trend.main([cur, base]) == status

    def test_gate_armed_cross_class(self, write):
        # throughput gates warn cross-class; the ratio gate still fails
        cur = write("cur.json", _transport_record_v5(speedup=0.8, cpus=2))
        base = write("base.json", _transport_record_v5(cpus=64))
        assert trend.main([cur, base]) == 1

    def test_v4_records_stay_ungated(self, write):
        # pre-v5 baselines and records carry no cluster_cache section
        cur = write("cur.json", _transport_record())
        base = write("base.json", _transport_record())
        assert trend.main([cur, base]) == 0
