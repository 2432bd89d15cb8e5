"""The CI perf gate itself (`benchmarks/check_bench_trend.py`).

The gate script guards every perf record the repo commits, but until
now nothing tested the gate — a bug there silently disarms CI.  These
tests import the script as a module (it lives outside the package) and
drive `main()` with synthetic records on disk, asserting exit statuses
for: healthy runs, transport throughput regressions (warn-only
cross-runner-class unless --strict) and the always-armed ratio floor
(warm-cache hit speedup).
"""

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


class TestPaperShapes:
    """Table 3's and Figure 8's wall-clock ratios left tier-1 for
    ``--shapes``: printed with a verdict on the paper's shape, and no
    reading of them changes the exit status."""

    @staticmethod
    def _shapes(small, large, shares, speedup=None):
        return {
            "benchmarks": [
                {
                    "name": "test_table2_speedup_grows_with_size",
                    "extra_info": {"popqc_speedup_by_size": speedup or {}},
                },
                {"name": "test_table3", "extra_info": {}},
                {
                    "name": "test_table3_popqc_overtakes_with_size",
                    "extra_info": {
                        "oac_over_popqc_time_ratio": {"small": small, "large": large}
                    },
                },
                {
                    "name": "test_figure8",
                    "extra_info": {"oracle_fraction_by_size": shares},
                },
            ]
        }

    def test_printed_never_gated(self, write, capsys):
        cur = write("cur.json", _transport_record())
        base = write("base.json", _transport_record())
        good = write("good.json", self._shapes(0.99, 1.45, {"VQE": [0.80, 0.83]}))
        assert trend.main([cur, base, "--shapes", good]) == 0
        out = capsys.readouterr().out
        assert "OAC/POPQC time ratio 0.99 small -> 1.45 large (as in the paper" in out
        assert "VQE oracle share 0.80 -> 0.83 by size (as in the paper" in out
        bad = write(
            "bad.json",
            self._shapes(1.4, 0.7, {"HHL": [0.6, 0.2], "Shor": [0.3, 0.4]}),
        )
        assert trend.main([cur, base, "--shapes", bad]) == 0
        out = capsys.readouterr().out
        assert "1.40 small -> 0.70 large (NOT as in the paper" in out
        assert "HHL oracle share 0.60 -> 0.20 by size (NOT as" in out
        assert "Shor oracle share 0.30 -> 0.40 by size (NOT as" in out  # below half
        assert "table 2" not in out  # a record without the ratio prints no line

    def test_table2_speedup_printed_never_gated(self, write, capsys):
        cur = write("cur.json", _transport_record())
        base = write("base.json", _transport_record())
        for small, large, shape in [(0.36, 0.9, "as"), (1.2, 0.8, "NOT as")]:
            speedup = {"small": small, "large": large}
            shapes = write("s.json", self._shapes(1, 2, {}, speedup))
            assert trend.main([cur, base, "--shapes", shapes]) == 0
            assert (
                f"POPQC/baseline speedup {small:.2f} small -> {large:.2f} large "
                f"({shape} in the paper"
            ) in capsys.readouterr().out

    def test_a_regression_still_fails_beside_them(self, write):
        cur = write("cur.json", _transport_record(serial=700.0))
        base = write("base.json", _transport_record(serial=1000.0))
        shapes = write("shapes.json", self._shapes(1.0, 2.0, {}))
        assert trend.main([cur, base, "--shapes", shapes]) == 1

    def test_the_real_benchmarks_record_what_is_printed(self):
        """The two halves meet: the names the benchmarks write are the
        names this script reads."""
        bench = Path(_SCRIPT).parent
        assert '"popqc_speedup_by_size"' in (bench / "test_table2.py").read_text()
        assert '"oac_over_popqc_time_ratio"' in (bench / "test_table3.py").read_text()
        assert '"oracle_fraction_by_size"' in (bench / "test_figure8.py").read_text()
