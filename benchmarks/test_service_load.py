"""The latency-SLO load benchmark: `BENCH_service_load.json`.

Launches a real `popqc serve` subprocess (or targets the daemon CI
passes through `POPQC_SERVE_HOST`), replays the full three-phase SLO
suite (`repro.service.loadgen.run_slo_suite`) against it, and writes
the schema-v1 record at the repo root so CI can upload it and gate it
against `benchmarks/BENCH_service_load_baseline.json` via
`check_bench_trend.py`.

The assertions here are behavioural — they hold or fail whatever the
machine's speed, so tier-1 can run them:

* every scheduled job of every mix completes (no errors, no dropped
  BUSY retries);
* the warm mix's duplicate traffic is really served by the cache (hit
  rate, a trajectory that warms up), and both SLO ratios are recorded
  beside their floors;
* the seeded schedule manifest is byte-reproducible.

The two latency SLOs themselves — warm-duplicate p50 speedup over cold
>= ``WARM_P50_SPEEDUP_MIN``, interactive p99 <= the gated multiple of
flood p50 — are wall-clock ratios and are gated where the record is
gated: ``check_bench_trend.py`` (always armed, also under
``--validate-only``; pinned in ``tests/test_check_bench_trend.py``).
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service.loadgen import (
    INTERACTIVE_P99_OVER_FLOOD_P50_MAX,
    SCHEMA,
    WARM_P50_SPEEDUP_MIN,
    default_mixes,
    run_slo_suite,
    schedule_manifest,
)


@pytest.fixture(scope="module")
def bench_json(tmp_path_factory) -> Path:
    """Where the machine-readable record lands:
    ``$BENCH_SERVICE_LOAD_OUT`` (CI's bench-trend job names the
    repo-root file it uploads and gates), else a pytest temp dir, so a
    plain test run leaves the checkout clean."""
    out = os.environ.get("BENCH_SERVICE_LOAD_OUT")
    if out:
        return Path(out)
    return tmp_path_factory.mktemp("bench") / "BENCH_service_load.json"


#: CI smoke runs set this to shrink the suite; the committed baseline
#: comes from a full run.
SMOKE = os.environ.get("BENCH_SERVICE_LOAD_SMOKE", "") not in ("", "0")

SEED = int(os.environ.get("BENCH_SERVICE_LOAD_SEED", "7"))


@pytest.fixture(scope="module")
def server_address():
    """A live daemon: CI's via POPQC_SERVE_HOST, else our own subprocess."""
    env_host = os.environ.get("POPQC_SERVE_HOST")
    if env_host:
        yield env_host.strip()
        return
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--bind",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--transport",
            "threads",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        line = proc.stdout.readline()
        match = re.search(r"listening on (\S+)", line)
        assert match, f"unexpected serve banner: {line!r}"
        yield match.group(1)
    finally:
        proc.terminate()
        proc.wait(timeout=10)


@pytest.fixture(scope="module")
def record(server_address, bench_json):
    """One suite run per module; every test asserts against it."""
    rec = run_slo_suite(
        server_address,
        seed=SEED,
        auth_token=os.environ.get("POPQC_AUTH_TOKEN"),
        smoke=SMOKE,
    )
    bench_json.write_text(json.dumps(rec, indent=2, sort_keys=True) + "\n")
    return rec


@pytest.mark.service
class TestServiceLoadBench:
    def test_every_job_completes(self, record):
        for name, mix in record["mixes"].items():
            assert mix["jobs_failed"] == 0, (name, mix["errors"])
            assert mix["jobs_completed"] == mix["jobs_scheduled"]

    def test_warm_cache_latency_benefit(self, record):
        """The benefit's cause is asserted here — duplicates hit the
        cache, and more of them as it warms; its size (the p50 ratio)
        is recorded with its floor for the trend gate to judge."""
        assert record["derived"]["warm_p50_speedup_vs_cold"] > 0
        assert record["slo"]["warm_p50_speedup_min"] == WARM_P50_SPEEDUP_MIN
        warm = record["mixes"]["warm"]
        assert warm["duplicate_latency_seconds"]["count"] > 0
        assert warm["cache"]["hit_rate"] > 0.3
        # the trajectory shows the cache warming: the last window (pure
        # replays) must out-hit the first (the cache-cold unique pool)
        trajectory = warm["cache"]["trajectory"]
        assert trajectory[-1]["hit_rate"] > trajectory[0]["hit_rate"]

    def test_interactive_starvation_bound(self, record):
        """Every interactive submit injected into the flood completed,
        none was refused for good, and the starvation ratio is recorded
        with its ceiling; whether it is met is the trend gate's call."""
        interactive = record["mixes"]["interactive"]
        assert interactive["jobs_scheduled"] > 0
        assert interactive["jobs_completed"] == interactive["jobs_scheduled"]
        assert interactive["latency_seconds"]["p99"] > 0
        assert record["derived"]["interactive_p99_over_flood_p50"] > 0
        assert (
            record["slo"]["interactive_p99_over_flood_p50_max"]
            == INTERACTIVE_P99_OVER_FLOOD_P50_MAX
        )

    def test_record_is_schema_v1(self, record, bench_json):
        assert record["schema"] == SCHEMA
        assert bench_json.exists()
        reread = json.loads(bench_json.read_text())
        assert reread["schema"] == SCHEMA
        for mix in reread["mixes"].values():
            for key in ("p50", "p90", "p99"):
                assert mix["latency_seconds"][key] >= 0

    def test_schedule_is_byte_reproducible(self):
        mixes = list(default_mixes(SMOKE).values())
        assert schedule_manifest(mixes, SEED) == schedule_manifest(
            mixes, SEED
        )
