"""Smoke test of the e2e benchmark: every metric is emitted, none is judged.

All five workloads run once at ``--smoke`` scale (four index-0 circuits,
one block) with the traced pass on, side by side, plus one untraced run.
The assertions are about shape — names, units, finiteness, span nesting,
exit codes — never about a wall-clock value.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from spans import self_times

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _start(out: pathlib.Path, name: str, trace: int) -> subprocess.Popen:
    return subprocess.Popen(
        RUN + ["--smoke", "--workload", name, "--trace", str(trace), "--out", str(out)],
        stdout=subprocess.PIPE,
        text=True,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``{name: (exit code, stdout, out dir)}`` of one smoke run per workload."""
    base = tmp_path_factory.mktemp("e2e")
    procs = {name: _start(base / name, name, 1) for name in WORKLOADS}
    procs["untraced"] = _start(base / "untraced", "batch_serial", 0)
    done = {}
    for name, proc in procs.items():
        stdout, _ = proc.communicate(timeout=120)
        done[name] = (proc.returncode, stdout, base / name)
    return done


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _assert_metrics(metrics: dict, section: str) -> None:
    assert {k: v["unit"] for k, v in metrics.items()} == _declared(section)
    for name, entry in metrics.items():
        assert isinstance(entry["value"], (int, float)), name
        assert math.isfinite(entry["value"]), name


def test_spec_names_and_bounds():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert len(WORKLOADS) == 5


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric_once(runs, name):
    code, stdout, out = runs[name]
    assert code == 0, stdout
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == RESULT_KEYS
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    _assert_metrics(last["metrics"], "per_layer")
    for metric in list(_declared("per_layer")) + list(_declared("end_to_end")):
        printed = [ln for ln in stdout.splitlines() if ln.split()[:1] == [metric]]
        assert len(printed) == 1, metric
    result = json.loads((out / "results.json").read_text())[name]
    assert set(result["end_to_end"]) == set(_declared("end_to_end"))
    assert all(math.isfinite(v) and v > 0 for v in result["end_to_end"].values())
    # the job timings are the measured ones at reference speed, nothing else
    raw, factor = result["as_measured"], result["speed_factor"]
    timings = ("time_to_optimized_s", "job_latency_p50_s", "job_latency_p75_s")
    expected = {**raw, **{name: raw[name] / factor for name in timings}}
    expected["jobs_per_s"] = raw["jobs_per_s"] * factor
    assert result["end_to_end"] == pytest.approx(expected)


def test_untraced_run_emits_the_end_to_end_metrics(runs):
    code, stdout, out = runs["untraced"]
    assert code == 0, stdout
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == RESULT_KEYS
    _assert_metrics(last["metrics"], "end_to_end")
    assert not list(out.glob("spans.*"))


def test_self_time_is_duration_minus_the_union_of_children():
    def span(id_, parent, start, end):
        return {"id": id_, "parent": parent, "start": start, "end": end}

    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 0, 3.0, 6.0),  # overlaps span 1: counted once
        span(3, 0, 8.0, 12.0),  # runs past its parent: clipped
        span(4, 1, 1.5, 2.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 2.0))
    assert own[1] == pytest.approx(2.5)
    assert own[2] == pytest.approx(3.0) and own[4] == pytest.approx(0.5)


def test_spans_nest_and_account_for_the_serial_pass(runs):
    _code, _stdout, out = runs["batch_serial"]
    spans = json.loads((out / "spans.batch_serial.json").read_text())["traced"]
    by_id = {s["id"]: s for s in spans}
    nesting = {
        "circuit": "workload",
        "core.popqc": "circuit",
        "parallel.map": "core.popqc",
        "oracles.call": "parallel.map",
    }
    for s in spans:
        assert {"name", "start", "end", "parent", "request", "counts"} <= set(s)
        if s["name"] in nesting:
            parent = by_id[s["parent"]]
            assert parent["name"] == nesting[s["name"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
            if s["name"] != "circuit":
                assert s["request"] == parent["request"]
    layer = json.loads((out / "results.json").read_text())["batch_serial"]["per_layer"]
    popqc = sum(s["end"] - s["start"] for s in spans if s["name"] == "core.popqc")
    assert layer["core.self_s"] + layer["parallel.map_s"] == pytest.approx(popqc)
    assert layer["oracles.busy_s"] <= layer["parallel.map_s"]


def test_served_spans_carry_the_server_side_account(runs):
    _code, _stdout, out = runs["serve_cold"]
    spans = json.loads((out / "spans.serve_cold.json").read_text())
    jobs = [s for s in spans["traced"] if s["name"] == "job"]
    assert jobs and all(s["counts"]["server_wall_s"] > 0 for s in jobs)
    assert any(s["name"] == "oracles.call" for s in spans["serial_reference"])


def test_compare_gates_on_bounds_and_counts(runs, tmp_path):
    base = runs["batch_procs"][2] / "results.json"
    assert subprocess.run(RUN + ["--compare", str(base), str(base)]).returncode == 0
    for metric, factor in (("time_to_optimized_s", 2.0), ("gate_reduction", 0.999)):
        doc = json.loads(base.read_text())
        doc["batch_procs"]["end_to_end"][metric] *= factor
        worse = tmp_path / f"{metric}.json"
        worse.write_text(json.dumps(doc))
        cmd = RUN + ["--compare", str(base), str(worse)]
        assert subprocess.run(cmd, capture_output=True).returncode == 1, metric


def test_fails_without_the_program_under_test(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bare = [sys.executable, str(tmp_path / "benchmarks" / "e2e" / "run.py")]
    done = subprocess.run(bare + ["--workload", "batch_serial", "--smoke"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
