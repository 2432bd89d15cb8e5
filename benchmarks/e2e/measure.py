"""One workload, start to finish: set-up, timed section, checks, traced run.

End-to-end metrics always come from the untraced timed section.  With
``trace`` on, the same run continues with one traced pass per workload
and the probes, which yield the per-layer metrics; the tracing
overhead is the ratio between the two.
"""

from __future__ import annotations

import collections
import os
import pathlib
import statistics
import time

import checks
import layers
from speed import SpeedMeter
from workloads import Sample, W, build, serial_reference

#: Input gates an untraced run spends on each sampled check (simulation,
#: serial reference).  About a second each; traced and smoke runs check
#: every input instead.
CHECK_GATES = 30_000
MB_PER_KB = 1 / 1024


def suite_time(samples: list[Sample]) -> float:
    """Seconds to optimize one block: the per-slot median walls, summed.

    Taking the median per ``family:size`` slot before summing keeps one
    slow job from moving the whole block.
    """
    by_slot = collections.defaultdict(list)
    for sample in samples:
        by_slot[sample.job.slot].append(sample.wall)
    return sum(statistics.median(walls) for walls in by_slot.values())


def process_tree(pid: int) -> list[int]:
    """``pid`` and every live descendant of it, from ``/proc``."""
    found = [pid]
    try:
        tasks = list(pathlib.Path(f"/proc/{pid}/task").iterdir())
        children = " ".join((task / "children").read_text() for task in tasks)
    except OSError:  # the process ended while we were looking
        return found
    for child in children.split():
        found += process_tree(int(child))
    return found


def peak_rss_mb(pids) -> float:
    """Summed peak resident set (``VmHWM``) of the processes still alive.

    Read from ``/proc`` while they run: ``getrusage(RUSAGE_CHILDREN)``
    credits a child that called ``exec`` with its parent's size at the
    fork, so it cannot tell a 40 MB daemon from the 250 MB process that
    started it.
    """
    total_kb = 0
    for pid in pids:
        try:
            status = pathlib.Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        total_kb += int(status.split("VmHWM:")[1].split()[0])
    return total_kb * MB_PER_KB


def end_to_end(workload, blocks, timed_s: float, setups, rss_mb: float) -> dict:
    """The end-to-end metrics of one untraced timed section, as measured."""
    done = [s for block in blocks for s in block if s.error is None]
    walls = [s.wall for s in done]
    first = {}
    for sample in done:
        first.setdefault(sample.job.key, sample)
    fixed = [first[job.key] for job in workload.fixed_inputs if job.key in first]
    initial = sum(len(s.job.circuit.gates) for s in fixed)
    return {
        "setup_s": statistics.median(setups),
        "time_to_optimized_s": suite_time(done),
        "job_latency_p50_s": statistics.median(walls),
        "job_latency_p75_s": statistics.quantiles(walls, n=4)[2],
        "jobs_per_s": len(done) / timed_s,
        "gate_reduction": 1.0 - sum(s.final_gates for s in fixed) / initial,
        "peak_rss_mb": rss_mb,
    }


def at_reference_speed(raw: dict, factor: float) -> dict:
    """``raw`` with the job timings rescaled by the run's speed factor.

    ``setup_s`` stays as measured: the meter runs beside the timed jobs.
    """
    scaled = dict(raw)
    for name in ("time_to_optimized_s", "job_latency_p50_s", "job_latency_p75_s"):
        scaled[name] = raw[name] / factor
    scaled["jobs_per_s"] = raw["jobs_per_s"] * factor
    return scaled


def check_outputs(workload, samples, reference: dict, seed: int, full: bool):
    """Run every output check; return ``(failed request tags, messages)``.

    ``reference`` maps an input key to the digest of its standalone
    serial ``popqc`` output; keys it lacks are optimized here, for a
    seeded sample of inputs unless ``full``.
    """
    failures: dict[str, list[str]] = collections.defaultdict(list)
    first: dict[str, Sample] = {}
    for sample in samples:
        tag = sample.job.tag
        if sample.error is not None:
            failures[tag].append(f"{tag}: {sample.error}")
            continue
        initial = len(sample.job.circuit.gates)
        failures[tag] += checks.monotone(tag, initial, sample.final_gates)
        if isinstance(sample.stats, dict):  # the RESULT frame's own account
            reported = (sample.stats["initial_gates"], sample.stats["final_gates"])
            if reported != (initial, sample.final_gates):
                failures[tag].append(f"{tag}: RESULT stats report {reported}")
        earlier = first.setdefault(sample.job.key, sample)
        failures[tag] += checks.same_bytes(
            tag, sample.digest, earlier.digest, f"the first output of {earlier.job.tag}"
        )

    budget = None if full else CHECK_GATES
    sizes = [(key, len(s.job.circuit.gates)) for key, s in first.items()]
    for key in checks.sample(sizes, budget, seed):
        job = first[key].job
        failures[job.tag] += checks.semantic(
            job.tag, job.circuit, workload.outputs[key], workload.oracle,
            workload.omega, seed,
        )

    if workload.workers > 1 or workload.kind == "serve":
        candidates = [j for j in workload.reference_jobs if j.key in first]
        sizes = [(j.key, len(j.circuit.gates)) for j in candidates]
        chosen = set(checks.sample(sizes, budget, seed + 1))
        missing = [j for j in candidates if j.key in chosen and j.key not in reference]
        if missing:
            for sample in serial_reference(workload, missing).samples:
                reference[sample.job.key] = sample.digest
        for key in chosen:
            tag = first[key].job.tag
            failures[tag] += checks.same_bytes(
                tag, first[key].digest, reference[key], "a standalone serial popqc"
            )

    failed = {tag for tag, messages in failures.items() if messages}
    return failed, [m for messages in failures.values() for m in messages]


def per_layer(workload, e2e: dict, main, daemon_rss_mb: float, seed: int,
              src_root: pathlib.Path) -> tuple[dict, dict, dict]:
    """Per-layer metrics, spans and reference digests of a traced run.

    ``main`` is the workload's own traced pass.  ``core.*`` and
    ``parallel.*`` describe it on the batch workloads and the standalone
    serial pass on the served ones; ``oracles.*`` and the probes always
    use a serial pass, which is ``main`` itself on ``batch_serial``.
    ``e2e`` is at reference speed, and so is every ratio between two
    passes.
    """
    batch = workload.kind == "batch"
    spans = {"traced": main.recorder.as_json()}
    reference = {}
    if batch and workload.workers == 1:
        serial, serial_s = main, None
    else:
        with SpeedMeter() as meter:
            serial = serial_reference(workload, workload.reference_jobs)
        serial.speed = meter.factor
        serial_s = sum(s.wall for s in serial.samples) / serial.speed
        spans["serial_reference"] = serial.recorder.as_json()
        reference = {s.job.key: s.digest for s in serial.samples if not s.error}
    core = main if batch else serial

    metrics = layers.core_and_parallel(core.samples, core.recorder, core.proxy)
    metrics.update(layers.oracles(serial.recorder))
    metrics["parallel.efficiency"] = layers.ratio(
        metrics["oracles.busy_s"] / serial.speed,
        (workload.workers if batch else 1) * metrics["parallel.map_s"] / core.speed,
    )
    metrics["parallel.speedup_vs_serial"] = (
        1.0 if serial_s is None else serial_s / e2e["time_to_optimized_s"]
    )
    metrics["parallel.pool_start_s"] = core.pool_start_s
    metrics.update(layers.NO_SERVICE)
    if not batch:
        metrics.update(layers.service(main.recorder, *main.status))
        metrics["service.busy_rejections"] = main.busy_rejections
        metrics["service.daemon_start_s"] = workload.daemon.start_s
        metrics["service.daemon_peak_rss_mb"] = daemon_rss_mb
    metrics["trace.overhead_ratio"] = (
        suite_time(main.samples) / main.speed / e2e["time_to_optimized_s"]
    )
    metrics["benchgen.generate_s"] = workload.generate_s
    metrics.update(layers.src_lines(src_root))
    metrics.update(
        layers.probes(workload.reference_jobs, workload.omega, workload.oracle,
                      serial.proxy, W, seed, workload.probe_segments)
    )
    return metrics, spans, reference


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        src_root: pathlib.Path) -> tuple[dict, dict]:
    """Run workload ``name``; return its result document and its spans."""
    began = time.perf_counter()
    workload = build(name, smoke)
    setups = []
    main = None
    try:
        for repeat in range(workload.setup_repeats):
            if repeat:
                workload.close()
            started = time.perf_counter()
            workload.setup(seed, trace)
            setups.append(time.perf_counter() - started)
        with SpeedMeter() as meter:
            blocks, timed_s = workload.timed(seconds)
        if trace:
            with SpeedMeter() as traced_meter:
                main = workload.traced()
            main.speed = traced_meter.factor
        # pool workers and the daemon are still up; the speed helpers are not
        rss_mb = peak_rss_mb(process_tree(os.getpid()))
        daemon_mb = (
            peak_rss_mb(process_tree(workload.daemon.proc.pid))
            if workload.kind == "serve" else 0.0
        )
    finally:
        workload.close()
    measured = time.perf_counter()

    raw = end_to_end(workload, blocks, timed_s, setups, rss_mb)
    input_gates = sum(len(j.circuit.gates) for j in workload.fixed_inputs)
    e2e = at_reference_speed(raw, meter.factor)
    samples = [s for block in blocks for s in block]
    layer_metrics, spans, reference = {}, {}, {}
    if trace:
        layer_metrics, spans, reference = per_layer(
            workload, e2e, main, daemon_mb, seed, src_root
        )
        layer_metrics["speed.factor"] = meter.factor
        layer_metrics["benchgen.input_gates"] = input_gates
        layer_metrics["service.job_latency_p90_s"] = statistics.quantiles(
            [s.wall / meter.factor for s in samples if s.error is None], n=10
        )[8]
        samples = samples + main.samples
    traced_at = time.perf_counter()
    failed, messages = check_outputs(workload, samples, reference, seed, trace or smoke)
    finished = time.perf_counter()

    timed_jobs = sum(len(block) for block in blocks)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "correct": not messages,
        "attempted": timed_jobs,
        "failed": min(timed_jobs, len(failed)),
        "failures": messages,
        "end_to_end": e2e,
        "as_measured": raw,
        "speed_factor": meter.factor,
        "per_layer": layer_metrics,
        "counts": {
            "blocks": len(blocks),
            "timed_jobs": timed_jobs,
            "input_gates": input_gates,
            "workers": workload.workers,
        },
        "durations_s": {
            "setup_each": setups,
            "timed": timed_s,
            "measured": measured - began,
            "traced_and_probes": traced_at - measured,
            "checks": finished - traced_at,
            "total": finished - began,
        },
        # (slot, wall) of every timed job, block by block: enough to
        # recompute any latency statistic offline
        "samples": [[(s.job.slot, s.wall) for s in block] for block in blocks],
    }, spans
