"""End-to-end benchmark of the POPQC reproduction: one command, five workloads.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--out DIR] [--smoke]
    python3 benchmarks/e2e/run.py --compare A.json B.json

Each workload runs in a child process of its own, so ``peak_rss_mb`` is
per workload and a hung one is killed with its whole process group
instead of hanging the command.  Every metric is printed by name with
its unit; the last line of standard output is one JSON object.  The
exit code is non-zero when an operation failed, an output check
failed, or a workload timed out.  Nothing is written unless ``--out``
is given.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: A workload still running after this long is killed and reported failed.
HARD_TIMEOUT_S = 170.0
COUNT_UNITS = ("count", "lines", "gates")


def load_spec() -> dict:
    """``BENCHMARK.json``: the registry of workloads, metrics, units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child(args) -> int:
    """Run one workload in this process; print its result document."""
    import measure

    result, spans = measure.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, SRC
    )
    print(json.dumps({"result": result, "spans": spans}))
    return 0


def supervise(name: str, args) -> tuple[dict | None, dict, str]:
    """Run workload ``name`` in a child; return ``(result, spans, error)``.

    The child leads a process group of its own.  Its exit is awaited
    without reaping it, so its pid still names the group when the group
    is killed: whatever the child left behind (a daemon, pool workers)
    dies with it, on a clean exit as on a timeout.
    """
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True
    )
    output: list[str] = []
    reader = threading.Thread(target=lambda: output.append(proc.stdout.read()))
    reader.start()
    deadline = time.monotonic() + HARD_TIMEOUT_S
    flags = os.WEXITED | os.WNOWAIT | os.WNOHANG
    while os.waitid(os.P_PID, proc.pid, flags) is None and time.monotonic() < deadline:
        time.sleep(0.05)
    timed_out = os.waitid(os.P_PID, proc.pid, flags) is None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    reader.join()
    if timed_out:
        return None, {}, f"timed out after {HARD_TIMEOUT_S:.0f} s"
    if proc.returncode != 0:
        return None, {}, f"child exited with code {proc.returncode}"
    document = json.loads(output[0].strip().splitlines()[-1])
    return document["result"], document["spans"], ""


def with_units(values: dict, declared: list[dict], where: str) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics."""
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise SystemExit(f"{where}: metrics missing {missing}, undeclared {extra}")
    for name in names:
        if not math.isfinite(values[name]):
            raise SystemExit(f"{where}: {name} is {values[name]}")
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }


def report(result: dict, spec: dict) -> dict:
    """Print one workload's metrics; return the driver's result object."""
    name = result["workload"]
    end_to_end = with_units(result["end_to_end"], spec["end_to_end"], name)
    print(f"== {name}  seed={result['seed']}  blocks={result['counts']['blocks']}"
          f"  jobs={result['counts']['timed_jobs']}"
          f"  input_gates={result['counts']['input_gates']}"
          f"  W={result['counts']['workers']}"
          f"  run={result['durations_s']['total']:.1f}s")
    print(f"  {'speed_factor':<44}{result['speed_factor']:>14.6g} ratio"
          f"  (timings below are divided by it)")
    share = result["failed"] / result["attempted"]
    print(f"  {'failed_share':<44}{share:>14.6g} ratio"
          f"  ({result['failed']} of {result['attempted']})")
    metrics = end_to_end
    for metric, entry in end_to_end.items():
        print(f"  {metric:<44}{entry['value']:>14.6g} {entry['unit']}")
    if result["trace"]:
        metrics = with_units(result["per_layer"], spec["per_layer"], name)
        for metric, entry in metrics.items():
            print(f"  {metric:<44}{entry['value']:>14.6g} {entry['unit']}")
    for message in result["failures"]:
        print(f"  FAILED {message}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Print B against A per workload and end-to-end metric; gate on bounds.

    A is the baseline.  A timing may be worse in B by at most its bound
    from ``BENCHMARK.json``; every count (a metric whose unit is
    ``count``, ``lines`` or ``gates``, and ``gate_reduction`` at equal
    seeds) must be identical.
    """
    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    bad = 0
    for name in [w["name"] for w in spec["workloads"]]:
        if name not in a or name not in b:
            continue
        same_seed = a[name]["seed"] == b[name]["seed"]
        print(f"== {name}")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            va, vb = a[name]["end_to_end"][key], b[name]["end_to_end"][key]
            worse = (vb - va) / va if metric["better"] == "lower" else (va - vb) / va
            exact = same_seed and key == "gate_reduction"
            over = va != vb if exact else worse > bound
            bad += over
            print(f"  {key:<24}{va:>14.6g}{vb:>14.6g} {metric['unit']:<6}"
                  f"{worse:>+9.2%} worse  bound {0 if exact else bound:.0%}"
                  f"{'  EXCEEDED' if over else ''}")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for key, va in a[name]["per_layer"].items():
            vb = b[name]["per_layer"].get(key)
            if same_seed and vb is not None and units[key] in COUNT_UNITS \
                    and key.split(".")[0] != "service" and va != vb:
                bad += 1
                print(f"  {key:<24}{va:>14.6g}{vb:>14.6g} {units[key]:<6} DIFFERS")
        if a[name]["failed"] != b[name]["failed"]:
            bad += 1
            print(f"  {'failed':<24}{a[name]['failed']:>14}{b[name]['failed']:>14}"
                  " DIFFERS")
    print("comparison:", "FAILED" if bad else "ok")
    return 1 if bad else 0


def main(argv=None) -> int:
    """Parse the command line and run the selected workloads."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="run only this workload")
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed section (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also run the traced pass and probes")
    parser.add_argument("--out", help="directory for results.json and spans")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one block: exercises every code path")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    if args.child:
        return _child(args)
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"{SRC} is missing: nothing to benchmark")

    results, last, status = {}, None, 0
    for name in [args.workload] if args.workload else names:
        result, spans, error = supervise(name, args)
        if result is None:
            print(f"== {name}\n  FAILED {error}")
            status = 1
            continue
        results[name] = result
        last = report(result, spec)
        status |= 0 if result["correct"] else 1
        if args.out and spans:
            out = pathlib.Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"spans.{name}.json").write_text(json.dumps(spans))
    if args.out:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "results.json").write_text(json.dumps(results, indent=1))
    if args.workload and last is not None:
        print(json.dumps(last))
    elif not args.workload:
        print(json.dumps({
            "correct": status == 0,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": sorted(results),
        }))
    return status


if __name__ == "__main__":
    sys.exit(main())
