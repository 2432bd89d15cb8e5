"""``popqc`` command-line interface.

Subcommands:

* ``optimize FILE.qasm`` — optimize a QASM circuit and write the result;
* ``bench FAMILY`` — generate and optimize a benchmark instance;
* ``worker`` — serve oracle segments over TCP to drivers started with
  ``--hosts``;
* ``serve`` — run the persistent optimization service: many concurrent
  jobs over one warm fleet, fronted by the content-addressed segment
  cache (:mod:`repro.service`);
* ``submit`` — send a circuit to a running ``popqc serve`` daemon and
  write back the optimized result;
* ``tables`` / ``figures`` — regenerate the paper's evaluation artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analysis import analyze
from .baselines import optimize_whole_circuit
from .benchgen import family_names, generate, write_suite
from .circuits import read_qasm, write_qasm
from .circuits.qasm import QasmError
from .core import popqc, popqc_traced, render_trace
from . import experiments
from .oracles import NamOracle
from .parallel import (
    ProcessMap,
    SerialMap,
    SimulatedParallelism,
    WorkerHost,
    parse_address,
)

__all__ = ["main"]

_TABLES = {n: getattr(experiments, f"run_table{n}") for n in "1234"}
_FIGURES = {n: getattr(experiments, f"run_figure{n}") for n in "3456789"}


def _fail(message: str):
    """End the run the way argparse does for a bad flag: one line on
    stderr, exit status 2, no traceback."""
    print(f"popqc: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _host_list(hosts: str | None) -> list[str] | None:
    return [h.strip() for h in hosts.split(",") if h.strip()] if hosts else None


def _worker_count(text: str) -> int:
    """A ``--workers`` value: a whole number, at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"bad worker count {text!r} (at least 1)")
    return int(text)


def _make_parmap(spec: str, hosts: str | None = None):
    """The executor ``--executor SPEC`` names.  How segments travel is
    not a choice: to ``popqc worker`` hosts over TCP when ``--hosts``
    names some, else to local worker processes, by id."""
    name, _, count = spec.partition(":")
    if count and (not count.isdigit() or int(count) < 1):
        _fail(f"bad worker count {count!r} in executor spec {spec!r} (at least 1)")
    workers = int(count) if count else None
    if hosts is not None and name != "process":
        _fail(f"--hosts only applies to process executors, not {spec!r}")
    if spec == "serial":
        return SerialMap()
    if name == "simulated":
        return SimulatedParallelism(workers or 64)
    if name == "process":
        return ProcessMap(
            workers,
            transport="socket" if hosts else "encoded",
            hosts=_host_list(hosts),
            # workers may demand the shared secret; local processes must
            # not care that the env var is set
            auth_token=os.environ.get("POPQC_AUTH_TOKEN") if hosts else None,
        )
    _fail(
        f"unknown executor spec {spec!r} "
        "(expected serial | process[:N] | simulated[:N])"
    )


def _run_popqc(circuit, args):
    """``popqc`` on the executor ``args`` names, closed before returning."""
    parmap = _make_parmap(args.executor, args.hosts)
    try:
        return popqc(circuit, NamOracle(), args.omega, parmap=parmap)
    finally:
        parmap.close()


def _stop_on_sigterm() -> None:
    """Turn SIGTERM into ``KeyboardInterrupt`` so a daemon subcommand
    leaves ``serve_forever`` through its ``finally``: the endpoint is
    stopped (fleet released) and the summary printed, as on Ctrl-C."""
    import signal

    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)


def _read_circuit(path: str):
    try:
        return read_qasm(path)
    except (OSError, QasmError) as exc:
        _fail(f"cannot read circuit {path!r}: {exc}")


def _load_circuit(spec: str):
    """Load ``FAMILY[:size]`` from the registry or a QASM path."""
    name, _, size = spec.partition(":")
    if name not in family_names():
        return _read_circuit(spec)
    try:
        return generate(name, int(size) if size else 0)
    except ValueError:
        _fail(f"bad size index {size!r} in {spec!r} (expected {name}[:0..3])")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="popqc", description="POPQC parallel quantum-circuit optimizer"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--omega", type=int, default=100)
    run_flags.add_argument(
        "--executor",
        default="serial",
        help="serial | process[:N] | simulated[:N]; process:N runs a pooled "
        "round on N compute streams: this process plus N-1 forked workers "
        "(with --hosts the hosts compute it)",
    )
    run_flags.add_argument(
        "--hosts",
        help="comma-separated worker host addresses (HOST:PORT) a process "
        "executor sends its segments to instead of local worker processes; "
        "start each with `popqc worker --bind HOST:PORT`",
    )

    p_opt = sub.add_parser(
        "optimize", parents=[run_flags], help="optimize an OpenQASM 2.0 file"
    )
    p_opt.add_argument("input")
    p_opt.add_argument("-o", "--output", help="output QASM path")

    p_bench = sub.add_parser(
        "bench", parents=[run_flags], help="optimize a generated benchmark"
    )
    p_bench.add_argument("family", choices=family_names())
    p_bench.add_argument("--size", type=int, default=1, choices=range(4))
    p_bench.add_argument(
        "--baseline", action="store_true", help="also run the whole-circuit baseline"
    )

    bind_flag = argparse.ArgumentParser(add_help=False)
    bind_flag.add_argument(
        "--bind",
        default="127.0.0.1:0",
        help="HOST:PORT to listen on (port 0 picks an ephemeral port, "
        "printed on startup)",
    )

    p_worker = sub.add_parser(
        "worker",
        parents=[bind_flag],
        help="serve oracle segments over TCP (what a driver's --hosts names)",
    )
    p_worker.add_argument(
        "--auth-token",
        default=os.environ.get("POPQC_AUTH_TOKEN"),
        help="shared secret demanded of every driver connection (AUTH "
        "frame before any other; defaults to $POPQC_AUTH_TOKEN; omit "
        "to serve unauthenticated)",
    )

    p_serve = sub.add_parser(
        "serve",
        parents=[bind_flag],
        help="run the persistent optimization service (jobs over TCP, "
        "shared worker fleet, content-addressed segment cache)",
    )
    p_serve.add_argument("--workers", type=_worker_count, help="fleet worker count")
    p_serve.add_argument(
        "--hosts",
        help="comma-separated popqc worker addresses to use as the fleet "
        "instead of local worker processes",
    )
    p_serve.add_argument(
        "--cache-dir",
        help="directory of the persistent segment-result cache "
        "(shared across restarts; omit for a memory-only cache; a "
        "store written by an older popqc is not read)",
    )
    p_serve.add_argument(
        "--cache-entries",
        type=int,
        default=65536,
        help="in-memory cache bound (entries)",
    )
    p_serve.add_argument(
        "--cache-disk-bytes",
        type=int,
        help="bound on the on-disk cache store in bytes; oldest entries "
        "are pruned first once the bound is exceeded (default: unbounded; "
        "needs --cache-dir)",
    )
    p_serve.add_argument(
        "--no-cache",
        action="store_true",
        help="serve without a segment cache or memo (every segment pays the oracle)",
    )
    p_serve.add_argument(
        "--auth-token",
        default=os.environ.get("POPQC_AUTH_TOKEN"),
        help="shared secret demanded of every client (and presented to "
        "socket-fleet workers); defaults to $POPQC_AUTH_TOKEN; omit to "
        "serve unauthenticated",
    )
    p_serve.add_argument(
        "--max-active-jobs",
        type=int,
        help="global cap on jobs optimizing at once; excess JOBs get a "
        "typed BUSY refusal (default: unlimited)",
    )
    p_serve.add_argument(
        "--max-jobs-per-peer",
        type=int,
        help="per-client-address cap on concurrent jobs (default: unlimited)",
    )
    p_serve.add_argument(
        "--max-pending-rounds",
        type=int,
        help="scheduler queue depth past which new jobs are refused "
        "with BUSY (default: unlimited)",
    )
    p_serve.add_argument(
        "--min-workers",
        type=int,
        help="autoscale floor: spawn this many local popqc worker "
        "subprocesses at startup and never retire below it",
    )
    p_serve.add_argument(
        "--max-workers",
        type=int,
        help="autoscale ceiling: grow the fleet with local popqc worker "
        "subprocesses while the scheduler backlog is deep, up to this "
        "many spawned workers; retire them when the queue stays empty",
    )
    p_serve.add_argument(
        "--scale-window",
        type=float,
        default=2.0,
        help="seconds between autoscaler looks at the queue depth",
    )
    p_serve.add_argument(
        "--idle-timeout",
        type=float,
        default=300.0,
        help="seconds a connection may sit silent before its handler "
        "gives up on it (slow-loris defence); 0 disables",
    )

    p_submit = sub.add_parser(
        "submit",
        help="submit a circuit to a running popqc serve daemon",
    )
    p_submit.add_argument(
        "input", nargs="?", help="QASM file or FAMILY[:size] (omit with --status)"
    )
    p_submit.add_argument(
        "--server",
        default="127.0.0.1:7400",
        help="HOST:PORT of the popqc serve daemon",
    )
    p_submit.add_argument("--omega", type=int, default=100)
    p_submit.add_argument("-o", "--output", help="output QASM path")
    p_submit.add_argument(
        "--auth-token",
        default=os.environ.get("POPQC_AUTH_TOKEN"),
        help="shared secret of the daemon (defaults to $POPQC_AUTH_TOKEN)",
    )
    p_submit.add_argument(
        "--priority",
        type=int,
        default=1,
        help="weighted-fair share of this job in the server's merged "
        "fleet rounds (1-16; higher gets proportionally more of each "
        "round)",
    )
    p_submit.add_argument(
        "--status",
        action="store_true",
        help="also print the server status JSON (alone: status only)",
    )

    p_an = sub.add_parser("analyze", help="report circuit metrics")
    p_an.add_argument("input", help="QASM file or FAMILY[:size]")

    p_tr = sub.add_parser("trace", help="visualize a run's round dynamics")
    p_tr.add_argument("input", help="QASM file or FAMILY[:size]")
    p_tr.add_argument("--omega", type=int, default=100)
    p_tr.add_argument("--width", type=int, default=72)

    p_suite = sub.add_parser("suite", help="write the benchmark suite as QASM")
    p_suite.add_argument("--out", required=True, help="output directory")
    p_suite.add_argument("--sizes", type=int, nargs="*", default=[0, 1])
    p_suite.add_argument("--families", nargs="*", default=None)

    p_tab = sub.add_parser("tables", help="regenerate paper tables")
    p_tab.add_argument("which", nargs="*", default=list(_TABLES), choices=list(_TABLES))
    p_tab.add_argument("--sizes", type=int, nargs="*", default=[0, 1])

    p_fig = sub.add_parser("figures", help="regenerate paper figures")
    p_fig.add_argument(
        "which", nargs="*", default=list(_FIGURES), choices=list(_FIGURES)
    )

    args = parser.parse_args(argv)

    if args.command == "worker":
        _stop_on_sigterm()
        host, port = parse_address(args.bind)
        worker = WorkerHost(host, port, auth_token=args.auth_token)
        try:  # from the banner on, a SIGTERM still gets the summary
            print(f"popqc worker listening on {worker.address}", flush=True)
            worker.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass
        finally:
            worker.stop()
            print(
                f"popqc worker served {worker.segments_served} segments in "
                f"{worker.batches_served} batches "
                f"({worker.bytes_received} B in, {worker.bytes_sent} B out)",
                flush=True,
            )

    elif args.command == "serve":
        from .service import OptimizationService, SegmentCache

        _stop_on_sigterm()
        cache: object = (
            False
            if args.no_cache
            else SegmentCache(
                max_entries=args.cache_entries,
                disk_dir=args.cache_dir,
                max_disk_bytes=args.cache_disk_bytes,
            )
        )
        host, port = parse_address(args.bind)
        hosts = _host_list(args.hosts)
        spawns = args.min_workers is not None or args.max_workers is not None
        if spawns and not (hosts or args.min_workers):
            _fail("--max-workers needs a fleet to grow: add --min-workers N or --hosts")
        service = OptimizationService(
            NamOracle(),
            host,
            port,
            workers=args.workers,
            # named and spawned workers are both reached over TCP
            transport="socket" if hosts or spawns else "encoded",
            hosts=hosts,
            cache=cache,
            auth_token=args.auth_token,
            max_active_jobs=args.max_active_jobs,
            max_jobs_per_peer=args.max_jobs_per_peer,
            max_pending_rounds=args.max_pending_rounds,
            idle_timeout_seconds=args.idle_timeout or None,
            min_workers=args.min_workers,
            max_workers=args.max_workers,
            scale_window_seconds=args.scale_window,
        )
        try:
            print(f"popqc serve listening on {service.address}", flush=True)
            service.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass
        finally:
            service.stop()
            print(json.dumps(service.status(), indent=2), flush=True)

    elif args.command == "submit":
        from .service import ServiceClient

        if args.input is None and not args.status:
            _fail("submit needs an input circuit (or --status)")
        with ServiceClient(args.server, auth_token=args.auth_token) as client:
            if args.input is not None:
                circuit = _load_circuit(args.input)
                job = client.optimize(
                    circuit, omega=args.omega, priority=args.priority
                )
                s = job.stats
                print(
                    f"{s['initial_gates']} -> {s['final_gates']} gates "
                    f"({100.0 * s['gate_reduction']:.1f}% reduction), "
                    f"{s['rounds']} rounds, {s['oracle_calls']} oracle calls "
                    f"({s['oracle_calls_saved']} served from cache, "
                    f"hit rate {100.0 * s['cache_hit_rate']:.0f}%), "
                    f"{s['wall_seconds']:.3f}s server-side"
                )
                if args.output:
                    write_qasm(job.circuit, args.output)
                    print(f"wrote {args.output}")
            if args.status:
                print(json.dumps(client.status(), indent=2))

    elif args.command == "optimize":
        res = _run_popqc(_read_circuit(args.input), args)
        print(res.stats.summary())
        if args.output:
            write_qasm(res.circuit, args.output)
            print(f"wrote {args.output}")

    elif args.command == "bench":
        circuit = generate(args.family, args.size)
        print(f"{args.family}[{args.size}]: {circuit.num_gates} gates, "
              f"{circuit.num_qubits} qubits")
        res = _run_popqc(circuit, args)
        print("popqc:   ", res.stats.summary())
        if args.baseline:
            base = optimize_whole_circuit(circuit)
            print(
                f"baseline: {circuit.num_gates} -> {base.num_gates} gates, "
                f"{base.time_seconds:.3f}s"
            )

    elif args.command == "analyze":
        print(analyze(_load_circuit(args.input)).render())

    elif args.command == "trace":
        circuit = _load_circuit(args.input)
        res, trace = popqc_traced(circuit, NamOracle(), args.omega)
        print(render_trace(trace, width=args.width))
        print(res.stats.summary())

    elif args.command == "suite":
        entries = write_suite(
            args.out, families=args.families, size_indices=tuple(args.sizes)
        )
        for e in entries:
            print(f"{e.path}: {e.num_gates} gates, {e.num_qubits} qubits")
        print(f"wrote {len(entries)} circuits + manifest.csv to {args.out}")

    elif args.command == "tables":
        for which in args.which:
            _, text = _TABLES[which](size_indices=tuple(args.sizes))
            print(text)
            print()

    elif args.command == "figures":
        for which in args.which:
            _, text = _FIGURES[which]()
            print(text)
            print()

    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
