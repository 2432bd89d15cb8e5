"""Tests for the ``popqc`` command-line interface."""

import pytest

from repro.circuits import Circuit, H, X, read_qasm, write_qasm
from repro.cli import main


def _one_line(err: str) -> str:
    """``err`` if it is a single line and no traceback, else fail."""
    assert err.count("\n") == 1 and "Traceback" not in err, err
    return err


#: Every option string of every subcommand.  A new flag is a deliberate
#: one-line diff here; a mechanism knob (how bytes travel, which engine
#: runs the rules) does not come back by accident.
FLAGS = {
    "optimize": {"-h", "--help", "--omega", "--executor", "--hosts", "-o", "--output"},
    "bench": {"-h", "--help", "--omega", "--executor", "--hosts", "--size",
              "--baseline"},
    "worker": {"-h", "--help", "--bind", "--auth-token"},
    "serve": {"-h", "--help", "--bind", "--workers", "--hosts", "--cache-dir",
              "--cache-entries", "--cache-disk-bytes", "--no-cache", "--auth-token",
              "--max-active-jobs", "--max-jobs-per-peer", "--max-pending-rounds",
              "--min-workers", "--max-workers", "--scale-window", "--idle-timeout"},
    "submit": {"-h", "--help", "--server", "--omega", "-o", "--output",
               "--auth-token", "--priority", "--status"},
    "analyze": {"-h", "--help"},
    "trace": {"-h", "--help", "--omega", "--width"},
    "suite": {"-h", "--help", "--out", "--sizes", "--families"},
    "tables": {"-h", "--help", "--sizes"},
    "figures": {"-h", "--help"},
}


def test_flag_census(monkeypatch):
    import argparse

    seen = {}
    real_parse = argparse.ArgumentParser.parse_args

    def capture(parser, argv=None):
        (subparsers,) = (
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        for name, sub in subparsers.choices.items():
            seen[name] = {opt for a in sub._actions for opt in a.option_strings}
        return real_parse(parser, argv)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(SystemExit):
        main(["--help"])
    assert seen == FLAGS


@pytest.fixture
def qasm_file(tmp_path):
    path = str(tmp_path / "in.qasm")
    write_qasm(Circuit([H(0), H(0), X(1), X(1), H(2)], 3), path)
    return path


class TestOptimizeCommand:
    def test_optimizes_and_writes(self, qasm_file, tmp_path, capsys):
        out = str(tmp_path / "out.qasm")
        rc = main(["optimize", qasm_file, "-o", out, "--omega", "4"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "reduction" in captured
        assert read_qasm(out).num_gates == 1

    def test_without_output(self, qasm_file, capsys):
        assert main(["optimize", qasm_file]) == 0
        assert "reduction" in capsys.readouterr().out

    def test_simulated_executor(self, qasm_file, capsys):
        rc = main(["optimize", qasm_file, "--executor", "simulated:8"])
        assert rc == 0

    def test_bad_executor(self, qasm_file, capsys):
        for spec in ("gpu", "thread:2", "process:x", "serial:2"):
            with pytest.raises(SystemExit) as refused:
                main(["optimize", qasm_file, "--executor", spec])
            assert refused.value.code == 2
            assert repr(spec) in _one_line(capsys.readouterr().err)

    @pytest.mark.parametrize("spec", ["process:0", "simulated:0"])
    def test_zero_workers_is_a_usage_error(self, qasm_file, capsys, spec):
        with pytest.raises(SystemExit) as refused:
            main(["optimize", qasm_file, "--executor", spec])
        assert refused.value.code == 2
        assert "bad worker count '0'" in _one_line(capsys.readouterr().err)

    def test_process_executor_with_transport(self, qasm_file, capsys, monkeypatch):
        from repro.parallel import ProcessMap

        closed = []
        real_close = ProcessMap.close
        monkeypatch.setattr(
            ProcessMap, "close", lambda pm: (closed.append(pm), real_close(pm))
        )
        assert main(["optimize", qasm_file, "--executor", "process:2"]) == 0
        assert "reduction" in capsys.readouterr().out
        # the executor the CLI built ships packed bytes to local workers
        # and is closed, once, before it returns
        assert [pm.transport for pm in closed] == ["encoded"]

    @pytest.mark.parametrize(
        "flag", [["--transport", "encoded"], ["--oracle-engine", "vector"]]
    )
    @pytest.mark.parametrize("command", ["optimize", "bench", "serve"])
    def test_the_mechanism_flags_are_gone(self, command, flag, qasm_file):
        positional = {"optimize": [qasm_file], "bench": ["VQE"], "serve": []}
        with pytest.raises(SystemExit) as refused:
            main([command, *positional[command], *flag])
        assert refused.value.code == 2

    def test_worker_capacity_flag_is_gone(self, capsys):
        """Refused before any socket is bound: a host serves one batch
        of a connection at a time, so there is nothing to advertise."""
        with pytest.raises(SystemExit) as refused:
            main(["worker", "--bind", "127.0.0.1:0", "--capacity", "4"])
        assert refused.value.code == 2
        assert "--capacity" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["-1", "0"])
    def test_serve_refuses_fewer_than_one_worker(self, count, capsys):
        """Refused before any socket is bound: ``-1`` used to fail every
        job, ``0`` to mean every core."""
        with pytest.raises(SystemExit) as refused:
            main(["serve", "--bind", "127.0.0.1:0", "--workers", count])
        assert refused.value.code == 2
        assert f"bad worker count {count!r}" in capsys.readouterr().err

    def test_hosts_refused_for_non_process_executor(self, qasm_file, capsys):
        with pytest.raises(SystemExit) as refused:
            main(["optimize", qasm_file, "--executor", "serial",
                  "--hosts", "127.0.0.1:9001"])
        assert refused.value.code == 2
        assert "process executors" in _one_line(capsys.readouterr().err)

    def test_socket_transport_against_local_cluster(self, qasm_file, tmp_path, capsys):
        """``--hosts`` alone selects the wire: the run goes to the two
        workers and writes the file the serial run writes."""
        from repro.parallel import local_cluster

        serial, remote = str(tmp_path / "serial.qasm"), str(tmp_path / "out.qasm")
        assert main(["optimize", qasm_file, "-o", serial, "--omega", "4"]) == 0
        with local_cluster(2) as hosts:
            rc = main(["optimize", qasm_file, "-o", remote, "--omega", "4",
                       "--executor", "process:2", "--hosts", ",".join(hosts)])
        assert rc == 0
        assert "reduction" in capsys.readouterr().out
        assert open(remote).read() == open(serial).read()
        assert read_qasm(remote).num_gates == 1

    def test_missing_input_file_is_one_line(self, capsys):
        with pytest.raises(SystemExit) as refused:
            main(["optimize", "/nonexistent.qasm"])
        assert refused.value.code == 2
        assert "'/nonexistent.qasm'" in _one_line(capsys.readouterr().err)


class TestBenchCommand:
    def test_bench_runs(self, capsys):
        rc = main(["bench", "HHL", "--size", "0", "--omega", "50"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "HHL[0]" in out
        assert "popqc" in out

    def test_bench_with_baseline(self, capsys):
        rc = main(["bench", "VQE", "--size", "0", "--baseline"])
        assert rc == 0
        assert "baseline" in capsys.readouterr().out

    def test_unknown_family_rejected(self):
        for family in ("Nope", "serve"):
            with pytest.raises(SystemExit):
                main(["bench", family])


class TestTablesCommand:
    def test_single_table(self, capsys, monkeypatch):
        # trim the workload: patch the driver's defaults via argv sizes
        rc = main(["tables", "4", "--sizes", "0"])
        assert rc == 0
        assert "Table 4" in capsys.readouterr().out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


class TestAnalyzeCommand:
    def test_family_spec(self, capsys):
        assert main(["analyze", "VQE:0"]) == 0
        out = capsys.readouterr().out
        assert "qubits" in out and "T gates" in out

    def test_qasm_path(self, qasm_file, capsys):
        assert main(["analyze", qasm_file]) == 0
        assert "depth" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ["Grover:abc", "Grover:9"])
    def test_bad_size_index_is_one_line(self, spec, capsys):
        with pytest.raises(SystemExit) as refused:
            main(["analyze", spec])
        assert refused.value.code == 2
        assert repr(spec) in _one_line(capsys.readouterr().err)


class TestTraceCommand:
    def test_renders_rounds(self, capsys):
        assert main(["trace", "VQE:0", "--omega", "80", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "round" in out and "reduction" in out


class TestSuiteCommand:
    def test_writes_qasm_and_manifest(self, tmp_path, capsys):
        out = str(tmp_path / "suite")
        rc = main(["suite", "--out", out, "--sizes", "0", "--families", "VQE"])
        assert rc == 0
        assert "manifest.csv" in capsys.readouterr().out
        import os

        assert os.path.exists(os.path.join(out, "manifest.csv"))


class TestWorkerCommand:
    def test_sigterm_stops_the_host_and_prints_the_summary(self):
        """SIGTERM is how ``SubprocessWorker.stop()`` and CI end a
        worker: it must leave through ``worker.stop()`` and say what it
        served, exactly as ``popqc serve`` does."""
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker", "--bind", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            assert "listening on" in proc.stdout.readline()
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=5)
        assert proc.returncode == 0
        assert "popqc worker served 0 segments in 0 batches" in out

    def test_the_cache_tier_flag_is_gone(self):
        with pytest.raises(SystemExit) as refused:
            main(["worker", "--cache", "127.0.0.1:1"])
        assert refused.value.code == 2
