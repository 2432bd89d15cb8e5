"""Tests for the ``popqc`` command-line interface."""

import pytest

from repro.circuits import Circuit, H, X, read_qasm, write_qasm
from repro.cli import main


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

    def test_bad_executor(self, qasm_file):
        with pytest.raises(SystemExit):
            main(["optimize", qasm_file, "--executor", "gpu"])

    def test_process_executor_with_transport(self, qasm_file, capsys,
                                             monkeypatch):
        from repro.parallel import ProcessMap

        closed = []
        real_close = ProcessMap.close
        monkeypatch.setattr(
            ProcessMap, "close", lambda pm: (closed.append(pm), real_close(pm))
        )
        for transport in ("encoded", "pickle"):
            rc = main(
                ["optimize", qasm_file, "--executor", "process:2",
                 "--transport", transport]
            )
            assert rc == 0
            assert "reduction" in capsys.readouterr().out
            # the executor the CLI built is closed, once, before it returns
            assert len(closed) == 1
            closed.clear()

    def test_transport_rejected_for_non_process_executor(self, qasm_file):
        with pytest.raises(SystemExit, match="process executors"):
            main(["optimize", qasm_file, "--executor", "serial",
                  "--transport", "pickle"])

    def test_socket_transport_requires_hosts(self, qasm_file):
        with pytest.raises(SystemExit, match="--hosts"):
            main(["optimize", qasm_file, "--executor", "process:2",
                  "--transport", "socket"])

    def test_hosts_requires_socket_transport(self, qasm_file):
        with pytest.raises(SystemExit, match="--transport socket"):
            main(["optimize", qasm_file, "--executor", "process:2",
                  "--transport", "encoded", "--hosts", "127.0.0.1:9001"])

    def test_socket_transport_against_local_cluster(self, qasm_file, tmp_path,
                                                    capsys):
        from repro.parallel import local_cluster

        out = str(tmp_path / "out.qasm")
        with local_cluster(2) as hosts:
            rc = main(["optimize", qasm_file, "-o", out, "--omega", "4",
                       "--executor", "process:2", "--transport", "socket",
                       "--hosts", ",".join(hosts)])
        assert rc == 0
        assert "reduction" in capsys.readouterr().out
        assert read_qasm(out).num_gates == 1


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
