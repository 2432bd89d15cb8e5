"""The service against a real ``popqc serve`` process.

CI's ``service-smoke`` job launches the daemon itself — hardened, with
an auth token and a ``--max-active-jobs`` cap — and passes its address
through ``POPQC_SERVE_HOST`` (token through ``POPQC_AUTH_TOKEN``);
elsewhere the test spawns (and reaps) its own subprocess server with
the same hardening.  The smoke assertions are the acceptance criteria
of the service PRs: two overlapping jobs through one real server come
back byte-identical to standalone serial runs, the repeated submission
reports a nonzero cache hit rate, and a submit against a saturated
server is rejected with BUSY and then retried to success.
"""

import os
import re
import subprocess
import sys
import threading
import time

import pytest

from repro.circuits import random_redundant_circuit, to_qasm
from repro.core import popqc
from repro.oracles import NamOracle
from repro.service import ServiceClient

CIRCUIT = random_redundant_circuit(7, 900, seed=41, redundancy=0.5)
OMEGA = 40

# against a capped server, every client rides BUSY spells out with a
# patient backoff instead of failing the suite
_RETRY_KW = dict(
    busy_retries=120,
    busy_backoff_seconds=0.05,
    busy_backoff_max_seconds=0.5,
)


def _client(address: str) -> ServiceClient:
    return ServiceClient(
        address, auth_token=os.environ.get("POPQC_AUTH_TOKEN"), **_RETRY_KW
    )


@pytest.mark.service
class TestServeSubprocess:
    @pytest.fixture()
    def server_address(self, monkeypatch):
        env_host = os.environ.get("POPQC_SERVE_HOST")
        if env_host:
            yield env_host.strip()
            return
        # local runs mirror the CI hardening: token + active-job cap
        monkeypatch.setenv("POPQC_AUTH_TOKEN", "local-smoke-token")
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
                "--max-active-jobs",
                "2",
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

    def test_concurrent_jobs_and_cache_against_real_server(self, server_address):
        reference = popqc(CIRCUIT, NamOracle(), OMEGA)
        first = [None, None]

        def run(i):
            with _client(server_address) as client:
                first[i] = client.optimize(CIRCUIT, omega=OMEGA)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert all(job is not None for job in first), "a job never finished"
        for job in first:
            assert job.circuit.gates == reference.circuit.gates
            assert to_qasm(job.circuit) == to_qasm(reference.circuit)
        with _client(server_address) as client:
            repeat = client.optimize(CIRCUIT, omega=OMEGA)
            status = client.status()
        assert repeat.circuit.gates == reference.circuit.gates
        assert repeat.cache_hit_rate > 0.0  # the acceptance pin
        assert repeat.stats["oracle_calls_saved"] > 0
        assert status["jobs_completed"] >= 3
        assert status["cache"]["hits"] > 0

    def test_busy_rejected_then_retried_against_real_server(self, server_address):
        """Saturate the server's job cap with long holders, then drive
        one more submit: it must be refused with BUSY at least once and
        still come back correct through the client's retry loop."""
        with _client(server_address) as probe:
            cap = probe.status()["admission"]["max_active_jobs"]
        if cap is None:
            pytest.skip("server runs without --max-active-jobs")
        # cache-cold long jobs (seeded per process so a warm disk cache
        # from an earlier run cannot shorten them under the poll below)
        holders_done = []
        holder_circuits = [
            random_redundant_circuit(
                8, 6000, seed=(os.getpid() + i) % 100000, redundancy=0.5
            )
            for i in range(cap)
        ]

        def hold(circuit):
            with _client(server_address) as client:
                client.optimize(circuit, omega=OMEGA)
            holders_done.append(True)

        threads = [
            threading.Thread(target=hold, args=(c,)) for c in holder_circuits
        ]
        for t in threads:
            t.start()
        with _client(server_address) as watcher:
            for _ in range(200):
                if watcher.status()["jobs_active"] >= cap:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("holders never saturated the job cap")
        reference = popqc(CIRCUIT, NamOracle(), OMEGA)
        with _client(server_address) as client:
            job = client.optimize(CIRCUIT, omega=OMEGA)
            rejections = client.busy_rejections
            status = client.status()
        for t in threads:
            t.join(timeout=180)
        assert len(holders_done) == cap, "a holder job never finished"
        assert job.circuit.gates == reference.circuit.gates
        assert rejections >= 1  # the submit really was refused first
        assert status["admission"]["jobs_rejected"] >= 1
