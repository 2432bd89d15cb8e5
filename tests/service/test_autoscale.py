"""Elastic fleet: autoscaling ``popqc serve`` up and down.

The service can spawn its own ``popqc worker`` processes
(``--min-workers`` / ``--max-workers``) and grow or shrink the socket
fleet with the scheduler's backlog.  The pins here: scaling is bounded
(never above max, never below min), validation refuses nonsense
configurations loudly, a worker retired *during* an active round costs
latency but never correctness (byte-identical against the plain popqc
reference), and retired workers actually die — no leaked listeners, no
leaked subprocesses.

Most tests inject an in-process spawner so they exercise the scaling
machinery without paying interpreter startup per worker; one
``service``-marked test runs the real :class:`SubprocessWorker` path.
"""

import socket
import threading
import time

import pytest

from repro.circuits import random_redundant_circuit, to_qasm
from repro.core import popqc
from repro.oracles import NamOracle
from repro.parallel import WorkerHost
from repro.parallel.frames import parse_address
from repro.service import OptimizationService, ServiceClient

CIRCUIT = random_redundant_circuit(6, 900, seed=31, redundancy=0.5)
OMEGA = 16


class InProcessWorker:
    """Spawner product that wraps an in-process WorkerHost (the same
    interface as SubprocessWorker: ``.address`` and ``.stop()``)."""

    instances: list = []

    def __init__(self, auth_token=None):
        self.host = WorkerHost(auth_token=auth_token).start()
        self.address = self.host.address
        self.stopped = False
        type(self).instances.append(self)

    def stop(self):
        """Stop the wrapped host (idempotent) and record the fact."""
        self.stopped = True
        self.host.stop()


@pytest.fixture(autouse=True)
def _reset_spawner_registry():
    InProcessWorker.instances = []
    yield
    for worker in InProcessWorker.instances:
        worker.stop()


def _elastic_service(**kwargs):
    defaults = dict(
        transport="socket",
        min_workers=1,
        max_workers=3,
        scale_window_seconds=5.0,
        worker_spawner=InProcessWorker,
        cache=False,
    )
    defaults.update(kwargs)
    return OptimizationService(NamOracle(), **defaults).start()


def _port_is_closed(address: str) -> bool:
    host, port = parse_address(address)
    try:
        sock = socket.create_connection((host, port), timeout=0.5)
    except OSError:
        return True
    sock.close()
    return False


class TestValidation:
    def test_elastic_flags_demand_socket_transport(self):
        with pytest.raises(ValueError, match="socket"):
            OptimizationService(
                NamOracle(), transport="threads", max_workers=2
            )

    def test_min_above_max_refused(self):
        with pytest.raises(ValueError, match="min_workers"):
            OptimizationService(
                NamOracle(),
                transport="socket",
                min_workers=4,
                max_workers=2,
                worker_spawner=InProcessWorker,
            )

    def test_negative_min_refused(self):
        with pytest.raises(ValueError, match="min_workers"):
            OptimizationService(
                NamOracle(), transport="socket", min_workers=-1
            )

    def test_zero_max_refused(self):
        with pytest.raises(ValueError, match="max_workers"):
            OptimizationService(
                NamOracle(), transport="socket", max_workers=0
            )

    def test_bad_scale_window_refused(self):
        with pytest.raises(ValueError, match="scale_window"):
            OptimizationService(
                NamOracle(),
                transport="socket",
                max_workers=2,
                scale_window_seconds=0.0,
                worker_spawner=InProcessWorker,
            )


class TestManualScaling:
    def test_min_workers_bootstraps_a_hostless_fleet(self):
        srv = _elastic_service()
        try:
            status = srv.status()
            assert len(status["autoscale"]["spawned_workers"]) == 1
            assert status["autoscale"]["enabled"] is True
            with ServiceClient(srv.address) as client:
                result = client.optimize(CIRCUIT, omega=OMEGA)
            reference = popqc(CIRCUIT, NamOracle(), OMEGA)
            assert to_qasm(result.circuit) == to_qasm(reference.circuit)
        finally:
            srv.stop()

    def test_scale_up_and_down_respect_the_bounds(self):
        srv = _elastic_service()
        try:
            assert srv.scale_up() is not None
            assert srv.scale_up() is not None
            assert srv.scale_up() is None  # at max_workers=3
            assert len(srv.status()["autoscale"]["spawned_workers"]) == 3
            assert srv.scale_down() is not None
            assert srv.scale_down() is not None
            assert srv.scale_down() is None  # at min_workers=1
            status = srv.status()
            assert status["autoscale"]["scale_ups"] == 2
            assert status["autoscale"]["scale_downs"] == 2
        finally:
            srv.stop()

    def test_retired_worker_is_actually_stopped(self):
        srv = _elastic_service()
        try:
            added = srv.scale_up()
            retired = srv.scale_down()
            assert retired == added
            assert _port_is_closed(retired)
            retired_worker = next(
                w for w in InProcessWorker.instances if w.address == retired
            )
            assert retired_worker.stopped
        finally:
            srv.stop()

    def test_stop_retires_every_spawned_worker(self):
        srv = _elastic_service()
        srv.scale_up()
        addresses = list(srv.status()["autoscale"]["spawned_workers"])
        srv.stop()
        assert len(addresses) == 2
        assert all(worker.stopped for worker in InProcessWorker.instances)
        assert all(_port_is_closed(addr) for addr in addresses)


class TestRetireDuringActiveRound:
    def test_scale_down_mid_job_is_byte_identical(self):
        """Retiring a worker while a job is optimizing must drain its
        in-flight batches through the steal path — the job's result is
        byte-identical with the plain popqc reference and no socket or
        worker leaks."""
        srv = _elastic_service(min_workers=1, max_workers=2)
        try:
            assert srv.scale_up() is not None
            results = []
            with ServiceClient(srv.address) as client:
                job = threading.Thread(
                    target=lambda: results.append(
                        client.optimize(CIRCUIT, omega=OMEGA)
                    )
                )
                job.start()
                time.sleep(0.15)  # let the round get in flight
                retired = srv.scale_down()
                job.join(timeout=120)
            assert not job.is_alive()
            assert retired is not None
            reference = popqc(CIRCUIT, NamOracle(), OMEGA)
            assert to_qasm(results[0].circuit) == to_qasm(
                reference.circuit
            )
            assert _port_is_closed(retired)
        finally:
            srv.stop()
        assert all(worker.stopped for worker in InProcessWorker.instances)


class TestAutoscalePolicy:
    def test_idle_fleet_shrinks_to_the_floor(self):
        """Two consecutive empty-queue windows retire one worker; an
        idle service converges to min_workers and stays there."""
        srv = _elastic_service(scale_window_seconds=0.05)
        try:
            assert srv.scale_up() is not None
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if len(srv.status()["autoscale"]["spawned_workers"]) == 1:
                    break
                time.sleep(0.05)
            assert len(srv.status()["autoscale"]["spawned_workers"]) == 1
        finally:
            srv.stop()


    def test_scale_up_threshold_is_the_round_budget(self, monkeypatch):
        """The backlog that adds a worker is the fair-share quantum the
        scheduler was configured with, not a second copy of its default."""
        srv = _elastic_service(round_budget_segments=64)
        backlog = [40]
        monkeypatch.setattr(
            type(srv._scheduler), "pending_segments", property(lambda _: backlog[0])
        )
        try:
            srv._autoscale_tick()
            assert srv.scale_ups == 0  # under one budget: the fleet is keeping up
            backlog[0] = 65
            srv._autoscale_tick()
            assert srv.scale_ups == 1
        finally:
            srv.stop()


@pytest.mark.service
class TestSubprocessSpawner:
    def test_default_spawner_runs_real_workers(self):
        """The CLI path end to end: min_workers spawns actual ``popqc
        worker`` subprocesses, jobs run byte-identically, and stop()
        terminates them."""
        srv = OptimizationService(
            NamOracle(),
            transport="socket",
            min_workers=1,
            max_workers=1,
            cache=False,
            auth_token="scale-token",
        ).start()
        try:
            worker = srv._spawned[0]
            assert worker.pid is not None
            with ServiceClient(srv.address, auth_token="scale-token") as client:
                result = client.optimize(CIRCUIT, omega=OMEGA)
            reference = popqc(CIRCUIT, NamOracle(), OMEGA)
            assert to_qasm(result.circuit) == to_qasm(reference.circuit)
        finally:
            srv.stop()
        assert worker._proc.poll() is not None  # subprocess is gone
        assert _port_is_closed(worker.address)

    def test_a_silent_child_fails_the_spawn_not_the_service(self, monkeypatch):
        """A spawned worker that never prints its banner is stopped at
        the deadline and counted as a failed scale-up; the scale lock
        it was spawned under is free again, so STATUS still answers."""
        import subprocess
        import sys

        from repro.service import server

        children = []
        real_popen = subprocess.Popen

        def silent_child(cmd, **kwargs):
            children.append(
                real_popen(
                    [sys.executable, "-c", "import time; time.sleep(60)"], **kwargs
                )
            )
            return children[-1]

        srv = _elastic_service()
        monkeypatch.setattr(server.subprocess, "Popen", silent_child)
        monkeypatch.setattr(server, "SPAWN_TIMEOUT_SECONDS", 0.5)
        srv._worker_spawner = server.SubprocessWorker
        try:
            with pytest.raises(RuntimeError, match="no address banner within 0.5 s"):
                server.SubprocessWorker()
            started = time.monotonic()
            assert srv.scale_up() is None
            assert time.monotonic() - started < 10.0
            assert srv.status()["autoscale"]["scale_failures"] == 1
        finally:
            srv.stop()
        assert len(children) == 2
        assert all(child.poll() is not None for child in children)
