"""The daemon's local fleet is the default pool: the dispatcher plus
``workers - 1`` children.

A served round wider than two segments is a claim round in which the
scheduler's dispatcher thread is one of the ``workers`` compute streams,
as the caller is under ``--executor process:N``.  These tests pin the
shape (one child for ``workers=2``, none for ``workers=1``) through a
real daemon on the default ``encoded`` transport, and what happens when
the dispatcher's own share fails or is interrupted by ``stop()``.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro.circuits import random_redundant_circuit
from repro.circuits.encoding import encode_segment, pack_segment
from repro.core import popqc
from repro.oracles import NamOracle
from repro.parallel import SerialMap, transports
from repro.parallel.frames import ERR_JOB_FAILED
from repro.service import OptimizationService, ServiceClient, ServiceError

CIRCUIT = random_redundant_circuit(8, 1500, seed=23, redundancy=0.5)
OMEGA = 40


def _children() -> set:
    return {proc.pid for proc in multiprocessing.active_children()}


def _packed(gates) -> bytes:
    return pack_segment(encode_segment(gates))


@pytest.fixture(scope="module")
def serial_bytes() -> bytes:
    return _packed(popqc(CIRCUIT, NamOracle(), OMEGA, parmap=SerialMap()).circuit.gates)


class FailsInDaemon(NamOracle):
    """Nam's answer, except in the process that built it while
    :attr:`armed`: there every call raises.  A forked child's copy never
    raises; it answers a little slowly, so the dispatcher always claims
    a share of a wide round."""

    def __init__(self):
        super().__init__()
        self.pid = os.getpid()
        self.armed = True

    def run_ids(self, ids, table):
        if os.getpid() == self.pid:
            if self.armed:
                raise RuntimeError("oracle failed on the dispatcher")
        else:
            time.sleep(0.005)
        return super().run_ids(ids, table)


class SleepyNam(NamOracle):
    """Nam's answer after a sleep, on every stream."""

    def run_ids(self, ids, table):
        time.sleep(0.05)
        return super().run_ids(ids, table)


@pytest.mark.parametrize("workers", [1, 2])
def test_fleet_is_the_dispatcher_plus_workers_minus_one_children(
    workers, serial_bytes
):
    """``workers=2`` forks exactly one child (the dispatcher is the other
    stream) and ``workers=1`` none; both report ``workers`` as asked,
    pool their wide rounds and answer the serial run's bytes."""
    before = _children()
    srv = OptimizationService(NamOracle(), workers=workers).start()
    try:
        with ServiceClient(srv.address) as client:
            job = client.optimize(CIRCUIT, omega=OMEGA)
            status = client.status()
        forked = _children() - before
        dispatches = srv._scheduler.fleet.counters()["pool_dispatches"]
    finally:
        srv.stop()
    assert len(forked) == workers - 1
    assert job.stats["workers"] == status["fleet"]["workers"] == workers
    assert status["fleet"]["transport"] == "encoded"
    assert dispatches > 0
    assert _packed(job.circuit.gates) == serial_bytes
    assert not forked & _children()


def test_a_failure_on_the_dispatchers_share_fails_only_that_job(serial_bytes):
    """The oracle raising on the dispatcher's share of a claim round
    fails that job with a typed error; the child that shared the round
    is kept, not respawned, and the next job is the serial bytes."""
    oracle = FailsInDaemon()
    before = _children()
    srv = OptimizationService(oracle, workers=2).start()
    try:
        with ServiceClient(srv.address) as client:
            with pytest.raises(ServiceError, match=rf"\(kind {ERR_JOB_FAILED}\)"):
                client.optimize(CIRCUIT, omega=OMEGA)
            # the job's first round is wide: it failed as a claim round
            assert srv._scheduler.fleet.counters()["pool_dispatches"] == 1
            pool = srv._scheduler.fleet.wire._pool
            children = _children() - before
            assert pool is not None and len(children) == 1
            oracle.armed = False
            job = client.optimize(CIRCUIT, omega=OMEGA)
            assert srv._scheduler.fleet.wire._pool is pool
            assert _children() - before == children
    finally:
        srv.stop()
    assert srv.jobs_failed == 1 and srv.jobs_completed == 1
    assert _packed(job.circuit.gates) == serial_bytes


def test_stop_while_the_dispatcher_computes_answers_every_held_job(monkeypatch):
    """``stop()`` called while the dispatcher is computing its share of
    a claim round returns within the scheduler's 5 s join, every held
    job gets the typed "fleet scheduler closed" error, and no pool child
    outlives the daemon."""
    monkeypatch.setattr(OptimizationService, "_JOIN_SECONDS", 60.0)
    armed, computing = threading.Event(), threading.Event()
    answer_here = transports._answer_here

    def watched(oracle, segments, stats):
        answer = answer_here(oracle, segments, stats)

        def here(i):
            # once armed, the dispatcher's next claim stays in the round
            # until close() has begun, then carries on computing
            if armed.is_set() and not computing.is_set():
                computing.set()
                deadline = time.monotonic() + 30.0
                while not srv._scheduler._closing and time.monotonic() < deadline:
                    time.sleep(0.001)
            return answer(i)

        return here

    monkeypatch.setattr(transports, "_answer_here", watched)
    before = _children()
    srv = OptimizationService(SleepyNam(), workers=2, cache=False).start()
    outcomes = []

    def submit(seed):
        circuit = random_redundant_circuit(8, 600, seed=seed, redundancy=0.5)
        try:
            with ServiceClient(srv.address, request_timeout=60.0) as client:
                outcomes.append(client.optimize(circuit, omega=20))
        except Exception as exc:  # noqa: BLE001 - asserted below
            outcomes.append(exc)

    clients = [threading.Thread(target=submit, args=(s,)) for s in (1, 2, 3)]
    try:
        for client in clients:
            client.start()
        for _ in range(4000):
            if srv._scheduler.pending_requests == 3:
                break
            time.sleep(0.005)
        assert srv._scheduler.pending_requests == 3
        armed.set()
        assert computing.wait(timeout=30)
        children = _children() - before
        assert len(children) == 1
        began = time.monotonic()
        stopper = threading.Thread(target=srv.stop)
        stopper.start()
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        assert time.monotonic() - began < 5.0
        for client in clients:
            client.join(timeout=30)
        assert not any(client.is_alive() for client in clients)
    finally:
        srv.stop()
    assert not children & _children()
    assert len(outcomes) == 3
    for outcome in outcomes:
        assert isinstance(outcome, ServiceError)
        assert "fleet scheduler closed" in str(outcome)
