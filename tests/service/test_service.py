"""The optimization service end to end (in-process server).

Pins the tentpole acceptance behaviours: a job through the service is
byte-identical to a standalone ``popqc`` run, two *concurrent* jobs
through one server both match their serial references, repeated
submissions are served from the cache (nonzero hit rate, ≥ the first
job's), the disk cache survives a server restart, and failures travel
as typed errors instead of hanging the connection.
"""

import json
import sys
import threading
import time

import pytest

from repro.circuits import CNOT, Circuit, H, random_redundant_circuit, to_qasm
from repro.core import popqc
from repro.oracles import NamOracle
from repro.parallel import local_cluster
from repro.parallel.frames import FRAME_SEGMENTS, FrameProtocolError
from repro.circuits.encoding import encode_segment
from repro.service.frames import (
    pack_job_payload,
    unpack_job_payload,
    unpack_result_payload,
)
from repro.service import (
    FleetScheduler,
    OptimizationService,
    SegmentCache,
    ServiceClient,
    ServiceError,
)

CIRCUIT_A = random_redundant_circuit(8, 1200, seed=31, redundancy=0.5)
CIRCUIT_B = random_redundant_circuit(7, 1000, seed=32, redundancy=0.6)
OMEGA = 40


@pytest.fixture(scope="module")
def reference_a():
    return popqc(CIRCUIT_A, NamOracle(), OMEGA)


@pytest.fixture(scope="module")
def reference_b():
    return popqc(CIRCUIT_B, NamOracle(), OMEGA)


@pytest.fixture()
def service():
    srv = OptimizationService(NamOracle(), workers=2, transport="threads").start()
    yield srv
    srv.stop()


class TestJobProtocol:
    def test_job_payload_round_trip(self):
        gates = [H(0), CNOT(0, 1)]
        payload = pack_job_payload(7, 50, 2, 10, encode_segment(gates), priority=3)
        tag, omega, nq, max_rounds, encoded, priority = unpack_job_payload(payload)
        assert (tag, omega, nq, max_rounds, priority) == (7, 50, 2, 10, 3)
        from repro.circuits.encoding import decode_segment

        assert decode_segment(encoded) == gates

    def test_job_payload_none_fields(self):
        payload = pack_job_payload(1, 100, None, None, encode_segment([]))
        _, _, nq, max_rounds, encoded, priority = unpack_job_payload(payload)
        assert nq is None and max_rounds is None and len(encoded) == 0
        assert priority == 1  # the default weight

    def test_job_payload_zero_fields_survive(self):
        """An explicit 0 (legal for both fields) must not decay to
        None on the wire — max_rounds=0 means zero rounds, not
        unlimited."""
        payload = pack_job_payload(1, 100, 0, 0, encode_segment([]))
        _, _, nq, max_rounds, _, _ = unpack_job_payload(payload)
        assert nq == 0 and max_rounds == 0

    def test_job_payload_priority_clamped_both_ends(self):
        """Priority is untrusted wire input: out-of-band values are
        clamped into [1, MAX_PRIORITY] at pack AND unpack time, so a
        hostile client cannot buy an unbounded scheduler share."""
        from repro.service.frames import MAX_PRIORITY

        for asked, expect in ((0, 1), (-7, 1), (10**6, MAX_PRIORITY)):
            payload = pack_job_payload(
                1, 50, 2, None, encode_segment([]), priority=asked
            )
            *_, priority = unpack_job_payload(payload)
            assert priority == expect

    @pytest.mark.parametrize("cut", [4, 20, 30])
    def test_torn_job_payload_raises(self, cut):
        payload = pack_job_payload(
            1, 50, 3, None, encode_segment([H(0), CNOT(0, 1), H(2)])
        )
        with pytest.raises(FrameProtocolError):
            unpack_job_payload(payload[:cut])

    def test_torn_result_payload_raises(self):
        from repro.service.frames import pack_result_payload

        payload = pack_result_payload(3, b'{"x":1}', encode_segment([H(0)]))
        with pytest.raises(FrameProtocolError):
            unpack_result_payload(payload[: len(payload) - 4])


class TestSingleJob:
    def test_matches_standalone_popqc(self, service, reference_a):
        with ServiceClient(service.address) as client:
            job = client.optimize(CIRCUIT_A, omega=OMEGA)
        assert job.circuit.gates == reference_a.circuit.gates
        assert to_qasm(job.circuit) == to_qasm(reference_a.circuit)
        assert job.stats["rounds"] == reference_a.stats.rounds
        assert job.stats["oracle_calls"] == reference_a.stats.oracle_calls
        assert job.stats["wall_seconds"] > 0.0

    def test_repeat_submission_is_fully_cached(self, service, reference_a):
        with ServiceClient(service.address) as client:
            first = client.optimize(CIRCUIT_A, omega=OMEGA)
            second = client.optimize(CIRCUIT_A, omega=OMEGA)
        assert second.circuit.gates == first.circuit.gates
        assert second.cache_hit_rate == 1.0
        assert second.stats["oracle_calls_saved"] == second.stats["oracle_calls"]
        assert second.cache_hit_rate > first.cache_hit_rate
        # the price of admission is accounted per job, not dropped (a
        # repeat is all memo answers: it asks the content cache nothing)
        assert first.stats["cache_lookup_seconds"] > 0.0
        assert second.stats["cache_lookup_seconds"] == 0.0

    def test_max_rounds_honored(self, service):
        with ServiceClient(service.address) as client:
            job = client.optimize(CIRCUIT_A, omega=OMEGA, max_rounds=1)
        assert job.stats["rounds"] == 1

    def test_max_rounds_zero_returns_input_unchanged(self, service):
        with ServiceClient(service.address) as client:
            job = client.optimize(CIRCUIT_A, omega=OMEGA, max_rounds=0)
        assert job.stats["rounds"] == 0
        assert list(job.circuit.gates) == list(CIRCUIT_A.gates)

    def test_status_reports_jobs_cache_and_latency(self, service):
        with ServiceClient(service.address) as client:
            client.ping()
            client.optimize(CIRCUIT_B, omega=OMEGA)
            status = client.status()
        assert status["jobs_completed"] == 1
        assert status["jobs_failed"] == 0
        assert status["fleet"] == {
            "workers": 2,
            "transport": "threads",
            "hosts": [],
        }
        assert status["cache"]["hits"] + status["cache"]["misses"] > 0
        assert status["job_latency"]["count"] == 1
        assert status["job_latency"]["last_seconds"] > 0.0
        assert status["scheduler"]["segments_dispatched"] > 0
        json.dumps(status)  # the whole object is JSON-serializable

    def test_status_cache_counts_are_the_jobs_own_over_a_socket_fleet(self):
        """Worker hosts hold no cache and ask none, so what STATUS says
        the cache saw is exactly what the jobs' RESULT frames say their
        fronts asked it: every segment looked up once, every miss
        stored once (a host that asked again would double the misses)."""
        with local_cluster(2) as hosts:
            srv = OptimizationService(
                NamOracle(), transport="socket", hosts=hosts
            ).start()
            try:
                with ServiceClient(srv.address) as client:
                    jobs = [client.optimize(CIRCUIT_B, omega=OMEGA) for _ in range(2)]
                    cache = client.status()["cache"]
            finally:
                srv.stop()
        cold, warm = (job.stats for job in jobs)
        assert cold["cache_misses"] > 0 and warm["cache_misses"] == 0
        assert cache["hits"] == cold["cache_hits"] + warm["cache_hits"]
        assert cache["misses"] == cold["cache_misses"] + warm["cache_misses"]
        assert cache["stores"] == cold["cache_misses"]

    def test_unexpected_frame_answered_with_typed_error(self, service):
        client = ServiceClient(service.address)
        try:
            with pytest.raises(ServiceError, match="unexpected frame type"):
                client.request(FRAME_SEGMENTS)
        finally:
            client.close()

    def test_torn_job_frame_answered_with_typed_error(self, service):
        from repro.parallel.frames import FRAME_JOB

        client = ServiceClient(service.address)
        try:
            with pytest.raises(ServiceError, match="JOB payload"):
                client.request(FRAME_JOB, b"\x00" * 8)
        finally:
            client.close()


class TestConcurrentJobs:
    def test_two_jobs_match_two_serial_runs(
        self, service, reference_a, reference_b
    ):
        """Two overlapping jobs through one server produce the same
        circuits as two standalone serial runs, and the scheduler
        actually interleaved them into shared fleet rounds."""
        results: dict[str, object] = {}
        errors: list[BaseException] = []

        def run(name, circuit):
            try:
                with ServiceClient(service.address) as client:
                    results[name] = client.optimize(circuit, omega=OMEGA)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=("a", CIRCUIT_A)),
            threading.Thread(target=run, args=("b", CIRCUIT_B)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert results["a"].circuit.gates == reference_a.circuit.gates
        assert results["b"].circuit.gates == reference_b.circuit.gates
        assert service.jobs_completed == 2

    def test_concurrent_identical_jobs_share_the_cache(self, service):
        """N identical jobs in flight: together they pay the oracle for
        at most the distinct segments — the rest hits, so the summed
        hit count is positive even while all jobs overlap."""
        n = 3
        jobs = [None] * n
        def run(i):
            with ServiceClient(service.address) as client:
                jobs[i] = client.optimize(CIRCUIT_A, omega=OMEGA)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        gates = [tuple(job.circuit.gates) for job in jobs]
        assert len(set(gates)) == 1
        assert sum(job.stats["cache_hits"] for job in jobs) > 0


class TestServerLifecycle:
    def test_disk_cache_survives_restart(self, tmp_path):
        oracle = NamOracle()

        def serve_once():
            cache = SegmentCache(disk_dir=tmp_path)
            srv = OptimizationService(
                oracle, workers=2, transport="threads", cache=cache
            ).start()
            try:
                with ServiceClient(srv.address) as client:
                    return client.optimize(CIRCUIT_B, omega=OMEGA)
            finally:
                srv.stop()

        first = serve_once()
        second = serve_once()  # a fresh server over the same disk store
        assert second.circuit.gates == first.circuit.gates
        assert second.cache_hit_rate == 1.0

    def test_disk_store_shared_with_executor_cache_path(self, tmp_path):
        """A :class:`CacheFront` around a standalone executor and the
        service derive identical keys, so a disk store warmed by a
        standalone round machine serves a server's first job entirely
        from cache."""
        from repro.core import popqc_rounds
        from repro.parallel import ProcessMap
        from repro.service import CacheFront, oracle_namespace

        oracle = NamOracle()
        front = CacheFront(SegmentCache(disk_dir=tmp_path), oracle_namespace(oracle))
        pm = ProcessMap(2, serial_cutoff=0, transport="threads")
        steps, results = popqc_rounds(CIRCUIT_B, OMEGA), None
        try:
            while True:
                segments = steps.send(results)
                results, misses = front.lookup(segments)
                missed = [seg for _, seg, _ in misses]
                front.store(results, misses, pm.map_segments(oracle, missed))
        except StopIteration as done:
            standalone = done.value
        finally:
            pm.close()
        srv = OptimizationService(
            oracle,
            workers=2,
            transport="threads",
            cache=SegmentCache(disk_dir=tmp_path),
        ).start()
        try:
            with ServiceClient(srv.address) as client:
                job = client.optimize(CIRCUIT_B, omega=OMEGA)
        finally:
            srv.stop()
        assert job.circuit.gates == standalone.circuit.gates
        assert job.cache_hit_rate == 1.0

    def test_no_cache_mode(self):
        srv = OptimizationService(
            NamOracle(), workers=2, transport="threads", cache=False
        ).start()
        try:
            with ServiceClient(srv.address) as client:
                first = client.optimize(CIRCUIT_B, omega=OMEGA)
                second = client.optimize(CIRCUIT_B, omega=OMEGA)
        finally:
            srv.stop()
        assert second.circuit.gates == first.circuit.gates
        assert second.stats["cache_hits"] == 0
        # no cache, no lookups: dispatching straight to the fleet is
        # not a "miss"
        assert second.stats["cache_misses"] == 0
        assert second.cache_hit_rate == 0.0

    def test_scheduler_close_fails_pending_cleanly(self):
        from repro.parallel import ProcessMap

        sched = FleetScheduler(ProcessMap(2, serial_cutoff=2, transport="threads"))
        sched.close()
        with pytest.raises(RuntimeError, match="closed"):
            sched.run_round(NamOracle(), [CIRCUIT_B.gates[:10]] * 4)
        sched.close()  # idempotent


def test_result_stats_label_the_fleet():
    srv = OptimizationService(NamOracle(), workers=2, transport="threads").start()
    try:
        with ServiceClient(srv.address) as client:
            job = client.optimize(Circuit([H(0), H(0)] * 30, 1), omega=8)
    finally:
        srv.stop()
    assert job.stats["transport"] == "threads"
    assert job.stats["workers"] == 2
    assert job.circuit.num_gates == 0


# -- multi-tenant hardening ---------------------------------------------------

SMALL = Circuit([H(0), H(0)] * 20, 1)


class GatedOracle:
    """NamOracle that blocks every call until released.

    Threads-transport only (holds a live Event); lets tests pin the
    server in the "job active" state deterministically.
    """

    def __init__(self, gate):
        self._gate = gate
        self._inner = NamOracle()

    def __call__(self, segment):
        self._gate.wait(timeout=60)
        return self._inner(segment)


class RecordingFleet:
    """A fake fleet: identity oracle results, every round recorded."""

    workers = 4
    transport = "fake"

    def __init__(self, delay_seconds=0.0, first_round_gate=None):
        self.delay_seconds = delay_seconds
        self.first_round_gate = first_round_gate
        self.rounds = []

    def map_segments(self, oracle, segments):
        self.rounds.append([list(seg) for seg in segments])
        if self.first_round_gate is not None and len(self.rounds) == 1:
            # keeps the dispatcher busy until the test has queued its requests
            assert self.first_round_gate.wait(timeout=30)
        if self.delay_seconds:
            import time

            time.sleep(self.delay_seconds)
        return [list(seg) for seg in segments]

    def close(self):
        return None


class TestBusyProtocol:
    def test_busy_payload_round_trip(self):
        from repro.service.frames import (
            BUSY_PEER_QUOTA,
            pack_busy_payload,
            unpack_busy_payload,
        )

        payload = pack_busy_payload(BUSY_PEER_QUOTA, 0.25, "slow down")
        kind, retry_after, message = unpack_busy_payload(payload)
        assert (kind, retry_after, message) == (BUSY_PEER_QUOTA, 0.25, "slow down")

    def test_torn_busy_payload_raises(self):
        from repro.service.frames import unpack_busy_payload

        with pytest.raises(FrameProtocolError, match="BUSY payload"):
            unpack_busy_payload(b"\x01\x00")


class TestWeightedFairScheduler:
    def test_round_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="round_budget_segments"):
            FleetScheduler(RecordingFleet(), round_budget_segments=0)

    def test_interactive_job_not_starved_by_batch(self):
        """The acceptance pin: with a big batch round saturating the
        fleet, a small concurrent round completes within a bounded
        number of scheduler rounds — not after the batch drains."""
        import time

        fleet = RecordingFleet(delay_seconds=0.01)
        sched = FleetScheduler(fleet, cache=None, round_budget_segments=8)
        oracle = NamOracle()
        batch_done = threading.Event()

        def run_batch():
            sched.run_round(oracle, [[H(0)]] * 64, weight=1)
            batch_done.set()

        t = threading.Thread(target=run_batch)
        try:
            t.start()
            for _ in range(1000):
                if sched.pending_requests >= 1:
                    break
                time.sleep(0.001)
            rounds_before = sched.rounds_dispatched
            results = sched.run_round(oracle, [[CNOT(0, 1)]] * 2, weight=1)
            rounds_used = sched.rounds_dispatched - rounds_before
            assert results == [[CNOT(0, 1)], [CNOT(0, 1)]]
            # budget 8 split over two weight-1 requests: the 2-segment
            # round fits its share of the first round it joins (plus at
            # most one round already in flight when it arrived)
            assert rounds_used <= 3
            assert not batch_done.is_set()  # the batch was still draining
            t.join(timeout=30)
            assert batch_done.is_set()
        finally:
            batch_done.wait(timeout=30)
            sched.close()

    def test_first_merged_round_split_by_weight(self):
        """Two 32-segment requests with weights 1 and 3 share the
        8-segment budget 2/6 in their first merged round."""
        import time

        both_queued = threading.Event()
        fleet = RecordingFleet(first_round_gate=both_queued)
        sched = FleetScheduler(fleet, cache=None, round_budget_segments=8)
        oracle = NamOracle()
        try:
            threads = [
                threading.Thread(
                    target=sched.run_round,
                    args=(oracle, [[H(0)]] * 32),
                    kwargs={"weight": 1},
                ),
                threading.Thread(
                    target=sched.run_round,
                    args=(oracle, [[H(1)]] * 32),
                    kwargs={"weight": 3},
                ),
            ]
            for t in threads:
                t.start()
            for _ in range(10000):
                if sched.pending_requests == 2:
                    break
                time.sleep(0.001)
            both_queued.set()
            for t in threads:
                t.join(timeout=30)
            first = next(r for r in fleet.rounds if [H(0)] in r and [H(1)] in r)
            assert len(first) == 8
            assert sum(1 for seg in first if seg == [H(0)]) == 2
            assert sum(1 for seg in first if seg == [H(1)]) == 6
        finally:
            sched.close()

    def test_fair_split_is_byte_identical_to_a_lone_run(self, reference_a):
        """A job split across many small fleet rounds produces the same
        circuit as a standalone run (acceptance: round composition
        never leaks into results)."""
        srv = OptimizationService(
            NamOracle(),
            workers=2,
            transport="threads",
            round_budget_segments=2,  # force many partial dispatches
        ).start()
        try:
            with ServiceClient(srv.address) as client:
                job = client.optimize(CIRCUIT_A, omega=OMEGA, priority=5)
        finally:
            srv.stop()
        assert job.circuit.gates == reference_a.circuit.gates
        assert job.stats["priority"] == 5


class TestStepMachine:
    def test_jobs_merged_once_stay_merged_until_one_finishes(self):
        """The dispatcher advances every job a fleet round answered
        before it takes the next one, so two jobs that shared a fleet
        round share every later one until the shorter job returns —
        even when one job's step between rounds is slow."""
        both_queued = threading.Event()
        fleet = RecordingFleet(first_round_gate=both_queued)
        sched = FleetScheduler(fleet, cache=None)
        oracle = NamOracle()

        def job(qubit, rounds):
            for _ in range(rounds):
                results = yield [[H(qubit)]] * 3
                assert results == [[H(qubit)]] * 3
                time.sleep(0.005 * qubit)  # job 1's substitution takes a while
            return qubit

        got = {}

        def submit(qubit, rounds):
            got[qubit] = sched.run(job(qubit, rounds), oracle)

        threads = [
            threading.Thread(target=submit, args=(0, 5)),
            threading.Thread(target=submit, args=(1, 9)),
        ]
        try:
            for t in threads:
                t.start()
            for _ in range(10000):
                if sched.pending_requests == 2:
                    break
                time.sleep(0.001)
            both_queued.set()
            for t in threads:
                t.join(timeout=30)
        finally:
            both_queued.set()
            sched.close()
        assert got == {0: 0, 1: 1}
        carried = [{seg[0].qubits[0] for seg in r} for r in fleet.rounds]
        assert [0 in jobs for jobs in carried].count(True) == 5
        assert [1 in jobs for jobs in carried].count(True) == 9
        first = carried.index({0, 1})
        last = max(i for i, jobs in enumerate(carried) if 0 in jobs)
        assert first < last
        assert carried[first : last + 1] == [{0, 1}] * (last + 1 - first)

    def test_many_jobs_under_fast_thread_switching(self):
        """More jobs than cores, a small fair-share budget and a tiny
        switch interval: every job gets exactly its own answers back,
        every round, and the queue drains (a lost re-queue hangs a job,
        a lost update mixes or drops answers)."""
        fleet = RecordingFleet()
        sched = FleetScheduler(fleet, cache=None, round_budget_segments=5)
        oracle = NamOracle()

        def job(qubit, rounds):
            for width in range(1, rounds + 1):
                segments = [[H(qubit)]] * (width % 4) + [[CNOT(qubit, qubit + 1)]]
                assert (yield segments) == segments
            return qubit

        got, errors = {}, []

        def submit(qubit):
            try:
                got[qubit] = sched.run(job(qubit, 6 + qubit), oracle, weight=qubit)
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        clients = [threading.Thread(target=submit, args=(q,)) for q in range(1, 9)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            sched.close()
        assert not any(client.is_alive() for client in clients)
        assert errors == [] and got == {q: q for q in range(1, 9)}
        assert sched.pending_requests == 0
        widths = sum(w % 4 + 1 for q in range(1, 9) for w in range(1, 7 + q))
        assert sched.segments_dispatched == widths == sum(map(len, fleet.rounds))


class TestStop:
    def test_stop_answers_held_jobs_and_does_not_wait_for_them(self, monkeypatch):
        """``stop()`` closes the scheduler before it joins the handler
        threads: three jobs held by a shut gate are each answered with a
        typed error, and ``stop()`` returns while the gate is still
        shut, not after one join timeout per held job."""
        monkeypatch.setattr(OptimizationService, "_JOIN_SECONDS", 60.0)
        gate = threading.Event()
        srv = OptimizationService(
            GatedOracle(gate), workers=2, transport="threads", cache=False
        ).start()
        outcomes = []

        def submit():
            try:
                with ServiceClient(srv.address, request_timeout=60.0) as client:
                    outcomes.append(client.optimize(Circuit([H(0), H(0)] * 8, 1), 8))
            except Exception as exc:  # noqa: BLE001 - asserted below
                outcomes.append(exc)

        clients = [threading.Thread(target=submit) for _ in range(3)]
        try:
            for client in clients:
                client.start()
            for _ in range(4000):
                if srv._scheduler.pending_requests == 3:
                    break
                time.sleep(0.005)
            assert srv._scheduler.pending_requests == 3
            stopper = threading.Thread(target=srv.stop)
            stopper.start()
            stopper.join(timeout=30)
            assert not stopper.is_alive()
            assert not gate.is_set()
            for client in clients:
                client.join(timeout=30)
            assert not any(client.is_alive() for client in clients)
        finally:
            gate.set()
            srv.stop()
        assert len(outcomes) == 3
        for outcome in outcomes:
            assert isinstance(outcome, ServiceError)
            assert "fleet scheduler closed" in str(outcome)


class TestAdmissionControl:
    @pytest.mark.parametrize(
        "bad", [{"max_active_jobs": 0}, {"max_jobs_per_peer": -1}]
    )
    def test_bounds_validated(self, bad):
        with pytest.raises(ValueError, match="positive"):
            OptimizationService(NamOracle(), workers=2, transport="threads", **bad)

    def _gated_service(self, gate, **limits):
        return OptimizationService(
            GatedOracle(gate),
            workers=2,
            transport="threads",
            cache=False,
            **limits,
        ).start()

    def _hold_one_job(self, srv, results):
        def hold():
            with ServiceClient(srv.address) as client:
                results["held"] = client.optimize(SMALL, omega=8)

        thread = threading.Thread(target=hold)
        thread.start()
        import time

        for _ in range(1000):
            if srv.jobs_active >= 1:
                break
            time.sleep(0.005)
        assert srv.jobs_active == 1
        return thread

    def test_global_quota_busy_then_retry_succeeds(self):
        from repro.service import ServiceBusyError

        gate = threading.Event()
        srv = self._gated_service(gate, max_active_jobs=1)
        results: dict = {}
        try:
            holder = self._hold_one_job(srv, results)
            # no retry budget: the refusal surfaces as a typed error
            impatient = ServiceClient(srv.address, busy_retries=0)
            try:
                with pytest.raises(ServiceBusyError, match="job slots"):
                    impatient.optimize(SMALL, omega=8)
                assert impatient.busy_rejections == 1
            finally:
                impatient.close()
            assert srv.jobs_rejected >= 1
            # a patient client rides its backoff through the busy spell
            def retry():
                with ServiceClient(
                    srv.address,
                    busy_retries=60,
                    busy_backoff_seconds=0.02,
                    busy_backoff_max_seconds=0.1,
                ) as client:
                    results["retried"] = client.optimize(SMALL, omega=8)

            retrier = threading.Thread(target=retry)
            retrier.start()
            import time

            time.sleep(0.05)
            gate.set()
            holder.join(timeout=60)
            retrier.join(timeout=60)
            assert results["held"].circuit.num_gates == 0
            assert results["retried"].circuit.num_gates == 0
        finally:
            gate.set()
            srv.stop()

    def test_peer_quota_busy(self):
        from repro.service import ServiceBusyError

        gate = threading.Event()
        srv = self._gated_service(gate, max_jobs_per_peer=1)
        results: dict = {}
        try:
            holder = self._hold_one_job(srv, results)
            second = ServiceClient(srv.address, busy_retries=0)
            try:
                with pytest.raises(ServiceBusyError, match="already has"):
                    second.optimize(SMALL, omega=8)
            finally:
                second.close()
            gate.set()
            holder.join(timeout=60)
        finally:
            gate.set()
            srv.stop()

    def test_queue_depth_busy(self):
        from repro.service import ServiceBusyError

        gate = threading.Event()
        srv = self._gated_service(gate, max_pending_rounds=1)
        results: dict = {}
        try:
            holder = self._hold_one_job(srv, results)
            second = ServiceClient(srv.address, busy_retries=0)
            try:
                with pytest.raises(ServiceBusyError, match="queue is at its cap"):
                    second.optimize(SMALL, omega=8)
            finally:
                second.close()
            gate.set()
            holder.join(timeout=60)
        finally:
            gate.set()
            srv.stop()

    def test_status_reports_admission_and_per_client_accounting(self):
        srv = OptimizationService(
            NamOracle(),
            workers=2,
            transport="threads",
            max_active_jobs=4,
        ).start()
        try:
            with ServiceClient(srv.address) as client:
                client.optimize(SMALL, omega=8)
                status = client.status()
        finally:
            srv.stop()
        assert status["admission"]["max_active_jobs"] == 4
        assert status["admission"]["jobs_rejected"] == 0
        assert status["admission"]["auth_required"] is False
        (peer,) = status["clients"].values()
        assert peer["jobs_completed"] == 1
        assert peer["connections"] >= 1
        assert peer["bytes_received"] > 0 and peer["bytes_sent"] > 0
        json.dumps(status)  # still one JSON-serializable object


class TestAdversarialClients:
    def test_garbage_job_payload_answered_with_typed_error(self, service):
        from repro.parallel.frames import FRAME_JOB

        client = ServiceClient(service.address)
        try:
            with pytest.raises(ServiceError):
                client.request(FRAME_JOB, b"\xff" * 64)
            client.ping()  # the connection survives
        finally:
            client.close()

    def test_mid_job_disconnect_leaks_nothing(self):
        """A client that vanishes mid-job: the slot is released, the
        socket is reaped, and no handler thread stays pinned."""
        import contextlib as ctx
        import time

        gate = threading.Event()
        srv = OptimizationService(
            GatedOracle(gate), workers=2, transport="threads", cache=False
        ).start()
        try:
            client = ServiceClient(srv.address, request_timeout=30.0)

            def run():
                with ctx.suppress(BaseException):
                    client.optimize(SMALL, omega=8)

            t = threading.Thread(target=run)
            t.start()
            for _ in range(1000):
                if srv.jobs_active >= 1:
                    break
                time.sleep(0.005)
            assert srv.jobs_active == 1
            client.close()  # vanish mid-job
            gate.set()
            t.join(timeout=30)
            for _ in range(1000):
                with srv._lock:
                    drained = srv.jobs_active == 0 and not srv._conns
                if drained:
                    break
                time.sleep(0.005)
            assert srv.jobs_active == 0
            assert srv._conns == []
        finally:
            gate.set()
            srv.stop()

    def test_a_peer_cannot_write_the_cache_a_job_reads(self, service):
        """Frame type 17 used to store caller-chosen bytes under a
        caller-chosen oracle namespace: one such frame naming a 6-gate
        circuit's only segment made the daemon answer that job with
        ``h(0)``, booked as a cache hit.  Now the frame is an unknown
        type and the job's bytes are the standalone run's."""
        import socket
        import struct

        from repro.circuits import RZ, X
        from repro.circuits.encoding import pack_segment
        from repro.parallel.frames import pack_frame, parse_address
        from repro.service import oracle_namespace

        gates = [H(0), CNOT(0, 1), RZ(1, 0.25), CNOT(1, 2), H(2), X(0)]
        segment = pack_segment(encode_segment(gates))
        poison = pack_segment(encode_segment([H(0)]))
        namespace = oracle_namespace(service.oracle)
        payload = b"".join(
            [
                struct.pack("<QQ", 1, len(namespace)),  # one entry
                namespace,
                segment,  # the key: this segment under that oracle
                struct.pack("<Q", len(poison)),
                poison,  # the value, padded to 8
                bytes(-len(poison) % 8),
            ]
        )
        address = parse_address(service.address)
        with socket.create_connection(address, timeout=5.0) as sock:
            sock.settimeout(5.0)
            sock.sendall(pack_frame(17, payload))
            assert sock.recv(1) == b""  # hung up on, not acknowledged
        assert service.cache.stats.stores == 0
        with ServiceClient(service.address) as client:
            result = client.optimize(Circuit(gates, 3), omega=8)
        assert result.stats["cache_hits"] == 0
        reference = popqc(Circuit(gates, 3), NamOracle(), 8)
        assert to_qasm(result.circuit) == to_qasm(reference.circuit)
        assert result.circuit.num_gates > 1

    def test_connection_churn_keeps_thread_list_bounded(self, service):
        import time

        for _ in range(25):
            with ServiceClient(service.address) as client:
                client.ping()
            time.sleep(0.005)  # let the handler notice the close
        # dead handlers are pruned under the lock as connections arrive,
        # so churn cannot grow the list toward the connection count
        assert len(service._conn_threads) < 10


class TestRetryAfterClamp:
    """BUSY ``retry_after`` comes off the wire — clamp before sleeping."""

    @pytest.mark.parametrize(
        "raw, expected",
        [
            (0.3, 0.3),
            (60.0, 60.0),
            (0.0, 0.0),
            (-5.0, 0.0),
            (float("inf"), 60.0),
            (1e9, 60.0),
            (float("nan"), 0.0),
        ],
    )
    def test_wire_values_land_in_the_sane_band(self, raw, expected):
        from repro.service.client import (
            MAX_RETRY_AFTER_SECONDS,
            _clamp_retry_after,
        )

        clamped = _clamp_retry_after(raw)
        assert clamped == expected
        assert 0.0 <= clamped <= MAX_RETRY_AFTER_SECONDS


class TestIntervalTimeSources:
    """Interval math must use the monotonic clock; ``time.time()`` is
    for wall-clock *timestamps* only (it jumps under NTP steps)."""

    @pytest.mark.parametrize("module", ["client"])
    def test_no_wall_clock_interval_math(self, module):
        import importlib
        import inspect

        source = inspect.getsource(
            importlib.import_module(f"repro.service.{module}")
        )
        assert source.count("time.time()") == 0
