"""A run's memo: one oracle call per distinct segment of a ``popqc`` run.

A ``NamOracle`` declares ``deterministic = True``, so a run asks it once
per distinct segment — equal segments of one round are dispatched once,
a segment answered in an earlier round is answered from that result —
and nothing about the run may change but the number of invocations.
The counts here are pinned on a fixed instance, with a spy on the id
entry every ``SerialMap`` round calls.
"""

import pytest

from repro.benchgen import generate
from repro.circuits import Circuit, encoding, random_redundant_circuit
from repro.core import popqc
from repro.core.trace import popqc_traced
from repro.oracles import NamOracle
from repro.parallel import ProcessMap, SerialMap

CIRCUIT = generate("Grover", 1, seed=0)  # 5587 gates
OMEGA = 25


class CountingNam(NamOracle):
    """``NamOracle`` counting its invocations through the id entry."""

    calls = 0

    def run_ids(self, ids, table):
        type(self).calls += 1
        return super().run_ids(ids, table)


class UndeclaredNam(CountingNam):
    """The same oracle without the declaration: no memo."""

    deterministic = False


class GateListOracle:
    """A third-party oracle: ``__call__`` alone, no declaration."""

    def __init__(self):
        self.calls = 0

    def __call__(self, gates):
        self.calls += 1
        return NamOracle()(gates)


def _packed(result) -> bytes:
    return encoding.pack_segment(encoding.encode_segment(result.circuit.gates))


def _traced(oracle_class):
    oracle_class.calls = 0
    result, trace = popqc_traced(CIRCUIT, oracle_class(), OMEGA, parmap=SerialMap())
    return result, trace, oracle_class.calls


def test_memo_asks_once_per_distinct_segment():
    """306 segments examined in 9 rounds; 101 invocations with the
    declaration, 306 without it — and nothing else differs."""
    memo, memo_trace, memo_calls = _traced(CountingNam)
    plain, plain_trace, plain_calls = _traced(UndeclaredNam)
    assert (memo.stats.oracle_calls, memo.stats.rounds) == (306, 9)
    assert memo_calls == 101
    assert plain_calls == 306
    assert _packed(memo) == _packed(plain)
    assert memo.stats.rounds == plain.stats.rounds
    assert memo.stats.oracle_calls == plain.stats.oracle_calls
    assert memo.stats.oracle_accepted == plain.stats.oracle_accepted
    assert memo_trace == plain_trace


def test_memo_answers_count_as_cache_hits():
    """The memo's answers are cache (and memo) hits, what it passes on
    cache misses: ``oracle_calls_saved`` is the invocations saved."""
    CountingNam.calls = 0
    stats = popqc(CIRCUIT, CountingNam(), OMEGA).stats
    assert stats.cache_hits == stats.counters["cache_memo_hits"] == 205
    assert stats.cache_misses == CountingNam.calls == 101
    assert stats.cache_hits + stats.cache_misses == stats.oracle_calls
    assert stats.oracle_calls_saved == stats.oracle_calls - CountingNam.calls
    UndeclaredNam.calls = 0
    plain = popqc(CIRCUIT, UndeclaredNam(), OMEGA).stats
    assert plain.counters == {} and plain.oracle_calls_saved == 0


def test_an_undeclared_oracle_sees_every_segment():
    oracle = GateListOracle()
    got = popqc(CIRCUIT, oracle, OMEGA)
    assert oracle.calls == got.stats.oracle_calls == 306
    assert _packed(got) == _packed(popqc(CIRCUIT, NamOracle(), OMEGA))


def test_the_memo_dies_with_the_run():
    """A second run of the same circuit asks the oracle as often as the
    first: nothing is remembered across ``popqc`` calls."""
    CountingNam.calls = 0
    oracle = CountingNam()
    popqc(CIRCUIT, oracle, OMEGA)
    first = CountingNam.calls
    popqc(CIRCUIT, oracle, OMEGA)
    assert CountingNam.calls == 2 * first == 202


class ByValueNam(NamOracle):
    """The Nam rules without the id entry: pooled results come back
    packed, so each one read counts a decode."""

    run_ids = None


#: Two equal halves of a whole number of 2Ω windows: the first round's
#: segments repeat across the halves.
HALF = random_redundant_circuit(5, 400, seed=7, redundancy=0.5)
TWICE = Circuit(list(HALF.gates) * 2, HALF.num_qubits)


@pytest.mark.parametrize("transport", ["pickle", "encoded"])
def test_a_duplicate_in_a_round_keeps_the_accounting_exact(transport):
    """Equal segments of one round are dispatched once; every segment
    is still counted once as a hit or a miss, and each accepted one
    reads a result handle of its own."""
    oracle = NamOracle() if transport == "pickle" else ByValueNam()
    want = popqc(TWICE, NamOracle(), 20)
    pm = ProcessMap(2, serial_cutoff=0, transport=transport)
    run_round, dispatched = pm.wire.run_round, []

    def counted(oracle, segments):
        dispatched.append(len(segments))
        return run_round(oracle, segments)

    pm.wire.run_round = counted
    try:
        first = popqc(TWICE, oracle, 20, parmap=pm, max_rounds=1).stats
        assert first.cache_hits > 0  # an empty memo: the hits are in-round
        assert sum(dispatched) == first.cache_misses
        del dispatched[:]
        got = popqc(TWICE, oracle, 20, parmap=pm)
    finally:
        pm.close()
    stats = got.stats
    assert _packed(got) == _packed(want)
    assert (stats.rounds, stats.oracle_calls) == (want.stats.rounds, want.stats.oracle_calls)
    assert stats.cache_hits + stats.cache_misses == stats.oracle_calls
    assert sum(dispatched) == stats.cache_misses
    if transport == "pickle":  # gate lists come back: no bytes to decode
        assert stats.results_returned == stats.results_decoded == 0
    else:
        assert stats.results_decoded == stats.oracle_accepted > 0
