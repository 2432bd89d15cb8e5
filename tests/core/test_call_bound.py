"""The paper's oracle-call bound, as an exact counter invariant.

Every oracle call spends one selected finger, and the fingers are the
``initial_fingers(n, Ω)`` plus at most two per accepted rewrite (Lemma
6's boundary fingers), so ``oracle_calls <= F0 + 2 * oracle_accepted``.
Under gate-count cost every accepted rewrite removes a gate, so
``oracle_accepted <= n - n_final`` and the calls are O(n).
``oracle_calls`` counts selected segments, memo answers included, so
both hold with the run's memo on and off.  Counters only: no clock.
"""

import sys

import pytest

from repro.benchgen import family_names, generate
from repro.circuits import layers_asap
from repro.core import layered_popqc, popqc
from repro.core.fingers import initial_fingers
from repro.core.popqc import _assert_call_bound
from repro.core.stats import OptimizationStats
from repro.oracles import NamOracle


class UndeclaredNam(NamOracle):
    """The same oracle without the ``deterministic`` declaration: no memo."""

    deterministic = False


@pytest.mark.parametrize("omega", [25, 100])
@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("family", family_names())
def test_calls_are_bounded_by_fingers_and_accepted_rewrites(family, index, omega):
    circuit = generate(family, index, seed=0)
    n = len(circuit.gates)
    first = len(initial_fingers(n, omega))
    runs = {
        memo: popqc(circuit, oracle, omega, check_invariants=True).stats
        for memo, oracle in (("on", NamOracle()), ("off", UndeclaredNam()))
    }
    for memo, stats in runs.items():
        assert stats.oracle_calls <= first + 2 * stats.oracle_accepted, memo
        assert stats.oracle_accepted <= n - stats.final_gates, memo
    on, off = runs["on"], runs["off"]
    assert "cache_memo_hits" in on.counters and "cache_memo_hits" not in off.counters
    assert (on.oracle_calls, on.oracle_accepted) == (off.oracle_calls, off.oracle_accepted)


@pytest.mark.parametrize("family", ["Grover", "HHL", "VQE"])
def test_layered_calls_are_bounded_by_fingers(family):
    """Layer granularity: Ω counts layers, and the mixed cost is not gate
    count, so only the finger half of the bound applies."""
    circuit = generate(family, 0, seed=0)
    layers = len(layers_asap(circuit.gates, circuit.num_qubits))
    for omega in (8, 25):
        stats = layered_popqc(circuit, NamOracle(), omega).stats
        assert 0 < stats.oracle_calls
        assert stats.oracle_calls <= len(initial_fingers(layers, omega)) + 2 * (
            stats.oracle_accepted
        )


def _stats(calls, accepted, initial_gates, final_gates):
    return OptimizationStats(
        initial_gates=initial_gates,
        final_gates=final_gates,
        oracle_calls=calls,
        oracle_accepted=accepted,
    )


def test_the_invariant_check_names_the_half_that_fails():
    _assert_call_bound(_stats(10, 2, 100, 98), 6, gate_count=True)  # at both bounds
    with pytest.raises(AssertionError, match="11 oracle calls exceed 6 initial"):
        _assert_call_bound(_stats(11, 2, 100, 90), 6, gate_count=True)
    with pytest.raises(AssertionError, match="3 accepted rewrites removed only 2"):
        _assert_call_bound(_stats(10, 3, 100, 98), 6, gate_count=True)
    _assert_call_bound(_stats(10, 3, 100, 98), 6, gate_count=False)  # not gate count


def test_check_invariants_asserts_the_bound_at_the_end_of_a_run(monkeypatch):
    seen = []
    driver = sys.modules["repro.core.popqc"]  # the package exports a function of that name
    monkeypatch.setattr(driver, "_assert_call_bound", lambda *a: seen.append(a))
    circuit = generate("Grover", 0, seed=0)
    popqc(circuit, NamOracle(), 25)
    assert seen == []
    result = popqc(circuit, NamOracle(), 25, check_invariants=True)
    first = len(initial_fingers(len(circuit.gates), 25))
    assert seen == [(result.stats, first, True)]
    popqc(circuit, NamOracle(), 25, cost=len, check_invariants=True)
    assert seen[-1][1:] == (first, False)
