"""Tests for the round-trace instrumentation."""

import pytest

from repro.circuits import Circuit, H, random_redundant_circuit
from repro.core import popqc, popqc_traced, render_trace
from repro.oracles import IdentityOracle, NamOracle
from repro.sim import circuits_equivalent


#: Circuits that cancel to empty: their last round finds fingers but
#: no live gate, and still counts (popqc's round count is the reference).
CANCEL_TO_EMPTY = [
    (Circuit([H(0)] * n, 1), omega) for n in (4, 10, 38) for omega in (1, 2, 4)
]


class TestTracedRun:
    def test_matches_untraced_result(self):
        cases = [(random_redundant_circuit(4, 200, seed=1, redundancy=0.6), 15)]
        for c, omega in cases + CANCEL_TO_EMPTY:
            traced, trace = popqc_traced(c, NamOracle(), omega)
            plain = popqc(c, NamOracle(), omega)
            where = f"{c.num_gates} gates, omega={omega}"
            assert traced.circuit.gates == plain.circuit.gates, where
            assert traced.stats.rounds == plain.stats.rounds, where
            assert traced.stats.oracle_calls == plain.stats.oracle_calls, where
            assert len(traced.stats.per_round) == len(plain.stats.per_round), where
            assert len(trace) == plain.stats.rounds, where

    def test_one_trace_entry_per_round(self):
        cases = [(random_redundant_circuit(4, 150, seed=2), 10)]
        for c, omega in cases + CANCEL_TO_EMPTY:
            res, trace = popqc_traced(c, NamOracle(), omega)
            where = f"{c.num_gates} gates, omega={omega}"
            assert len(trace) == res.stats.rounds == len(res.stats.per_round), where
            assert [rt.round_index for rt in trace] == list(
                range(1, res.stats.rounds + 1)
            ), where

    def test_live_counts_monotone(self):
        c = random_redundant_circuit(4, 200, seed=3, redundancy=0.7)
        _, trace = popqc_traced(c, NamOracle(), 10)
        for rt in trace:
            assert rt.live_after <= rt.live_before
        for a, b in zip(trace, trace[1:]):
            assert b.live_before == a.live_after

    def test_selected_subset_of_fingers(self):
        c = random_redundant_circuit(4, 200, seed=4)
        _, trace = popqc_traced(c, NamOracle(), 10)
        for rt in trace:
            assert set(rt.selected_ranks) <= set(rt.finger_ranks)

    def test_identity_oracle_accepts_nothing(self):
        c = Circuit([H(i % 3) for i in range(30)], 3)
        _, trace = popqc_traced(c, IdentityOracle(), 5)
        assert all(not rt.accepted_regions for rt in trace)

    def test_equivalence_preserved(self):
        c = random_redundant_circuit(4, 120, seed=5)
        res, _ = popqc_traced(c, NamOracle(), 10)
        assert circuits_equivalent(c, res.circuit)

    def test_omega_validation(self):
        with pytest.raises(ValueError):
            popqc_traced(Circuit([H(0)]), NamOracle(), 0)

    def test_max_rounds(self):
        c = random_redundant_circuit(4, 200, seed=6, redundancy=0.8)
        _, trace = popqc_traced(c, NamOracle(), 5, max_rounds=2)
        assert len(trace) == 2


class TestRenderer:
    def test_empty_trace(self):
        assert render_trace([]) == "(no rounds)"

    def test_band_width_respected(self):
        c = random_redundant_circuit(4, 150, seed=7, redundancy=0.7)
        _, trace = popqc_traced(c, NamOracle(), 10)
        text = render_trace(trace, width=40)
        body_lines = text.splitlines()[1:-1]
        assert body_lines
        for line in body_lines:
            band = line.split()[-1]
            assert len(band) <= 40

    def test_contains_markers(self):
        c = random_redundant_circuit(4, 200, seed=8, redundancy=0.7)
        _, trace = popqc_traced(c, NamOracle(), 10)
        text = render_trace(trace)
        assert "#" in text  # selected fingers
        assert "=" in text  # accepted regions
