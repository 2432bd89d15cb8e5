"""Tests for the POPQC driver (Algorithms 2-3, Theorems 4 and 7)."""

import pytest
from hypothesis import given, settings

from repro.circuits import CNOT, Circuit, H, X, random_redundant_circuit
from repro.core import (
    FenwickTree,
    assert_locally_optimal,
    oracle_call_bound,
    popqc,
)
from repro.oracles import GateCount, IdentityOracle, NamOracle
from repro.parallel import SerialMap, SimulatedParallelism
from repro.sim import circuits_equivalent

from ..conftest import circuit_strategy


class TestBasicBehaviour:
    def test_empty_circuit(self, nam_oracle):
        res = popqc(Circuit([], 3), nam_oracle, 4)
        assert res.circuit.num_gates == 0
        assert res.stats.rounds == 0

    def test_omega_validation(self, nam_oracle):
        with pytest.raises(ValueError):
            popqc(Circuit([H(0)]), nam_oracle, 0)

    def test_accepts_gate_sequence(self, nam_oracle):
        res = popqc([H(0), H(0)], nam_oracle, 4)
        assert res.circuit.num_gates == 0

    def test_preserves_num_qubits(self, nam_oracle):
        c = Circuit([H(0)], num_qubits=7)
        res = popqc(c, nam_oracle, 4)
        assert res.circuit.num_qubits == 7

    def test_cancelable_circuit_fully_optimized(self, nam_oracle, cancelable_circuit):
        res = popqc(cancelable_circuit, nam_oracle, 4)
        assert res.circuit.num_gates == 0
        assert res.stats.gate_reduction == 1.0

    def test_already_optimal_unchanged(self, nam_oracle, bell_circuit):
        res = popqc(bell_circuit, nam_oracle, 4)
        assert res.circuit.gates == bell_circuit.gates


class TestIdentityOracle:
    def test_terminates_without_changes(self):
        c = Circuit([H(0), X(1), CNOT(0, 1)] * 10, 2)
        res = popqc(c, IdentityOracle(), 4)
        assert res.circuit.gates == c.gates
        assert res.stats.oracle_accepted == 0

    def test_each_initial_finger_called_once(self):
        c = Circuit([H(i % 3) for i in range(20)], 3)
        res = popqc(c, IdentityOracle(), 5)
        # 4 initial fingers at 0, 5, 10, 15; identity oracle -> each
        # drops after exactly one call
        assert res.stats.oracle_calls == 4


class TestSemanticsPreservation:
    @given(circuit_strategy(num_qubits=4, max_gates=40))
    @settings(max_examples=25)
    def test_equivalence_random(self, c):
        res = popqc(c, NamOracle(), 5, check_invariants=True)
        assert circuits_equivalent(c, res.circuit)

    def test_equivalence_redundant(self):
        c = random_redundant_circuit(4, 120, seed=3)
        res = popqc(c, NamOracle(), 10, check_invariants=True)
        assert circuits_equivalent(c, res.circuit)
        assert res.circuit.num_gates < c.num_gates


class TestLocalOptimality:
    """Theorem 7: every omega-window of the output is oracle-optimal."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_redundant_circuits(self, seed):
        oracle = NamOracle()
        c = random_redundant_circuit(4, 150, seed=seed)
        res = popqc(c, oracle, 8, check_invariants=True)
        assert_locally_optimal(res.circuit, oracle, 8)

    def test_benchmark_instance(self):
        from repro.benchgen import grover

        oracle = NamOracle()
        c = grover(4, iterations=2, seed=0)
        res = popqc(c, oracle, 20)
        assert_locally_optimal(res.circuit, oracle, 20, stride=3)


class TestOracleCallBound:
    """Lemma 2: O(n) oracle calls via the potential |F| + 2|C|."""

    @pytest.mark.parametrize("seed,omega", [(0, 5), (1, 10), (2, 20)])
    def test_calls_within_potential_bound(self, seed, omega):
        c = random_redundant_circuit(4, 200, seed=seed)
        res = popqc(c, NamOracle(), omega)
        assert res.stats.oracle_calls <= oracle_call_bound(c.num_gates, omega)

    def test_bound_function(self):
        assert oracle_call_bound(0, 10) == 0
        assert oracle_call_bound(100, 10) == 10 + 200


class TestExecutorIndependence:
    """The result must not depend on the parmap implementation."""

    def test_serial_vs_simulated(self):
        c = random_redundant_circuit(4, 150, seed=5)
        oracle = NamOracle()
        serial, simulated = (
            popqc(c, oracle, 8, parmap=pmap).circuit.gates
            for pmap in (SerialMap(), SimulatedParallelism(8))
        )
        assert serial == simulated

    def test_deterministic_across_runs(self):
        c = random_redundant_circuit(4, 100, seed=9)
        oracle = NamOracle()
        a = popqc(c, oracle, 8).circuit.gates
        b = popqc(c, oracle, 8).circuit.gates
        assert a == b


class TestTreeFactoryParity:
    def test_fenwick_matches_index_tree(self):
        c = random_redundant_circuit(4, 150, seed=11)
        oracle = NamOracle()
        a = popqc(c, oracle, 8).circuit.gates
        b = popqc(c, oracle, 8, tree_factory=FenwickTree).circuit.gates
        assert a == b


class TestCostFunctions:
    def test_gate_count_cost_explicit(self):
        c = random_redundant_circuit(4, 80, seed=2)
        res = popqc(c, NamOracle(), 8, cost=GateCount())
        assert res.circuit.num_gates <= c.num_gates

    def test_stats_costs_recorded(self):
        c = random_redundant_circuit(4, 80, seed=2)
        res = popqc(c, NamOracle(), 8)
        assert res.stats.initial_cost == c.num_gates
        assert res.stats.final_cost == res.circuit.num_gates


class TestMaxRounds:
    def test_caps_rounds(self):
        c = random_redundant_circuit(4, 200, seed=4)
        res = popqc(c, NamOracle(), 4, max_rounds=2)
        assert res.stats.rounds == 2


class TestStatsAccounting:
    def test_round_stats_sum_to_totals(self):
        c = random_redundant_circuit(4, 150, seed=6)
        res = popqc(c, NamOracle(), 8)
        s = res.stats
        assert s.rounds == len(s.per_round)
        assert s.oracle_calls == sum(r.selected for r in s.per_round)
        assert s.oracle_accepted == sum(r.accepted for r in s.per_round)
        assert s.initial_gates == c.num_gates
        assert s.final_gates == res.circuit.num_gates
        assert 0 <= s.oracle_fraction <= 1

    def test_simulated_parallel_time(self):
        c = random_redundant_circuit(4, 150, seed=6)
        pmap = SimulatedParallelism(16)
        res = popqc(c, NamOracle(), 8, parmap=pmap)
        # parallel time must be positive and no more than total time
        assert 0 < res.stats.parallel_time <= res.stats.total_time * 1.05
        assert res.stats.self_speedup >= 1.0 or res.stats.rounds == 0


class TestGateReductionMetric:
    def test_monotone_improvement(self):
        c = random_redundant_circuit(4, 200, seed=8, redundancy=0.7)
        res = popqc(c, NamOracle(), 10)
        assert 0 < res.stats.gate_reduction < 1
