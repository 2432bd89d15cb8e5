"""Tests for the layered POPQC variant (Section 7.8)."""

import pytest
from hypothesis import given, strategies as st

from repro.circuits import RZ, Circuit, H, X, random_redundant_circuit
from repro.core import layered_popqc, mixed_cost, popqc
from repro.oracles import MixedCost, NamOracle, SearchOracle
from repro.sim import circuits_equivalent

from ..conftest import ANGLES

#: One-qubit circuits: every ASAP layer holds exactly one gate, so a
#: layer *is* a gate and the two drivers must coincide.
single_qubit_circuits = st.lists(
    st.one_of(
        st.just(H(0)),
        st.just(X(0)),
        st.sampled_from(ANGLES).map(lambda angle: RZ(0, angle)),
    ),
    max_size=60,
).map(lambda gates: Circuit(gates, 1))


class TestMixedCost:
    def test_empty(self):
        assert mixed_cost()([]) == 0.0

    def test_formula(self):
        gates = [H(0), X(1), H(0)]  # depth 2, 3 gates
        assert mixed_cost(10.0)(gates) == 10.0 * 2 + 3

    def test_custom_weight(self):
        gates = [H(0)]
        assert mixed_cost(5.0)(gates) == 5.0 + 1


class TestLayeredPopqc:
    def test_omega_validation(self):
        with pytest.raises(ValueError):
            layered_popqc(Circuit([H(0)]), NamOracle(), 0)

    def test_empty_circuit(self):
        res = layered_popqc(Circuit([], 2), NamOracle(), 4)
        assert res.circuit.num_gates == 0

    def test_equivalence_preserved(self):
        c = random_redundant_circuit(4, 80, seed=1)
        res = layered_popqc(c, NamOracle(), 4)
        assert circuits_equivalent(c, res.circuit)

    def test_reduces_gate_count_with_gate_cost(self):
        c = random_redundant_circuit(4, 100, seed=2, redundancy=0.7)
        res = layered_popqc(c, NamOracle(), 4, cost=lambda g: float(len(g)))
        assert res.circuit.num_gates < c.num_gates

    def test_mixed_cost_reduces_cost(self):
        c = random_redundant_circuit(4, 100, seed=3, redundancy=0.7)
        res = layered_popqc(c, NamOracle(), 4)
        assert res.stats.final_cost < res.stats.initial_cost

    def test_depth_aware_search_oracle(self):
        # A circuit whose depth shrinks by commuting independent gates:
        # serial chain of rotations on one wire interleaved with gates
        # on other wires forces depth unless reordered.
        c = random_redundant_circuit(5, 120, seed=4, redundancy=0.6)
        res = layered_popqc(c, SearchOracle(MixedCost(10.0)), 4)
        assert circuits_equivalent(c, res.circuit)
        assert mixed_cost(10.0)(list(res.circuit.gates)) <= mixed_cost(10.0)(
            list(c.gates)
        )

    def test_stats_populated(self):
        c = random_redundant_circuit(4, 60, seed=5)
        res = layered_popqc(c, NamOracle(), 4)
        assert res.stats.rounds >= 1
        assert res.stats.initial_gates == c.num_gates
        assert res.stats.final_gates == res.circuit.num_gates


class TestGranularityIsTheOnlyDifference:
    @given(single_qubit_circuits, st.integers(1, 8))
    def test_one_gate_layers_match_the_gate_driver(self, c, omega):
        layered = layered_popqc(c, NamOracle(), omega, cost=len)
        plain = popqc(c, NamOracle(), omega)
        assert layered.circuit.gates == plain.circuit.gates
        assert layered.stats.rounds == plain.stats.rounds
        assert layered.stats.oracle_calls == plain.stats.oracle_calls
        assert layered.stats.oracle_accepted == plain.stats.oracle_accepted
        assert [
            (r.fingers, r.selected, r.accepted) for r in layered.stats.per_round
        ] == [(r.fingers, r.selected, r.accepted) for r in plain.stats.per_round]
