"""Tests for the Nam-style Hadamard gate reduction pass."""

import math

from hypothesis import given

from repro.circuits import CNOT, RZ, H, X
from repro.oracles import hadamard_gadget_pass
from repro.oracles.hadamard_gadgets import sweep_hadamard_gadgets
from repro.oracles.rule_engine import WorkSegment, sweep_cancellation
from repro.sim import segments_equivalent

from ..conftest import gate_list_strategy

S = lambda q: RZ(q, math.pi / 2)
SDG = lambda q: RZ(q, -math.pi / 2)


def h_count(gates) -> int:
    return sum(1 for g in gates if g.name == "h")


class TestRule12:
    def test_hsh(self):
        gates = [H(0), S(0), H(0)]
        out, changed = hadamard_gadget_pass(gates)
        assert changed
        assert h_count(out) == 1
        assert segments_equivalent(gates, out)

    def test_hsdgh(self):
        gates = [H(0), SDG(0), H(0)]
        out, changed = hadamard_gadget_pass(gates)
        assert changed
        assert h_count(out) == 1
        assert segments_equivalent(gates, out)

    def test_with_spectators(self):
        gates = [H(0), CNOT(1, 2), S(0), X(1), H(0)]
        out, changed = hadamard_gadget_pass(gates)
        assert changed
        assert segments_equivalent(gates, out)

    def test_non_clifford_angle_not_touched(self):
        gates = [H(0), RZ(0, 0.3), H(0)]
        out, changed = hadamard_gadget_pass(gates)
        assert not changed and out == gates


class TestRule3:
    def test_target_wire_sandwich(self):
        gates = [H(1), S(1), CNOT(0, 1), SDG(1), H(1)]
        out, changed = hadamard_gadget_pass(gates)
        assert changed
        assert len(out) == 3
        assert h_count(out) == 0
        assert segments_equivalent(gates, out)

    def test_mirrored_variant(self):
        gates = [H(1), SDG(1), CNOT(0, 1), S(1), H(1)]
        out, changed = hadamard_gadget_pass(gates)
        assert changed
        assert len(out) == 3
        assert segments_equivalent(gates, out)

    def test_control_wire_not_matched(self):
        # the identity holds on the target wire only
        gates = [H(0), S(0), CNOT(0, 1), SDG(0), H(0)]
        out, changed = hadamard_gadget_pass(gates)
        assert segments_equivalent(gates, out)

    def test_same_sign_phases_not_matched(self):
        gates = [H(1), S(1), CNOT(0, 1), S(1), H(1)]
        out, changed = hadamard_gadget_pass(gates)
        assert not changed


class TestRule4:
    def test_hh_cnot_hh(self):
        gates = [H(0), H(1), CNOT(0, 1), H(0), H(1)]
        out, changed = hadamard_gadget_pass(gates)
        assert changed
        assert out == [CNOT(1, 0)]
        assert segments_equivalent(gates, out)

    def test_with_spectators(self):
        gates = [H(0), X(3), H(1), CNOT(0, 1), RZ(3, 0.5), H(0), H(1)]
        out, changed = hadamard_gadget_pass(gates)
        assert changed
        assert CNOT(1, 0) in out
        assert segments_equivalent(gates, out)

    def test_missing_one_h_not_matched(self):
        gates = [H(0), H(1), CNOT(0, 1), H(0)]
        out, changed = hadamard_gadget_pass(gates)
        assert not changed

    def test_blocked_wire_not_matched(self):
        gates = [H(0), H(1), X(1), CNOT(0, 1), H(0), H(1)]
        out, changed = hadamard_gadget_pass(gates)
        assert not changed


class TestSharedIndex:
    def test_rule4_flip_keeps_the_index_valid(self):
        # CNOT(0,1) becomes CNOT(1,0) in its slot: same wires, so the
        # index survives, but the slot's per-qubit positions must swap
        # with the qubits or the next sweep walks the wrong lists (here
        # the flipped CNOT has to commute past RZ on its new control
        # and cancel with the trailing CNOT(1,0)).
        gates = [
            RZ(1, 0.3), X(1), H(0), H(1), CNOT(0, 1), H(0), H(1),
            RZ(1, 0.7), CNOT(1, 0),
        ]  # fmt: skip
        seg = WorkSegment.from_gates(gates)
        index = seg.indexed()
        assert sweep_hadamard_gadgets(seg)
        assert seg.gates() == [RZ(1, 0.3), X(1), CNOT(1, 0), RZ(1, 0.7), CNOT(1, 0)]
        assert seg.indexed()[0] is index[0]  # not rebuilt
        assert (seg.q0[4], seg.q1[4], seg.src[4]) == (1, 0, -1)  # flipped in place
        assert sweep_cancellation(seg)
        assert seg.gates() == [RZ(1, 0.3), X(1), RZ(1, 0.7)]
        assert segments_equivalent(gates, seg.gates())


class TestProperties:
    @given(gate_list_strategy(num_qubits=4, max_gates=30))
    def test_preserves_unitary(self, gates):
        out, _ = hadamard_gadget_pass(list(gates))
        assert segments_equivalent(gates, out)

    @given(gate_list_strategy(num_qubits=4, max_gates=30))
    def test_h_count_never_grows(self, gates):
        out, changed = hadamard_gadget_pass(list(gates))
        if changed:
            assert h_count(out) < h_count(gates)
        else:
            assert h_count(out) == h_count(gates)

    @given(gate_list_strategy(num_qubits=4, max_gates=30))
    def test_gate_count_never_grows(self, gates):
        out, _ = hadamard_gadget_pass(list(gates))
        assert len(out) <= len(gates)

    @given(gate_list_strategy(num_qubits=3, max_gates=25))
    def test_terminates_under_iteration(self, gates):
        # H-count strictly decreases on change, so iteration terminates
        current = list(gates)
        for _ in range(len(gates) + 2):
            current, changed = hadamard_gadget_pass(current)
            if not changed:
                break
        else:
            raise AssertionError("pass did not reach a fixpoint")
