"""Tests for the rewrite-engine passes.

Every pass is property-tested for unitary preservation, and the
wire-threaded cancellation scan is cross-checked against a naive
reference implementation that scans all gates with the generic
commutation predicate — pinning the hand-inlined hot loop to the
specification.
"""

import math
from typing import Optional

from hypothesis import given, strategies as st

from repro.circuits import CNOT, RZ, Gate, H, X, encode_segment
from repro.circuits.intern import GateTable
from repro.oracles import (
    NamOracle,
    cancellation_pass,
    cnot_chain_pass,
    commutes,
    hadamard_reduction_pass,
    remove_identities,
    try_merge,
)
from repro.oracles.hadamard_gadgets import sweep_hadamard_gadgets
from repro.oracles.resynth import sweep_resynthesis
from repro.oracles.rotation_merge import sweep_rotation_merge
from repro.oracles.rule_engine import (
    CNOT as CNOT_CODE,
    DEAD,
    H as H_CODE,
    WorkSegment,
    run_sweep,
    sweep_cancellation,
    sweep_cnot_chain,
    sweep_hadamard_reduction,
    sweep_remove_identities,
)
from repro.sim import segments_equivalent

from ..conftest import gate_list_strategy


def naive_cancellation_pass(gates: list[Gate]) -> tuple[list[Gate], bool]:
    """Reference implementation: full scans with the generic predicates."""
    arr: list[Optional[Gate]] = list(gates)
    changed = False
    for i in range(len(arr)):
        g = arr[i]
        if g is None:
            continue
        if g.is_identity:
            arr[i] = None
            changed = True
            continue
        for j in range(i + 1, len(arr)):
            h = arr[j]
            if h is None:
                continue
            if not g.overlaps(h):
                continue
            merged = try_merge(g, h)
            if merged is not None:
                arr[i] = None
                arr[j] = merged[0] if merged else None
                changed = True
                break
            if commutes(g, h):
                continue
            break
    return [g for g in arr if g is not None], changed


class TestRemoveIdentities:
    def test_drops_zero_rotations(self):
        out, changed = remove_identities([H(0), RZ(1, 0.0), X(0)])
        assert out == [H(0), X(0)] and changed

    def test_no_change(self):
        gates = [H(0), X(1)]
        out, changed = remove_identities(gates)
        assert out == gates and not changed


class TestCancellationExamples:
    def test_adjacent_hh(self):
        out, changed = cancellation_pass([H(0), H(0)])
        assert out == [] and changed

    def test_cancellation_through_commuting_spacer(self):
        # X(1) commutes with the pair on qubit 0
        out, _ = cancellation_pass([H(0), X(1), H(0)])
        assert out == [X(1)]

    def test_rz_merge_through_cnot_control(self):
        out, _ = cancellation_pass([RZ(0, 0.3), CNOT(0, 1), RZ(0, 0.4)])
        assert len(out) == 2
        rz = [g for g in out if g.name == "rz"][0]
        assert abs(rz.param - 0.7) < 1e-9

    def test_x_cancels_through_cnot_target(self):
        out, _ = cancellation_pass([X(1), CNOT(0, 1), X(1)])
        assert out == [CNOT(0, 1)]

    def test_blocked_by_h(self):
        gates = [X(0), H(0), X(0)]
        out, changed = cancellation_pass(gates)
        assert out == gates and not changed

    def test_rz_blocked_by_cnot_target(self):
        gates = [RZ(1, 0.5), CNOT(0, 1), RZ(1, 0.5)]
        out, changed = cancellation_pass(gates)
        assert out == gates and not changed

    def test_cnot_cancels_through_shared_control(self):
        out, _ = cancellation_pass([CNOT(0, 1), CNOT(0, 2), CNOT(0, 1)])
        assert out == [CNOT(0, 2)]

    def test_cnot_blocked_by_collision(self):
        gates = [CNOT(0, 1), CNOT(1, 2), CNOT(0, 1)]
        out, changed = cancellation_pass(gates)
        assert out == gates and not changed  # that's the chain pass's job

    def test_identity_rz_dropped(self):
        out, changed = cancellation_pass([RZ(0, 0.0), H(1)])
        assert out == [H(1)] and changed


class TestCancellationProperties:
    @given(gate_list_strategy(num_qubits=4, max_gates=25))
    def test_preserves_unitary(self, gates):
        out, _ = cancellation_pass(list(gates))
        assert segments_equivalent(gates, out)

    @given(gate_list_strategy(num_qubits=4, max_gates=25))
    def test_matches_naive_reference(self, gates):
        fast, fch = cancellation_pass(list(gates))
        slow, sch = naive_cancellation_pass(list(gates))
        assert fast == slow
        assert fch == sch

    @given(gate_list_strategy(num_qubits=4, max_gates=25))
    def test_never_grows(self, gates):
        out, _ = cancellation_pass(list(gates))
        assert len(out) <= len(gates)


class TestHadamardReduction:
    def test_hxh(self):
        out, changed = hadamard_reduction_pass([H(0), X(0), H(0)])
        assert out == [RZ(0, math.pi)] and changed

    def test_hzh(self):
        out, changed = hadamard_reduction_pass([H(0), RZ(0, math.pi), H(0)])
        assert out == [X(0)] and changed

    def test_with_spectator_gates_between(self):
        gates = [H(0), CNOT(1, 2), X(0), H(1), H(0)]
        out, changed = hadamard_reduction_pass(gates)
        assert changed
        assert RZ(0, math.pi) in out
        assert CNOT(1, 2) in out and H(1) in out

    def test_blocked_by_gate_on_same_wire(self):
        gates = [H(0), CNOT(0, 1), X(0), H(0)]
        out, changed = hadamard_reduction_pass(gates)
        assert not changed and out == gates

    @given(gate_list_strategy(num_qubits=4, max_gates=25))
    def test_preserves_unitary(self, gates):
        out, _ = hadamard_reduction_pass(list(gates))
        assert segments_equivalent(gates, out)


class TestCnotChain:
    def test_basic_chain(self):
        gates = [CNOT(0, 1), CNOT(1, 2), CNOT(0, 1)]
        out, changed = cnot_chain_pass(gates)
        assert changed and len(out) == 2
        assert segments_equivalent(gates, out)

    def test_chain_with_spectators(self):
        gates = [CNOT(0, 1), H(3), CNOT(1, 2), X(3), CNOT(0, 1)]
        out, changed = cnot_chain_pass(gates)
        assert changed
        assert segments_equivalent(gates, out)

    def test_no_false_positive(self):
        gates = [CNOT(0, 1), CNOT(0, 2), CNOT(0, 1)]
        out, changed = cnot_chain_pass(gates)
        assert not changed

    @given(gate_list_strategy(num_qubits=4, max_gates=20))
    def test_preserves_unitary(self, gates):
        out, _ = cnot_chain_pass(list(gates))
        assert segments_equivalent(gates, out)

    @given(gate_list_strategy(num_qubits=4, max_gates=20))
    def test_never_grows(self, gates):
        out, _ = cnot_chain_pass(list(gates))
        assert len(out) <= len(gates)


SWEEPS = [
    sweep_remove_identities,
    sweep_cancellation,
    sweep_hadamard_reduction,
    sweep_hadamard_gadgets,
    sweep_rotation_merge,
    sweep_resynthesis,
    sweep_cnot_chain,
]


#: The three ways a work segment is built: from gates, wire arrays, ids.
BUILDS = {
    "gates": WorkSegment.from_gates,
    "wire": lambda gates: WorkSegment.from_encoded(encode_segment(gates)),
    "ids": lambda gates: WorkSegment.from_ids(*_interned(gates)),
}


def _interned(gates):
    table = GateTable()
    return table.intern(gates), table


class TestSharedIndex:
    """A sweep handed a segment other sweeps already indexed, tombstoned
    and rewrote behaves exactly as on a fresh copy of its live gates —
    however the shared segment was built."""

    @given(
        gate_list_strategy(num_qubits=4, max_gates=30),
        st.lists(st.sampled_from(SWEEPS), min_size=1, max_size=6),
        st.sampled_from(sorted(BUILDS)),
    )
    def test_sweeps_on_one_segment_match_fresh_segments(self, gates, sweeps, build):
        shared = BUILDS[build](gates)
        shared.indexed()
        current = list(gates)
        for sweep in sweeps:
            current, changed = run_sweep(sweep, current)
            assert sweep(shared) == changed
            assert shared.gates() == current

    @given(
        gate_list_strategy(num_qubits=4, max_gates=30),
        st.sets(st.integers(0, 29)),
        st.sampled_from(SWEEPS),
    )
    def test_pre_existing_tombstones_are_invisible(self, gates, dead, sweep):
        seg = WorkSegment.from_gates(gates)
        seg.indexed()
        for i in dead:
            if i < len(seg.op):
                seg.op[i] = DEAD
        expected = run_sweep(sweep, seg.gates())
        assert (sweep(seg), seg.gates()) == (expected[1], expected[0])

    def test_chain_rewrite_then_cancellation_sees_the_new_wires(self):
        # The chain moves slot 2 from wires {0,1} to {0,2}.  An index
        # built before the rewrite does not list that slot on wire 2,
        # so a cancellation reusing it would walk CNOT(0,2) past H(2)
        # and cancel it against the last gate.
        oracle = NamOracle(["cnot_chain", "cancellation"], fixpoint=False)
        blocked = [CNOT(0, 1), CNOT(1, 2), CNOT(0, 1), H(2), CNOT(0, 2)]
        assert oracle(blocked) == [CNOT(1, 2), CNOT(0, 2), H(2), CNOT(0, 2)]
        # ...and it does cancel across the rewritten wires when it may
        free = [CNOT(0, 1), CNOT(1, 2), CNOT(0, 1), RZ(0, 0.3), CNOT(0, 2)]
        assert oracle(free) == [CNOT(1, 2), RZ(0, 0.3)]
        assert segments_equivalent(free, oracle(free))

    def test_chain_rewrite_invalidates_and_rebuild_compacts(self):
        seg = WorkSegment.from_gates([CNOT(0, 1), CNOT(1, 2), CNOT(0, 1), H(2)])
        before = seg.indexed()
        assert sweep_cnot_chain(seg)
        wires, pos0, pos1 = seg.indexed()
        assert wires is not before[0]
        assert seg.gates() == [CNOT(1, 2), CNOT(0, 2), H(2)]
        # compacted: three slots, the moved one marked as rewritten
        assert seg.op == [CNOT_CODE, CNOT_CODE, H_CODE]
        assert (seg.q0, seg.src) == ([1, 0, 2], [1, -1, 3])
        assert wires == {1: [0], 2: [0, 1, 2], 0: [1]}
        assert (pos0, pos1) == ([0, 0, 2], [0, 1, -1])
