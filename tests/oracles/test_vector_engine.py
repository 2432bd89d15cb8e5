"""Tests for the vectorized rule engine.

The vector engine applies the same rule set as the reference engine but
in whole-array sweeps, so its intermediate circuits differ while its
fixpoints must be (a) unitarily equivalent to the input and (b) locally
unimprovable by the reference engine's rules.  Both are property-tested
here, along with the packed-layout round trips the transports rely on.
"""

import math

import numpy as np
import pytest
from hypothesis import given

from repro.circuits import CNOT, RZ, Gate, H, X, decode_segment, encode_segment
from repro.oracles import NamOracle
from repro.oracles.vector_engine import (
    VECTOR_PASS_TABLE,
    VectorSegment,
    vector_cancellation_pass,
    vector_cnot_chain_pass,
    vector_hadamard_gadget_pass,
    vector_hadamard_reduction_pass,
    vector_remove_identities,
    vector_rotation_merge_pass,
)
from repro.oracles.rotation_merge import rotation_merge_pass
from repro.sim import segments_equivalent

from ..conftest import gate_list_strategy

ALL_PASSES = sorted(VECTOR_PASS_TABLE)


# -- VectorSegment round trips -------------------------------------------------


@given(gate_list_strategy(num_qubits=5, max_gates=40))
def test_from_gates_roundtrip(gates):
    vec = VectorSegment.from_gates(gates)
    assert vec is not None
    assert len(vec) == len(gates)
    assert vec.to_gates() == gates


@given(gate_list_strategy(num_qubits=5, max_gates=40))
def test_from_encoded_roundtrip(gates):
    vec = VectorSegment.from_encoded(encode_segment(gates))
    assert vec is not None
    assert vec.to_gates() == gates


@given(gate_list_strategy(num_qubits=5, max_gates=40))
def test_to_encoded_matches_encode_segment(gates):
    vec = VectorSegment.from_gates(gates)
    encoded = vec.to_encoded()
    assert decode_segment(encoded) == gates
    # byte-compatible with the canonical encoder (same wire format)
    assert encoded == encode_segment(gates)


def test_foreign_gates_rejected():
    assert VectorSegment.from_gates([Gate("toffoli", (0, 1, 2))]) is None
    assert VectorSegment.from_gates([H(0), Gate("swap", (0, 1))]) is None
    encoded = encode_segment([Gate("ccz", (0, 1, 2)), H(0)])
    assert VectorSegment.from_encoded(encoded) is None


def test_empty_segment():
    vec = VectorSegment.from_gates([])
    assert len(vec) == 0
    assert vec.to_gates() == []
    assert decode_segment(vec.to_encoded()) == []
    for name in ALL_PASSES:
        out, changed = VECTOR_PASS_TABLE[name](vec)
        assert len(out) == 0 and not changed


def test_fast_path_gates_are_real_gates():
    gates = [H(0), RZ(1, 0.5), CNOT(0, 1), X(2)]
    out = VectorSegment.from_gates(gates).to_gates()
    assert out == gates
    assert all(isinstance(g, Gate) for g in out)
    assert out[1].param == 0.5 and out[2].qubits == (0, 1)
    assert hash(out[0]) == hash(H(0))


# -- per-pass properties -------------------------------------------------------


@pytest.mark.parametrize("name", ALL_PASSES)
@given(gates=gate_list_strategy(num_qubits=4, max_gates=30))
def test_passes_preserve_unitary(name, gates):
    vec = VectorSegment.from_gates(gates)
    out, changed = VECTOR_PASS_TABLE[name](vec)
    out_gates = out.to_gates()
    assert segments_equivalent(gates, out_gates)
    if not changed:
        assert out_gates == gates


@pytest.mark.parametrize("name", ALL_PASSES)
@given(gates=gate_list_strategy(num_qubits=4, max_gates=30))
def test_passes_never_grow(name, gates):
    vec = VectorSegment.from_gates(gates)
    out, _ = VECTOR_PASS_TABLE[name](vec)
    assert len(out) <= len(gates)


def test_remove_identities_vectorized():
    gates = [RZ(0, 0.0), H(1), RZ(1, 0.0), X(0)]
    out, changed = vector_remove_identities(VectorSegment.from_gates(gates))
    assert changed and out.to_gates() == [H(1), X(0)]


def test_cancellation_collapses_runs():
    # parity cancellation across a whole run in one sweep
    gates = [H(0), H(0), H(0), X(1), X(1), CNOT(0, 1), CNOT(0, 1)]
    out, changed = vector_cancellation_pass(VectorSegment.from_gates(gates))
    assert changed and out.to_gates() == [H(0)]


def test_cancellation_merges_rz_through_cnot_controls():
    # the control-wire corridor: RZs merge across CNOT controls
    gates = [RZ(0, 0.5), CNOT(0, 1), RZ(0, 0.25)]
    out, changed = vector_cancellation_pass(VectorSegment.from_gates(gates))
    got = out.to_gates()
    assert changed
    assert got[0] == CNOT(0, 1)
    assert got[1].name == "rz" and math.isclose(got[1].param, 0.75)


def test_cancellation_blocked_by_target_collision():
    # an X on the control wire blocks the RZ corridor
    gates = [RZ(0, 0.5), X(0), RZ(0, 0.25)]
    out, changed = vector_cancellation_pass(VectorSegment.from_gates(gates))
    assert not changed and out.to_gates() == gates


def test_hadamard_reduction_triples():
    out, changed = vector_hadamard_reduction_pass(
        VectorSegment.from_gates([H(0), X(0), H(0)])
    )
    assert changed and out.to_gates() == [RZ(0, math.pi)]
    out, changed = vector_hadamard_reduction_pass(
        VectorSegment.from_gates([H(1), RZ(1, math.pi), H(1)])
    )
    assert changed and out.to_gates() == [X(1)]


def test_hadamard_reduction_overlap_resolved_left_to_right():
    # H X H X H: only the left triple fires in one sweep
    gates = [H(0), X(0), H(0), X(0), H(0)]
    out, changed = vector_hadamard_reduction_pass(VectorSegment.from_gates(gates))
    assert changed
    assert out.to_gates() == [RZ(0, math.pi), X(0), H(0)]


def test_hadamard_gadget_rule4_flips_cnot():
    gates = [H(0), H(1), CNOT(0, 1), H(0), H(1)]
    out, changed = vector_hadamard_gadget_pass(VectorSegment.from_gates(gates))
    assert changed and out.to_gates() == [CNOT(1, 0)]


def test_cnot_chain_reduces_three_to_two():
    gates = [CNOT(0, 1), CNOT(1, 2), CNOT(0, 1)]
    out, changed = vector_cnot_chain_pass(VectorSegment.from_gates(gates))
    got = out.to_gates()
    assert changed and len(got) == 2
    assert segments_equivalent(gates, got)


def test_rotation_merge_matches_reference_exactly():
    # same algorithm as the gate-list pass -> identical output
    rng = np.random.default_rng(3)
    for trial in range(20):
        gates = []
        for _ in range(40):
            k = rng.integers(0, 4)
            if k == 0:
                gates.append(H(int(rng.integers(0, 4))))
            elif k == 1:
                gates.append(X(int(rng.integers(0, 4))))
            elif k == 2:
                gates.append(RZ(int(rng.integers(0, 4)), float(rng.uniform(0, 6))))
            else:
                a, b = rng.choice(4, size=2, replace=False)
                gates.append(CNOT(int(a), int(b)))
        want, want_changed = rotation_merge_pass(list(gates))
        out, changed = vector_rotation_merge_pass(VectorSegment.from_gates(gates))
        assert out.to_gates() == want
        assert changed == want_changed


# -- the vector oracle ---------------------------------------------------------


@given(gates=gate_list_strategy(num_qubits=4, max_gates=30))
def test_vector_oracle_preserves_unitary(gates):
    out = NamOracle(engine="vector")(gates)
    assert segments_equivalent(gates, out)
    assert len(out) <= len(gates)


@given(gates=gate_list_strategy(num_qubits=4, max_gates=25))
def test_vector_fixpoint_unimprovable_by_reference_engine(gates):
    # a vector-engine fixpoint must also be a fixpoint of the reference
    # passes: the two engines implement the same rule set
    out = NamOracle(engine="vector")(gates)
    again = NamOracle(engine="python")(list(out))
    assert len(again) == len(out)


def test_vector_oracle_is_deterministic():
    from repro.circuits import random_redundant_circuit

    gates = list(random_redundant_circuit(6, 300, seed=5, redundancy=0.5).gates)
    oracle = NamOracle(engine="vector")
    assert oracle(gates) == oracle(list(gates))


def test_vector_oracle_falls_back_outside_base_set():
    swap = Gate("swap", (0, 1))
    gates = [H(0), H(0), swap, X(1), X(1)]
    out = NamOracle(engine="vector")(gates)
    # the python fallback leaves the foreign gate alone but cancels
    # around it exactly as the reference engine does
    assert out == NamOracle(engine="python")(gates)


def test_run_packed_matches_call():
    from repro.circuits import random_redundant_circuit

    gates = list(random_redundant_circuit(5, 200, seed=9, redundancy=0.6).gates)
    for engine in ("python", "vector"):
        oracle = NamOracle(engine=engine)
        packed = decode_segment(oracle.run_packed(encode_segment(gates)))
        assert packed == oracle(list(gates))


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="engine"):
        NamOracle(engine="fortran")


def test_engine_participates_in_equality():
    assert NamOracle(engine="vector") != NamOracle(engine="python")
    assert NamOracle(engine="vector") == NamOracle(engine="vector")
    assert hash(NamOracle(engine="vector")) != hash(NamOracle())


def test_vector_oracle_picklable():
    import pickle

    oracle = NamOracle(engine="vector")
    oracle([H(0), H(0)])  # warm the pipeline cache, then pickle
    clone = pickle.loads(pickle.dumps(oracle))
    assert clone == oracle
    assert clone([H(0), H(0), X(1)]) == [X(1)]


def test_vector_oracle_well_behaved():
    from repro.circuits import random_redundant_circuit
    from repro.oracles import check_well_behaved

    gates = list(random_redundant_circuit(5, 150, seed=2, redundancy=0.5).gates)
    assert check_well_behaved(NamOracle(engine="vector"), gates, seed=0) == []
