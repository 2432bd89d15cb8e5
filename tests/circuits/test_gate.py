"""Unit tests for the gate model."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.circuits import (
    ANGLE_TOL,
    CNOT,
    RZ,
    Gate,
    H,
    X,
    gate_matrix,
    gates_qubit_span,
    is_zero_angle,
    normalize_angle,
)


class TestConstructors:
    def test_h(self):
        g = H(3)
        assert g.name == "h" and g.qubits == (3,) and g.param is None

    def test_x(self):
        g = X(0)
        assert g.name == "x" and g.qubits == (0,)

    def test_cnot_order(self):
        g = CNOT(2, 5)
        assert g.qubits == (2, 5)

    def test_rz_normalizes_angle(self):
        g = RZ(0, 2 * math.pi + 0.5)
        assert g.param == pytest.approx(0.5)

    def test_rz_negative_angle_wraps(self):
        g = RZ(0, -math.pi / 2)
        assert g.param == pytest.approx(3 * math.pi / 2)

    def test_rz_requires_param(self):
        with pytest.raises(ValueError):
            Gate("rz", (0,))

    def test_non_rz_rejects_param(self):
        with pytest.raises(ValueError):
            Gate("h", (0,), 0.5)

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            Gate("cnot", (1, 1))

    @pytest.mark.parametrize(
        "name,qubits,param",
        [
            ("h", (0, 1), None),
            ("h", (), None),
            ("x", (0, 1, 2), None),
            ("rz", (0, 1), 0.5),
            ("cnot", (0,), None),
            ("cnot", (0, 1, 2), None),
        ],
    )
    def test_base_set_name_with_the_wrong_arity_rejected(self, name, qubits, param):
        with pytest.raises(ValueError, match="acts on"):
            Gate(name, qubits, param)

    def test_any_arity_for_an_opaque_name(self):
        for qubits in [(), (0,), (0, 1), (2, 0, 1)]:
            assert Gate("foo", qubits).arity == len(qubits)


class TestProperties:
    def test_arity(self):
        assert H(0).arity == 1
        assert CNOT(0, 1).arity == 2

    def test_is_identity_only_for_zero_rz(self):
        assert RZ(0, 0.0).is_identity
        assert RZ(0, 2 * math.pi).is_identity
        assert not RZ(0, 0.1).is_identity
        assert not H(0).is_identity
        assert not X(0).is_identity

    def test_on_relabels(self):
        assert CNOT(0, 1).on(4, 7) == CNOT(4, 7)
        assert RZ(0, 0.5).on(2) == RZ(2, 0.5)

    def test_touches(self):
        g = CNOT(1, 3)
        assert g.touches(1) and g.touches(3) and not g.touches(2)

    def test_overlaps(self):
        assert CNOT(0, 1).overlaps(H(1))
        assert not CNOT(0, 1).overlaps(H(2))
        assert X(4).overlaps(X(4))

    def test_equality_and_hash(self):
        assert H(0) == H(0)
        assert hash(RZ(1, 0.5)) == hash(RZ(1, 0.5))
        assert H(0) != X(0)
        assert CNOT(0, 1) != CNOT(1, 0)


class TestInverse:
    def test_self_inverse_gates(self):
        for g in (H(0), X(1), CNOT(0, 2)):
            assert g.inverse() == g

    def test_rz_inverse_negates(self):
        g = RZ(0, 0.7)
        inv = g.inverse()
        assert inv.param == pytest.approx(normalize_angle(-0.7))

    @given(st.sampled_from([0.3, 1.0, math.pi / 4, math.pi]))
    def test_inverse_matrix_is_adjoint(self, theta):
        g = RZ(0, theta)
        assert np.allclose(g.inverse().matrix(), g.matrix().conj().T)


class TestMatrices:
    def test_h_matrix_unitary(self):
        m = H(0).matrix()
        assert np.allclose(m @ m.conj().T, np.eye(2))

    def test_x_matrix(self):
        assert np.allclose(X(0).matrix(), [[0, 1], [1, 0]])

    def test_rz_convention(self):
        # RZ(pi) == Z, RZ(pi/2) == S, RZ(pi/4) == T (exactly, no phase)
        assert np.allclose(RZ(0, math.pi).matrix(), np.diag([1, -1]))
        assert np.allclose(RZ(0, math.pi / 2).matrix(), np.diag([1, 1j]))
        t = np.exp(1j * math.pi / 4)
        assert np.allclose(RZ(0, math.pi / 4).matrix(), np.diag([1, t]))

    def test_cnot_matrix_control_msb(self):
        m = CNOT(0, 1).matrix()
        expected = np.eye(4)[[0, 1, 3, 2]]
        assert np.allclose(m, expected)

    def test_gate_matrix_unknown_name(self):
        with pytest.raises(ValueError):
            gate_matrix("cz")

    def test_gate_matrix_rz_needs_param(self):
        with pytest.raises(ValueError):
            gate_matrix("rz")


class TestAngleHelpers:
    def test_normalize_angle_range(self):
        for theta in (-10.0, -1.0, 0.0, 1.0, 7.0, 100.0):
            n = normalize_angle(theta)
            assert 0.0 <= n < 2 * math.pi

    def test_normalize_angle_near_two_pi_snaps_to_zero(self):
        assert normalize_angle(2 * math.pi - ANGLE_TOL / 2) == 0.0
        assert normalize_angle(ANGLE_TOL / 2) == 0.0

    def test_is_zero_angle(self):
        assert is_zero_angle(0.0)
        assert is_zero_angle(4 * math.pi)
        assert not is_zero_angle(0.01)

    @given(st.floats(-50, 50, allow_nan=False))
    def test_normalize_angle_preserves_rotation(self, theta):
        n = normalize_angle(theta)
        assert abs(np.exp(1j * n) - np.exp(1j * theta)) < 1e-6


class TestSpan:
    def test_empty(self):
        assert gates_qubit_span([]) == 0

    def test_single(self):
        assert gates_qubit_span([H(4)]) == 5

    def test_mixed(self):
        assert gates_qubit_span([CNOT(0, 7), H(2)]) == 8
