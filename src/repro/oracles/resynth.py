"""Single-qubit run resynthesis (the paper's Section 8.2 technique).

Resynthesis-based optimizers compute the unitary of a small subcircuit
and re-decompose it into a minimal gate sequence.  Full KAK-style
resynthesis is exponential in width, but for *single-qubit runs* it is
exact and cheap: any U in U(2) factors (up to global phase) as

    U = RZ(a) . RX(theta) . RZ(c)        (ZXZ Euler angles)

and with ``RX(theta) = H RZ(theta) H`` in our gate set, every maximal
run of single-qubit gates on one wire collapses to **at most 5 gates**
(3 RZ + 2 H), fewer in the diagonal/antidiagonal special cases.  This
subsumes the pattern-based Hadamard identities numerically and is the
pass that handles the "many consecutive single-qubit gates" trait the
paper calls out for Sqrt (Section A.4).

Runs are located with per-wire adjacency (gates between run members
touch other wires only, so they commute with the whole run); a run is
replaced only when the resynthesized form is strictly shorter, keeping
the pass count-monotone.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ..circuits import Gate, H, RZ, X, is_zero_angle, normalize_angle
from ..circuits.gate import GATE_NAMES, gate_matrix
from .rule_engine import CNOT, DEAD, OPAQUE, WorkSegment, run_sweep

__all__ = ["synthesize_1q", "sweep_resynthesis", "resynthesis_pass"]

_ATOL = 1e-10


def synthesize_1q(matrix: np.ndarray, qubit: int) -> list[Gate]:
    """Minimal {H, RZ} circuit for a 2x2 unitary, up to global phase.

    Returns at most 5 gates; 0 for (phase times) identity, 1 for
    diagonal, 3 for anti-diagonal and X-conjugated-diagonal cases.
    """
    if matrix.shape != (2, 2):
        raise ValueError("synthesize_1q expects a 2x2 matrix")
    u = np.asarray(matrix, dtype=np.complex128)
    if not np.allclose(u @ u.conj().T, np.eye(2), atol=1e-8):
        raise ValueError("matrix is not unitary")

    abs00 = abs(u[0, 0])
    # -- diagonal: a single RZ ------------------------------------------------
    if abs(u[0, 1]) < _ATOL and abs(u[1, 0]) < _ATOL:
        theta = normalize_angle(cmath.phase(u[1, 1]) - cmath.phase(u[0, 0]))
        return [] if is_zero_angle(theta) else [RZ(qubit, theta)]
    # -- anti-diagonal: RZ then X (X . RZ(d) = [[0, e^{id}], [1, 0]]) ---------
    if abs00 < _ATOL and abs(u[1, 1]) < _ATOL:
        # U ∝ [[0, e^{ic}], [e^{ia}, 0]] = e^{ia} · X·RZ(c - a)
        delta = normalize_angle(cmath.phase(u[0, 1]) - cmath.phase(u[1, 0]))
        gates: list[Gate] = []
        if not is_zero_angle(delta):
            gates.append(RZ(qubit, delta))
        gates.append(X(qubit))
        return gates
    # -- generic ZXZ ----------------------------------------------------------
    # Normalize global phase so u00 is real positive.
    u = u * cmath.exp(-1j * cmath.phase(u[0, 0]))
    s = abs(u[1, 0])
    theta = 2.0 * math.atan2(s, u[0, 0].real)
    # M = [[cos, -i sin e^{ic}], [-i sin e^{ia}, cos e^{i(a+c)}]]
    a = normalize_angle(cmath.phase(u[1, 0]) + math.pi / 2.0)
    c = normalize_angle(cmath.phase(u[0, 1]) + math.pi / 2.0)
    gates = []
    if not is_zero_angle(c):
        gates.append(RZ(qubit, c))
    gates.append(H(qubit))
    gates.append(RZ(qubit, normalize_angle(theta)))
    gates.append(H(qubit))
    if not is_zero_angle(a):
        gates.append(RZ(qubit, a))
    return gates


def _run_matrix(op: list[int], ang: list[float], slots: list[int]) -> np.ndarray:
    """Product matrix of a single-wire run of base gates (circuit order)."""
    m = np.eye(2, dtype=np.complex128)
    for i in slots:
        name = GATE_NAMES[op[i]]
        m = gate_matrix(name, ang[i] if name == "rz" else None) @ m
    return m


def sweep_resynthesis(seg: WorkSegment) -> bool:
    """Collapse maximal per-wire-adjacent single-qubit runs.

    A run on wire ``q`` is a maximal set of consecutive (per-wire)
    single-qubit base gates on ``q`` (an opaque gate ends it, like a
    multi-qubit one); its product unitary is resynthesized and the
    replacement written over the run's slots (left-aligned, remaining
    slots dropped) when strictly shorter.
    """
    wires, _, _ = seg.indexed()
    op, ang, src = seg.op, seg.ang, seg.src
    changed = False
    for q, occ in wires.items():
        i = 0
        while i < len(occ):
            # collect a maximal run of live 1q base gates on this wire
            run_positions: list[int] = []
            j = i
            while j < len(occ):
                o = op[occ[j]]
                if o < 0:
                    j += 1
                    continue
                if o == CNOT or o >= OPAQUE:
                    break
                run_positions.append(occ[j])
                j += 1
            if len(run_positions) >= 2:
                replacement = synthesize_1q(_run_matrix(op, ang, run_positions), q)
                if len(replacement) < len(run_positions):
                    for k, pos in enumerate(run_positions):
                        if k < len(replacement):
                            g = replacement[k]
                            op[pos] = GATE_NAMES.index(g.name)
                            ang[pos], src[pos] = g.param or 0.0, -1
                        else:
                            op[pos] = DEAD
                    changed = True
            i = max(j, i + 1)
    return changed


def resynthesis_pass(gates: list[Gate]) -> tuple[list[Gate], bool]:
    """:func:`sweep_resynthesis` on a gate list."""
    return run_sweep(sweep_resynthesis, gates)
