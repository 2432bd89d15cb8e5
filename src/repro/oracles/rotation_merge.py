"""Rotation merging via phase polynomials (Nam et al. Section 4.4).

Within {CNOT, X, RZ} regions a circuit's unitary factors into a linear
reversible part and a diagonal phase; every RZ contributes a phase
``theta * f(x)`` where ``f`` is an affine boolean function of the
region's input wires.  Two RZs whose affine functions coincide merge
into one rotation regardless of how far apart they sit or which wires
they touch.

This pass tracks, per wire, the affine function currently carried by
the wire:

* a fresh variable is introduced for every wire at the start and
  whenever a Hadamard (a non-region gate) acts on the wire;
* ``X(q)`` toggles the function's constant term;
* ``CNOT(c, t)`` xors the control's function into the target's;
* ``RZ(q, theta)`` applies the phase ``theta * f_q``; if an earlier
  rotation with the same linear part is pending, the angles merge
  (with a sign flip when the constant terms differ, dropping a global
  phase), otherwise the rotation becomes the pending representative of
  its function.

The affine functions are represented as arbitrary-precision bitmask
integers, so the cost of each step grows with the number of variables
seen — on whole circuits this is the genuinely superlinear pass of the
Nam pipeline (the paper: "these rules take quadratic time"), while
inside POPQC's 2Ω-segments the masks stay short and the pass is
effectively linear.  This asymmetry is precisely the efficiency gap
Tables 1/2 measure.

Soundness is property-tested against the statevector simulator in
``tests/oracles/test_rotation_merge.py``.
"""

from __future__ import annotations

from ..circuits import Gate, normalize_angle
from .rule_engine import CNOT, DEAD, OPAQUE, RZ, X, WorkSegment, run_sweep

__all__ = ["sweep_rotation_merge", "rotation_merge_pass"]


def sweep_rotation_merge(seg: WorkSegment) -> bool:
    """One sweep of phase-polynomial rotation merging.

    Merged-away rotations vanish; the representative takes the summed
    angle in place, or vanishes too when that cancels to zero.  Needs
    no wire index, and only deletes or re-angles rotations, so it keeps
    a built one valid.
    """
    op, q0, q1, ang, src = seg.op, seg.q0, seg.q1, seg.ang, seg.src
    changed = False
    # wire -> affine function it carries: (linear bitmask << 1) | constant
    label: dict[int, int] = {}
    fresh = 2  # the next unused variable's bit
    # linear part -> (slot of the representative RZ, its affine function)
    pending: dict[int, tuple[int, int]] = {}
    # accumulated angle (in the representative's frame) per representative
    accum: dict[int, float] = {}

    for i, o in enumerate(op):
        if o < 0:
            continue
        if o == CNOT:
            c, t = q0[i], q1[i]
            fc = label.get(c)
            if fc is None:
                fc = label[c] = fresh
                fresh <<= 1
            ft = label.get(t)
            if ft is None:
                ft = fresh
                fresh <<= 1
            label[t] = ft ^ fc
        elif o == X:
            q = q0[i]
            f = label.get(q)
            if f is None:
                f = fresh
                fresh <<= 1
            label[q] = f ^ 1
        elif o == RZ:
            q = q0[i]
            f = label.get(q)
            if f is None:
                f = label[q] = fresh
                fresh <<= 1
            entry = pending.get(f | 1)
            if entry is None:
                pending[f | 1] = (i, f)
                accum[i] = ang[i]
            else:
                rep, rep_f = entry
                delta = ang[i] if f == rep_f else -ang[i]
                accum[rep] = normalize_angle(accum[rep] + delta)
                op[i] = DEAD
                changed = True
        else:
            # Non-region gate (Hadamard, opaque): its wires leave the region.
            for q in seg.opaque[src[i]] if o >= OPAQUE else (q0[i],):
                label[q] = fresh
                fresh <<= 1

    # angles are stored normalized, so the identity is exactly 0.0
    for i, theta in accum.items():
        if theta == 0.0:
            op[i] = DEAD
            changed = True
        elif theta != ang[i]:
            ang[i], src[i] = theta, -1
    return changed


def rotation_merge_pass(gates: list[Gate]) -> tuple[list[Gate], bool]:
    """:func:`sweep_rotation_merge` on a gate list."""
    return run_sweep(sweep_rotation_merge, gates)
