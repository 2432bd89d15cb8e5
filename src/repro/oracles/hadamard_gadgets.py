"""Nam-style Hadamard gate reduction (Nam et al. Section 4.3).

Hadamards are the boundary markers of {CNOT, X, RZ} phase-polynomial
regions: every H ends a region on its wire, so *fewer Hadamards means
longer regions and more rotation merging*.  This pass applies the four
verified identities (tests: ``tests/oracles/test_hadamard_gadgets.py``)

1. ``H S H      -> Sdg H Sdg``                (count-neutral, -2 H)
2. ``H Sdg H    -> S H S``                    (count-neutral, -2 H)
3. ``H S CNOT Sdg H -> Sdg CNOT S``  (on the target wire; -2 gates)
4. ``H(a) H(b) CNOT(a,b) H(a) H(b) -> CNOT(b,a)``        (-4 gates)

with S = RZ(pi/2), all up to global phase.  Patterns are matched with
per-wire adjacency (intervening gates touch other wires only, hence
commute with the replaced single-wire gates), which is sound and cheap.

Termination measure for fixpoint composition: every application strictly
decreases the circuit's Hadamard count, so the pass cannot oscillate
even though rules 1-2 preserve total gate count.
"""

from __future__ import annotations

import math

from ..circuits import Gate
from .rule_engine import CNOT, DEAD, H, RZ, WorkSegment, next_live, run_sweep

__all__ = ["sweep_hadamard_gadgets", "hadamard_gadget_pass"]

_HALF_PI = math.pi / 2
_NEG_HALF_PI = 3 * math.pi / 2  # normalized -pi/2


def sweep_hadamard_gadgets(seg: WorkSegment) -> bool:
    """One sweep of the four Hadamard-reduction rules."""
    wires, pos0, pos1 = seg.indexed()
    op, q0, q1, ang, src = seg.op, seg.q0, seg.q1, seg.ang, seg.src
    changed = False
    for i, o in enumerate(op):
        if o != H:
            continue
        q = q0[i]
        lst = wires[q]
        pj = next_live(op, lst, pos0[i])
        if pj == len(lst):
            continue
        j = lst[pj]

        # --- rule 4: H(a) H(b) CNOT(a,b) H(a) H(b) -> CNOT(b,a) --------
        if op[j] == CNOT:
            changed |= _try_rule4(seg, wires, pos0, pos1, i, j, q)
            continue

        if op[j] != RZ:
            continue
        middle_is_s = abs(ang[j] - _HALF_PI) < 1e-9
        if not (middle_is_s or abs(ang[j] - _NEG_HALF_PI) < 1e-9):
            continue
        pk = next_live(op, lst, pj)
        if pk == len(lst):
            continue
        k = lst[pk]

        # --- rule 3: H S CNOT Sdg H (target wire) -----------------------
        if op[k] == CNOT:
            if q1[k] == q:
                changed |= _try_rule3(seg, lst, i, j, pk, middle_is_s)
            continue

        # --- rules 1-2: H (S|Sdg) H -------------------------------------
        if op[k] != H:
            continue
        flip = _NEG_HALF_PI if middle_is_s else _HALF_PI
        op[i], ang[i], src[i] = RZ, flip, -1
        op[j], ang[j], src[j] = H, 0.0, -1
        op[k], ang[k], src[k] = RZ, flip, -1
        changed = True
    return changed


def hadamard_gadget_pass(gates: list[Gate]) -> tuple[list[Gate], bool]:
    """:func:`sweep_hadamard_gadgets` on a gate list."""
    return run_sweep(sweep_hadamard_gadgets, gates)


def _try_rule3(
    seg: WorkSegment,
    lst: list[int],
    i: int,
    j: int,
    pk: int,
    middle_is_s: bool,
) -> bool:
    """Match H . (S|Sdg) . CNOT(c,q) . (Sdg|S) . H on wire ``q``.

    ``i`` and ``j`` hold the H and the phase gate, position ``pk`` of
    the wire's list ``lst`` the CNOT targeting ``q``.
    """
    op, ang, src = seg.op, seg.ang, seg.src
    pm = next_live(op, lst, pk)
    if pm == len(lst):
        return False
    m, phase = lst[pm], _NEG_HALF_PI if middle_is_s else _HALF_PI
    if op[m] != RZ or not abs(ang[m] - phase) < 1e-9:
        return False
    pe = next_live(op, lst, pm)
    if pe == len(lst) or op[lst[pe]] != H:
        return False
    # H S CNOT Sdg H -> Sdg CNOT S   (and the mirrored variant)
    op[i], ang[i], src[i] = RZ, phase, -1
    op[j] = DEAD
    ang[m], src[m] = _HALF_PI if middle_is_s else _NEG_HALF_PI, -1
    op[lst[pe]] = DEAD
    return True


def _try_rule4(
    seg: WorkSegment,
    wires: dict[int, list[int]],
    pos0: list[int],
    pos1: list[int],
    i: int,
    j: int,
    h_q: int,
) -> bool:
    """Match the HH-CNOT-HH sandwich around the CNOT at ``j``.

    ``i`` holds an H on ``h_q``, one of the CNOT's wires, directly
    before it; require the H on the other wire immediately before the
    CNOT (per-wire), and H's on both wires immediately after.
    """
    op, q0, q1 = seg.op, seg.q0, seg.q1
    a_w, b_w = q0[j], q1[j]
    lst_a = wires[a_w]
    lst_b = wires[b_w]
    # the partner H must be the previous live gate on the other wire
    lst, p = (lst_b, pos1[j]) if h_q == a_w else (lst_a, pos0[j])
    p -= 1
    while p >= 0 and op[lst[p]] < 0:
        p -= 1
    if p < 0 or op[lst[p]] != H:
        return False
    partner = lst[p]
    # and the next gate on each wire after the CNOT must be an H
    pa = next_live(op, lst_a, pos0[j])
    pb = next_live(op, lst_b, pos1[j])
    if pa == len(lst_a) or pb == len(lst_b):
        return False
    after_a = lst_a[pa]
    after_b = lst_b[pb]
    if op[after_a] != H or op[after_b] != H:
        return False
    op[i] = DEAD
    op[partner] = DEAD
    op[after_a] = DEAD
    op[after_b] = DEAD
    # same wires, swapped roles: swap the slot's positions to match
    q0[j], q1[j], seg.src[j] = b_w, a_w, -1
    pos0[j], pos1[j] = pos1[j], pos0[j]
    return True
