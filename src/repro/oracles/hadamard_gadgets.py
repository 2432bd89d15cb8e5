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
from typing import Optional

from ..circuits import Gate, RZ
from .rule_engine import WorkSegment, next_live, run_sweep

__all__ = ["sweep_hadamard_gadgets", "hadamard_gadget_pass"]

_HALF_PI = math.pi / 2
_NEG_HALF_PI = 3 * math.pi / 2  # normalized -pi/2


def _is_s(g: Gate) -> bool:
    return g.name == "rz" and abs(g.param - _HALF_PI) < 1e-9  # type: ignore[operator]


def _is_sdg(g: Gate) -> bool:
    return g.name == "rz" and abs(g.param - _NEG_HALF_PI) < 1e-9  # type: ignore[operator]


def sweep_hadamard_gadgets(seg: WorkSegment) -> bool:
    """One sweep of the four Hadamard-reduction rules."""
    arr, wires, pos0, pos1 = seg.indexed()
    changed = False
    for i, a in enumerate(arr):
        if a is None or a.name != "h":
            continue
        q = a.qubits[0]
        lst = wires[q]
        pj = next_live(arr, lst, pos0[i])
        if pj == len(lst):
            continue
        j = lst[pj]
        b = arr[j]

        # --- rule 4: H(a) H(b) CNOT(a,b) H(a) H(b) -> CNOT(b,a) --------
        if b.name == "cnot":
            changed |= _try_rule4(arr, wires, pos0, pos1, i, j, q)
            continue

        middle_is_s = _is_s(b)
        if not (middle_is_s or _is_sdg(b)):
            continue
        pk = next_live(arr, lst, pj)
        if pk == len(lst):
            continue
        c = arr[lst[pk]]

        # --- rule 3: H S CNOT Sdg H (target wire) -----------------------
        if c.name == "cnot":
            if c.qubits[1] == q:
                changed |= _try_rule3(arr, lst, i, j, pk, q, middle_is_s)
            continue

        # --- rules 1-2: H (S|Sdg) H -------------------------------------
        if c.name != "h":
            continue
        flip = _NEG_HALF_PI if middle_is_s else _HALF_PI
        arr[i] = RZ(q, flip)
        arr[j] = Gate("h", (q,))
        arr[lst[pk]] = RZ(q, flip)
        changed = True
    return changed


def hadamard_gadget_pass(gates: list[Gate]) -> tuple[list[Gate], bool]:
    """:func:`sweep_hadamard_gadgets` on a gate list."""
    return run_sweep(sweep_hadamard_gadgets, gates)


def _try_rule3(
    arr: list[Optional[Gate]],
    lst: list[int],
    i: int,
    j: int,
    pk: int,
    q: int,
    middle_is_s: bool,
) -> bool:
    """Match H . (S|Sdg) . CNOT(c,q) . (Sdg|S) . H on wire ``q``.

    ``i`` and ``j`` hold the H and the phase gate, position ``pk`` of
    the wire's list ``lst`` the CNOT targeting ``q``.
    """
    pm = next_live(arr, lst, pk)
    if pm == len(lst):
        return False
    d = arr[lst[pm]]
    if not (_is_sdg(d) if middle_is_s else _is_s(d)):
        return False
    pe = next_live(arr, lst, pm)
    if pe == len(lst) or arr[lst[pe]].name != "h":
        return False
    # H S CNOT Sdg H -> Sdg CNOT S   (and the mirrored variant)
    first = _NEG_HALF_PI if middle_is_s else _HALF_PI
    last = _HALF_PI if middle_is_s else _NEG_HALF_PI
    arr[i] = RZ(q, first)
    arr[j] = None
    arr[lst[pm]] = RZ(q, last)
    arr[lst[pe]] = None
    return True


def _try_rule4(
    arr: list[Optional[Gate]],
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
    a_w, b_w = arr[j].qubits  # type: ignore[union-attr]
    lst_a = wires[a_w]
    lst_b = wires[b_w]
    # the partner H must be the previous live gate on the other wire
    lst, p = (lst_b, pos1[j]) if h_q == a_w else (lst_a, pos0[j])
    p -= 1
    while p >= 0 and arr[lst[p]] is None:
        p -= 1
    if p < 0 or arr[lst[p]].name != "h":
        return False
    partner = lst[p]
    # and the next gate on each wire after the CNOT must be an H
    pa = next_live(arr, lst_a, pos0[j])
    pb = next_live(arr, lst_b, pos1[j])
    if pa == len(lst_a) or pb == len(lst_b):
        return False
    after_a = lst_a[pa]
    after_b = lst_b[pb]
    if arr[after_a].name != "h" or arr[after_b].name != "h":
        return False
    arr[i] = None
    arr[partner] = None
    arr[after_a] = None
    arr[after_b] = None
    # same wires, swapped roles: swap the slot's positions to match
    arr[j] = Gate("cnot", (b_w, a_w))
    pos0[j], pos1[j] = pos1[j], pos0[j]
    return True
