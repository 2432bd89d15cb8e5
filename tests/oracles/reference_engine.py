"""The rule engine as it was over ``Gate`` objects: the reference the
column engine (``repro.oracles.rule_engine`` and siblings) must equal.

These are the ``WorkSegment`` and the sweeps of the commit before the
engine moved to per-slot columns, docstrings dropped, with the opaque-
gate rule of the column engine patched in at the three places marked
``opaque fix`` (an arity-0 gate sits on no wire; an opaque gate never
starts a cancellation walk; it ends a resynthesis run).  On base-set
segments the patches are no-ops, so there this *is* the old engine.
:class:`ReferenceOracle` drives the sweeps with ``NamOracle``'s
worklist.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional, Sequence

import numpy as np

from repro.circuits import RZ, Gate, normalize_angle
from repro.oracles.resynth import synthesize_1q
from repro.oracles.rules import hadamard_triple

_HALF_PI = math.pi / 2
_NEG_HALF_PI = 3 * math.pi / 2  # normalized -pi/2


class WorkSegment:
    __slots__ = ("arr", "_index")

    def __init__(self, gates: Sequence[Gate]):
        self.arr: list[Optional[Gate]] = list(gates)
        self._index: Optional[tuple[dict[int, list[int]], list[int], list[int]]] = None

    def indexed(
        self,
    ) -> tuple[list[Optional[Gate]], dict[int, list[int]], list[int], list[int]]:
        if self._index is None:
            arr = self.arr = self.gates()
            wires: dict[int, list[int]] = {}
            pos0: list[int] = []
            pos1: list[int] = []
            for i, g in enumerate(arr):
                qubits = g.qubits
                if not qubits:  # opaque fix: an arity-0 gate sits on no wire
                    pos0.append(-1)
                    pos1.append(-1)
                    continue
                lst = wires.get(qubits[0])
                if lst is None:
                    lst = wires[qubits[0]] = []
                pos0.append(len(lst))
                lst.append(i)
                if len(qubits) == 1:
                    pos1.append(-1)
                    continue
                lst = wires.get(qubits[1])
                if lst is None:
                    lst = wires[qubits[1]] = []
                pos1.append(len(lst))
                lst.append(i)
                for q in qubits[2:]:
                    wires.setdefault(q, []).append(i)
            self._index = (wires, pos0, pos1)
        return (self.arr, *self._index)

    def invalidate(self) -> None:
        self._index = None

    def gates(self) -> list[Gate]:
        return [g for g in self.arr if g is not None]


def next_live(arr: list[Optional[Gate]], lst: list[int], p: int) -> int:
    p += 1
    n = len(lst)
    while p < n and arr[lst[p]] is None:
        p += 1
    return p


def sweep_remove_identities(seg: WorkSegment) -> bool:
    arr = seg.arr
    changed = False
    for i, g in enumerate(arr):
        if g is not None and g.name == "rz" and g.param == 0.0:
            arr[i] = None
            changed = True
    return changed


def sweep_cancellation(seg: WorkSegment) -> bool:
    arr, wires, pos0, pos1 = seg.indexed()
    changed = False
    for i, g in enumerate(arr):
        if g is None:
            continue
        gname = g.name
        if gname not in ("h", "x", "rz", "cnot"):
            continue  # opaque fix: an opaque gate never starts a walk
        if gname == "rz" and g.param == 0.0:
            arr[i] = None
            changed = True
            continue
        if gname != "cnot":
            # --- single-qubit walk along the gate's wire -----------------
            q = g.qubits[0]
            lst = wires[q]
            p = pos0[i] + 1
            length = len(lst)
            while p < length:
                j = lst[p]
                h = arr[j]
                if h is None:
                    p += 1
                    continue
                hname = h.name
                if hname == gname and h.qubits == g.qubits:
                    # mergeable pair (hh/xx cancel, rz+rz merge)
                    if gname == "rz":
                        theta = normalize_angle(g.param + h.param)  # type: ignore[operator]
                        arr[j] = None if theta == 0.0 else Gate("rz", h.qubits, theta)
                    else:
                        arr[j] = None
                    arr[i] = None
                    changed = True
                    break
                if hname == "cnot":
                    hq = h.qubits
                    if (gname == "rz" and q == hq[0]) or (
                        gname == "x" and q == hq[1]
                    ):
                        p += 1
                        continue
                    break
                break  # overlapping 1q gate of a different kind blocks
        else:
            # --- two-qubit walk merging both wires' lists -----------------
            c0, t0 = g.qubits
            lst_c = wires[c0]
            lst_t = wires[t0]
            pc = pos0[i] + 1
            pt = pos1[i] + 1
            len_c = len(lst_c)
            len_t = len(lst_t)
            while True:
                while pc < len_c and arr[lst_c[pc]] is None:
                    pc += 1
                while pt < len_t and arr[lst_t[pt]] is None:
                    pt += 1
                if pc < len_c:
                    j = lst_c[pc] if pt >= len_t or lst_c[pc] <= lst_t[pt] else lst_t[pt]
                elif pt < len_t:
                    j = lst_t[pt]
                else:
                    break
                h = arr[j]
                if h.name == "cnot":
                    hc, ht = h.qubits
                    if hc == c0 and ht == t0:
                        arr[i] = None
                        arr[j] = None
                        changed = True
                        break
                    if hc == t0 or ht == c0:
                        break  # control/target collision blocks
                    # shares only a control and/or only a target: commutes
                else:
                    hq = h.qubits[0]
                    if not (
                        (h.name == "rz" and hq == c0)
                        or (h.name == "x" and hq == t0)
                    ):
                        break
                if pc < len_c and lst_c[pc] == j:
                    pc += 1
                if pt < len_t and lst_t[pt] == j:
                    pt += 1
    return changed


def sweep_hadamard_reduction(seg: WorkSegment) -> bool:
    arr, wires, pos0, _ = seg.indexed()
    changed = False
    for i, a in enumerate(arr):
        if a is None or a.name != "h":
            continue
        lst = wires[a.qubits[0]]
        pj = next_live(arr, lst, pos0[i])
        if pj == len(lst):
            continue
        b = arr[lst[pj]]
        if len(b.qubits) != 1:
            continue
        pk = next_live(arr, lst, pj)
        if pk == len(lst):
            continue
        replacement = hadamard_triple(a, b, arr[lst[pk]])
        if replacement is None:
            continue
        arr[i] = replacement[0]
        arr[lst[pj]] = None
        arr[lst[pk]] = None
        changed = True
    return changed


def sweep_cnot_chain(seg: WorkSegment) -> bool:
    changed = False
    while _cnot_chain_once(seg):
        changed = True
    return changed


def _cnot_chain_once(seg: WorkSegment) -> bool:
    arr, wires, pos0, pos1 = seg.indexed()
    end = len(arr)
    for i, a in enumerate(arr):
        if a is None or a.name != "cnot":
            continue
        p, q = a.qubits
        lst_p = wires[p]
        lst_q = wires[q]
        len_p = len(lst_p)
        len_q = len(lst_q)
        pp = next_live(arr, lst_p, pos0[i])
        pq = next_live(arr, lst_q, pos1[i])
        on_p = lst_p[pp] if pp < len_p else end
        on_q = lst_q[pq] if pq < len_q else end
        j = on_p if on_p < on_q else on_q
        if j == end:
            continue
        b = arr[j]
        if b.name != "cnot":
            continue
        bc, bt = b.qubits
        # k = first live gate after b on p, q or b's other wire r; b sits
        # on exactly one of a's wires, the other's next gate is known
        if bc == q and bt != p:
            r, pr = bt, pos1[j]
            pq = next_live(arr, lst_q, pq)
            on_q = lst_q[pq] if pq < len_q else end
        elif bt == p and bc != q:
            r, pr = bc, pos0[j]
            pp = next_live(arr, lst_p, pp)
            on_p = lst_p[pp] if pp < len_p else end
        else:
            continue
        lst_r = wires[r]
        pr = next_live(arr, lst_r, pr)
        k = min(on_p, on_q, lst_r[pr] if pr < len(lst_r) else end)
        if k == end:
            continue
        c = arr[k]
        if c.name != "cnot" or c.qubits != a.qubits:
            continue
        arr[i] = None
        arr[k] = Gate("cnot", (p, r) if bc == q else (r, q))
        seg.invalidate()
        return True
    return False


def _is_s(g: Gate) -> bool:
    return g.name == "rz" and abs(g.param - _HALF_PI) < 1e-9  # type: ignore[operator]


def _is_sdg(g: Gate) -> bool:
    return g.name == "rz" and abs(g.param - _NEG_HALF_PI) < 1e-9  # type: ignore[operator]


def sweep_hadamard_gadgets(seg: WorkSegment) -> bool:
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


def _try_rule3(
    arr: list[Optional[Gate]],
    lst: list[int],
    i: int,
    j: int,
    pk: int,
    q: int,
    middle_is_s: bool,
) -> bool:
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


def sweep_rotation_merge(seg: WorkSegment) -> bool:
    arr = seg.arr
    changed = False
    # wire -> affine function it carries: (linear bitmask << 1) | constant
    label: dict[int, int] = {}
    fresh = 2  # the next unused variable's bit
    # linear part -> (slot of the representative RZ, its affine function)
    pending: dict[int, tuple[int, int]] = {}
    # accumulated angle (in the representative's frame) per representative
    accum: dict[int, float] = {}

    for i, g in enumerate(arr):
        if g is None:
            continue
        name = g.name
        if name == "cnot":
            c, t = g.qubits
            fc = label.get(c)
            if fc is None:
                fc = label[c] = fresh
                fresh <<= 1
            ft = label.get(t)
            if ft is None:
                ft = fresh
                fresh <<= 1
            label[t] = ft ^ fc
        elif name == "x":
            q = g.qubits[0]
            f = label.get(q)
            if f is None:
                f = fresh
                fresh <<= 1
            label[q] = f ^ 1
        elif name == "rz":
            q = g.qubits[0]
            f = label.get(q)
            if f is None:
                f = label[q] = fresh
                fresh <<= 1
            entry = pending.get(f | 1)
            if entry is None:
                pending[f | 1] = (i, f)
                accum[i] = g.param
            else:
                rep, rep_f = entry
                delta = g.param if f == rep_f else -g.param
                accum[rep] = normalize_angle(accum[rep] + delta)
                arr[i] = None
                changed = True
        else:
            # Non-region gate (Hadamard): the wire leaves the region.
            for q in g.qubits:
                label[q] = fresh
                fresh <<= 1

    # angles are stored normalized, so the identity is exactly 0.0
    for i, theta in accum.items():
        if theta == 0.0:
            arr[i] = None
            changed = True
        elif theta != arr[i].param:
            arr[i] = Gate("rz", arr[i].qubits, theta)
    return changed


def _run_matrix(gates: list[Gate]) -> np.ndarray:
    m = np.eye(2, dtype=np.complex128)
    for g in gates:
        m = g.matrix() @ m
    return m


def sweep_resynthesis(seg: WorkSegment) -> bool:
    arr, wires, _, _ = seg.indexed()
    changed = False
    for q, occ in wires.items():
        i = 0
        while i < len(occ):
            # collect a maximal run of live 1q gates on this wire
            run_positions: list[int] = []
            j = i
            while j < len(occ):
                g = arr[occ[j]]
                if g is None:
                    j += 1
                    continue
                if g.arity != 1 or g.qubits[0] != q or g.name not in ("h", "x", "rz"):
                    break  # opaque fix: an opaque gate ends the run
                run_positions.append(occ[j])
                j += 1
            if len(run_positions) >= 2:
                run_gates = [arr[p] for p in run_positions]
                matrix = _run_matrix(run_gates)  # type: ignore[arg-type]
                replacement = synthesize_1q(matrix, q)
                if len(replacement) < len(run_positions):
                    for k, pos in enumerate(run_positions):
                        arr[pos] = (
                            replacement[k] if k < len(replacement) else None
                        )
                    changed = True
            i = max(j, i + 1)
    return changed


_PASSES = {
    "remove_identities": sweep_remove_identities,
    "cancellation": sweep_cancellation,
    "hadamard_reduction": sweep_hadamard_reduction,
    "hadamard_gadgets": sweep_hadamard_gadgets,
    "rotation_merge": sweep_rotation_merge,
    "resynthesis": sweep_resynthesis,
    "cnot_chain": sweep_cnot_chain,
}


class ReferenceOracle:
    """``NamOracle(passes, fixpoint=...)`` on the reference sweeps."""

    def __init__(self, passes: Sequence[str], fixpoint: bool = True):
        self.passes = tuple(passes)
        self.fixpoint = fixpoint

    def __call__(self, gates: Sequence[Gate]) -> list[Gate]:
        seg = WorkSegment(gates)
        steps = [partial(_PASSES[name], seg) for name in self.passes]
        if not self.fixpoint:
            for step in steps:
                step()
            return seg.gates()
        quiet = i = 0
        while quiet < len(steps):
            quiet = 0 if steps[i % len(steps)]() else quiet + 1
            i += 1
        return seg.gates()
