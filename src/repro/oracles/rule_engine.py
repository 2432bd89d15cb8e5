"""Nam-style rewrite engine: one work segment, one wire index, in-place sweeps.

The routines of Nam et al. (2018) — the rule set VOQC verifies — on
{H, X, CNOT, RZ}.  An oracle call builds one :class:`WorkSegment` (gate
slots with ``None`` tombstones plus a lazily built per-wire index) and
threads it through *sweeps* that rewrite it in place and report whether
they changed anything:

* :func:`sweep_cancellation` — each gate walks rightward past commuting
  gates looking for a partner it cancels or merges with.
* :func:`sweep_hadamard_reduction` — per-wire ``H X H -> RZ(pi)`` and
  ``H RZ(pi) H -> X`` triples.
* :func:`sweep_cnot_chain` — ``CNOT(p,q) CNOT(q,r) CNOT(p,q) ->
  CNOT(q,r) CNOT(p,r)`` and its shared-target mirror.
* the gadget, rotation-merge and resynthesis sweeps of the sibling
  modules, on the same segment.

Deleting a gate or replacing it by one on the same wires keeps the
index valid, so sweeps share it; the one rewrite that moves a gate to
other wires (the CNOT chain) invalidates it.  A sweep's outcome depends
only on the live gates in order, never on the tombstones between them.
``*_pass(gates) -> (gates, changed)`` runs one sweep on a fresh
segment; :mod:`repro.oracles.nam` composes pipelines and fixpoints.
Scans are wire-threaded (a gate only visits later gates sharing a
qubit), so the worst case stays Nam et al.'s O(L^2), L = 2Ω in POPQC.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..circuits import Gate, normalize_angle
from .rules import hadamard_triple

__all__ = [
    "WorkSegment",
    "Sweep",
    "run_sweep",
    "next_live",
    "sweep_remove_identities",
    "sweep_cancellation",
    "sweep_hadamard_reduction",
    "sweep_cnot_chain",
    "remove_identities",
    "cancellation_pass",
    "hadamard_reduction_pass",
    "cnot_chain_pass",
]


class WorkSegment:
    """The state of one oracle call: gate slots and their wire index.

    ``arr`` holds the gates, ``None`` where a sweep deleted one.  The
    index gives, per qubit, the ordered slots touching it (``wires``)
    and each slot's position in the list of its gate's first / second
    qubit (``pos0`` / ``pos1``, ``-1`` where absent).  It stays valid
    while slots are only tombstoned or overwritten by a gate on the
    same qubits in the same order; a sweep that does anything else
    calls :meth:`invalidate` (or repairs the entry, as the gadget
    sweep's CNOT flip does).
    """

    __slots__ = ("arr", "_index")

    def __init__(self, gates: Sequence[Gate]):
        self.arr: list[Optional[Gate]] = list(gates)
        self._index: Optional[tuple[dict[int, list[int]], list[int], list[int]]] = None

    def indexed(
        self,
    ) -> tuple[list[Optional[Gate]], dict[int, list[int]], list[int], list[int]]:
        """``(arr, wires, pos0, pos1)``, compacting and indexing if stale."""
        if self._index is None:
            arr = self.arr = self.gates()
            wires: dict[int, list[int]] = {}
            pos0: list[int] = []
            pos1: list[int] = []
            for i, g in enumerate(arr):
                qubits = g.qubits
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
        """Drop the index after a rewrite that changed a slot's qubits."""
        self._index = None

    def gates(self) -> list[Gate]:
        """The live gates, in order."""
        return [g for g in self.arr if g is not None]


#: An in-place rewrite over a work segment; returns whether it changed it.
Sweep = Callable[[WorkSegment], bool]


def run_sweep(sweep: Sweep, gates: Sequence[Gate]) -> tuple[list[Gate], bool]:
    """One ``sweep`` over a fresh segment of ``gates``: ``(gates, changed)``."""
    seg = WorkSegment(gates)
    changed = sweep(seg)
    return seg.gates(), changed


def next_live(arr: list[Optional[Gate]], lst: list[int], p: int) -> int:
    """Position in wire list ``lst`` of the first live slot after
    position ``p`` (``len(lst)`` when there is none)."""
    p += 1
    n = len(lst)
    while p < n and arr[lst[p]] is None:
        p += 1
    return p


def sweep_remove_identities(seg: WorkSegment) -> bool:
    """Drop rz(0) identity rotations."""
    arr = seg.arr
    changed = False
    for i, g in enumerate(arr):
        if g is not None and g.name == "rz" and g.param == 0.0:
            arr[i] = None
            changed = True
    return changed


def sweep_cancellation(seg: WorkSegment) -> bool:
    """One sweep of cancellation/merging with commutation scans.

    For each live gate ``g`` (left to right), walk the later gates that
    overlap ``g``'s wires: skip those that commute with ``g``; on
    meeting a gate ``h`` that ``g`` merges with, apply the pair rule
    (cancel both, or write the merged rotation at ``h``'s position so it
    stays behind everything ``g`` commuted past); on meeting a blocking
    gate, stop and move on.

    The single- and two-qubit walks are hand-inlined versions of
    :func:`repro.oracles.commutation.commutes` restricted to overlapping
    pairs plus :func:`repro.oracles.rules.try_merge` — this function is
    the oracle's hot loop and runs millions of times per optimization.
    Semantic equivalence with the generic predicates is pinned by
    ``tests/oracles/test_rule_engine.py``.
    """
    arr, wires, pos0, pos1 = seg.indexed()
    changed = False
    for i, g in enumerate(arr):
        if g is None:
            continue
        gname = g.name
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
    """Rewrite per-wire-adjacent H·(X|RZ(pi))·H triples to a single gate.

    Adjacency is per wire: the three gates are single-qubit gates on the
    same qubit and no gate in between touches that qubit, so everything
    in between commutes with the whole triple and the replacement can be
    written at the first gate's position.
    """
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
    """Shared-wire CNOT chain reduction (3 CNOTs -> 2).

    Pattern: ``a = CNOT(p,q)``, then (past gates disjoint from {p,q}) a
    middle CNOT ``b`` sharing exactly one wire with ``a`` in the
    control-of-one-is-target-of-the-other configuration, then (past
    gates disjoint from {p,q,r}) ``c == a``.  ``a`` is deleted, ``b``
    stays and ``c``'s slot takes the CNOT onto ``b``'s other wire, which
    is sound because ``a`` commutes past everything before ``b``.  That
    slot changes wires, so each rewrite invalidates the index and the
    scan restarts (chain rewrites are rare; a scan that finds none
    writes nothing).
    """
    changed = False
    while _cnot_chain_once(seg):
        changed = True
    return changed


def _cnot_chain_once(seg: WorkSegment) -> bool:
    """Apply the first applicable chain rewrite; False if none fits."""
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


def remove_identities(gates: list[Gate]) -> tuple[list[Gate], bool]:
    """:func:`sweep_remove_identities` on a gate list."""
    return run_sweep(sweep_remove_identities, gates)


def cancellation_pass(gates: list[Gate]) -> tuple[list[Gate], bool]:
    """:func:`sweep_cancellation` on a gate list."""
    return run_sweep(sweep_cancellation, gates)


def hadamard_reduction_pass(gates: list[Gate]) -> tuple[list[Gate], bool]:
    """:func:`sweep_hadamard_reduction` on a gate list."""
    return run_sweep(sweep_hadamard_reduction, gates)


def cnot_chain_pass(gates: list[Gate]) -> tuple[list[Gate], bool]:
    """:func:`sweep_cnot_chain` on a gate list."""
    return run_sweep(sweep_cnot_chain, gates)
