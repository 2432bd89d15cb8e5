"""Nam-style rewrite engine: one segment of columns, one wire index, in-place sweeps.

The routines of Nam et al. (2018) — the rule set VOQC verifies — on
{H, X, CNOT, RZ}.  An oracle call builds one :class:`WorkSegment` and
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

**Columns, not gates.**  A segment is per-slot lists — ``op`` (a small
name code: a :class:`~repro.circuits.intern.GateTable` name id, so the
base set first; :data:`DEAD` for a tombstone), ``q0`` / ``q1``, ``ang``
and ``src`` (see :class:`WorkSegment`) — built from wire arrays, from
ids of a table or from gates, and read back the same three ways; no
``Gate`` exists while the sweeps run.  Only ``h``, ``x`` and ``cnot``
self-cancel and only ``rz`` merges: a gate of any other name and arity
(0 included) is *opaque* — it never starts a walk, blocks every walk
that meets it and passes through unchanged.

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

import math
from itertools import compress
from operator import attrgetter, itemgetter
from typing import Callable, Optional, Sequence

import numpy as np

from ..circuits import Gate, normalize_angle
from ..circuits.encoding import (
    EncodedSegment,
    decode_segment,
    encode_columns,
    encode_segment,
    wire_columns,
)
from ..circuits.gate import ANGLE_TOL, GATE_NAMES, TWO_PI
from ..circuits.intern import GateTable

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

#: Slot codes: the base set in ``GATE_NAMES`` order, opaque names from
#: ``OPAQUE`` up, ``DEAD`` for a tombstone.
H, X, CNOT, RZ = range(4)
OPAQUE = 4
DEAD = -1

_CODE = {name: code for code, name in enumerate(GATE_NAMES)}
_NAME, _QUBITS, _PARAM = attrgetter("name"), attrgetter("qubits"), attrgetter("param")
_FIRST, _LAST = itemgetter(0), itemgetter(-1)


class WorkSegment:
    """The state of one oracle call: per-slot columns and their wire index.

    Columns: ``op`` (the slot's code), ``q0`` / ``q1`` (its qubits;
    ``q1`` is read for ``cnot`` only), ``ang`` (an ``rz``'s normalized
    angle, else 0.0) and ``src`` (the slot's input position, ``-1`` once
    a sweep rewrote its value).  ``names`` maps a code to its name,
    ``opaque`` an opaque slot's input position to its qubits, ``origin``
    an input position to the input's ``Gate`` (a segment built from
    gates).  The index gives, per qubit, the ordered slots touching it
    (``wires``) and each slot's position in the list of its first /
    second qubit (``pos0`` / ``pos1``, ``-1`` where absent).  It stays
    valid while slots are only tombstoned or overwritten by a gate on
    the same qubits in the same order; a sweep that does anything else
    calls :meth:`invalidate` (or repairs the entry, as the gadget
    sweep's CNOT flip does).
    """

    __slots__ = ("op", "q0", "q1", "ang", "src", "names", "opaque", "origin", "_index")

    def __init__(self, op, q0, q1, ang, names=GATE_NAMES, opaque=None, origin=None):
        self.op, self.q0, self.q1, self.ang = op, q0, q1, ang
        self.src = list(range(len(op)))
        self.names, self.opaque, self.origin = names, opaque or {}, origin
        self._index: Optional[tuple[dict[int, list[int]], list[int], list[int]]] = None

    @classmethod
    def from_gates(cls, gates: Sequence[Gate]) -> "WorkSegment":
        """A segment of ``gates``; a slot that keeps its value leaves as
        its input object."""
        gates = list(gates)
        op = list(map(_CODE.get, map(_NAME, gates)))
        qubits = list(map(_QUBITS, gates))
        names, opaque = GATE_NAMES, {}
        if None in op:
            names = list(GATE_NAMES)
            for i, gate in enumerate(gates):
                if op[i] is None:
                    if gate.name not in names:
                        names.append(gate.name)
                    op[i] = names.index(gate.name)
                    opaque[i], qubits[i] = qubits[i], (0,)  # columns unread
        q0, q1 = list(map(_FIRST, qubits)), list(map(_LAST, qubits))
        ang = [param or 0.0 for param in map(_PARAM, gates)]
        return cls(op, q0, q1, ang, names, opaque, gates)

    @classmethod
    def from_encoded(cls, encoded: EncodedSegment) -> "WorkSegment":
        """A segment of wire arrays, read in numpy and checked as the
        reference decoder checks them (``ValueError`` for arrays no gate
        list encodes to; a raw angle is normalized).  One naming an
        opaque gate is read through the reference decoder."""
        n = encoded.length
        codes = [_CODE.get(name, DEAD) for name in encoded.names]
        if DEAD in codes or not n:
            return cls.from_gates(decode_segment(encoded))
        op = np.array(codes)[encoded.ops]
        arity, q0, q1, rz, ang = wire_columns(encoded)
        two = op == CNOT
        if not (
            len(op) == n
            and (arity == two + 1).all()
            and arity.sum() == len(encoded.qubits)
            and (rz == (op == RZ)).all()
            and not (two & (q0 == q1)).any()
        ):
            raise ValueError("wire arrays that no base-set gate list encodes to")
        raw = np.flatnonzero(rz & ~((ang >= ANGLE_TOL) & (TWO_PI - ang >= ANGLE_TOL)))
        ang = ang.tolist()
        for i in raw.tolist():
            ang[i] = normalize_angle(ang[i])
        return cls(op.tolist(), q0.tolist(), q1.tolist(), ang)

    @classmethod
    def from_ids(cls, ids: np.ndarray, table: GateTable) -> "WorkSegment":
        """A segment of ``ids`` of ``table`` (or of a claim round's
        :class:`~repro.circuits.intern.RowTable`): a gather of its rows."""
        name, q0, q1, param = table.columns(ids)
        opaque = {}
        if len(name) and name.max() >= OPAQUE:
            for i in np.flatnonzero(name >= OPAQUE).tolist():
                opaque[i] = table.qubits(int(ids[i]))
        columns = (name.tolist(), q0.tolist(), q1.tolist(), param.tolist())
        return cls(*columns, table.names, opaque)

    def _value(self, i: int) -> tuple:
        """``(name, qubits, param)`` of the base gate in slot ``i``."""
        o = self.op[i]
        if o == CNOT:
            return "cnot", (self.q0[i], self.q1[i]), None
        return GATE_NAMES[o], (self.q0[i],), self.ang[i] if o == RZ else None

    def gates(self) -> list[Gate]:
        """The live gates, in order: the input's objects where a slot
        kept its value, new ones where a sweep rewrote it."""
        out = []
        for i, o in enumerate(self.op):
            if o < 0:
                continue
            s = self.src[i]
            if s >= 0 and self.origin is not None:
                out.append(self.origin[s])
            elif o >= OPAQUE:
                out.append(Gate(self.names[o], self.opaque[s]))
            else:
                out.append(Gate(*self._value(i)))
        return out

    def encoded(self) -> EncodedSegment:
        """The live gates as wire arrays, array for array what
        ``encode_segment(self.gates())`` gives; no ``Gate`` is built
        unless an opaque one is live."""
        op = np.array(self.op, dtype=np.int64)
        keep = op >= 0
        op = op[keep]
        if len(op) and op.max() >= OPAQUE:
            return encode_segment(self.gates())
        pairs = np.empty((len(keep), 2), dtype=np.int32)
        pairs[:, 0], pairs[:, 1] = self.q0, self.q1
        two, ang = op == CNOT, np.array(self.ang)[keep]
        return encode_columns(GATE_NAMES, op, two + 1, pairs[keep], op == RZ, ang)

    def ids(self, table: GateTable, ids: np.ndarray) -> np.ndarray:
        """The live gates as ids of ``table``, for a segment built from
        its ``ids``: a slot that kept its value keeps its id, a rewritten
        value is interned (a ``Gate`` built only if it is new there)."""
        slots = np.flatnonzero(np.array(self.op, dtype=np.int64) >= 0)
        src = np.array(self.src, dtype=np.intp)[slots]
        out = ids[src]
        fresh = np.flatnonzero(src < 0)
        if len(fresh):
            out[fresh] = table.value_ids(list(map(self._value, slots[fresh].tolist())))
        return out

    # -- the wire index --------------------------------------------------------

    def indexed(self) -> tuple[dict[int, list[int]], list[int], list[int]]:
        """``(wires, pos0, pos1)``, compacting and indexing if stale."""
        if self._index is None:
            live = [o >= 0 for o in self.op]
            if not all(live):
                for column in ("op", "q0", "q1", "ang", "src"):
                    setattr(self, column, list(compress(getattr(self, column), live)))
            q0, q1, src, opaque = self.q0, self.q1, self.src, self.opaque
            wires: dict[int, list[int]] = {}
            pos0: list[int] = []
            pos1: list[int] = []
            for i, o in enumerate(self.op):
                if o >= OPAQUE:
                    at = []
                    for q in opaque[src[i]]:
                        lst = wires.get(q)
                        if lst is None:
                            lst = wires[q] = []
                        at.append(len(lst))
                        lst.append(i)
                    pos0.append(at[0] if at else -1)
                    pos1.append(at[1] if len(at) > 1 else -1)
                    continue
                lst = wires.get(q0[i])
                if lst is None:
                    lst = wires[q0[i]] = []
                pos0.append(len(lst))
                lst.append(i)
                if o != CNOT:
                    pos1.append(-1)
                    continue
                lst = wires.get(q1[i])
                if lst is None:
                    lst = wires[q1[i]] = []
                pos1.append(len(lst))
                lst.append(i)
            self._index = (wires, pos0, pos1)
        return self._index

    def invalidate(self) -> None:
        """Drop the index after a rewrite that changed a slot's qubits."""
        self._index = None


#: An in-place rewrite over a work segment; returns whether it changed it.
Sweep = Callable[[WorkSegment], bool]


def run_sweep(sweep: Sweep, gates: Sequence[Gate]) -> tuple[list[Gate], bool]:
    """One ``sweep`` over a fresh segment of ``gates``: ``(gates, changed)``."""
    seg = WorkSegment.from_gates(gates)
    changed = sweep(seg)
    return seg.gates(), changed


def next_live(op: list[int], lst: list[int], p: int) -> int:
    """Position in wire list ``lst`` of the first live slot after
    position ``p`` (``len(lst)`` when there is none)."""
    p += 1
    n = len(lst)
    while p < n and op[lst[p]] < 0:
        p += 1
    return p


def sweep_remove_identities(seg: WorkSegment) -> bool:
    """Drop rz(0) identity rotations."""
    op, ang = seg.op, seg.ang
    changed = False
    for i, o in enumerate(op):
        if o == RZ and ang[i] == 0.0:
            op[i] = DEAD
            changed = True
    return changed


def sweep_cancellation(seg: WorkSegment) -> bool:
    """One sweep of cancellation/merging with commutation scans.

    For each live base gate ``g`` (left to right), walk the later gates
    that overlap ``g``'s wires: skip those that commute with ``g``; on
    meeting a gate ``h`` that ``g`` merges with, apply the pair rule
    (cancel both, or write the merged rotation at ``h``'s position so it
    stays behind everything ``g`` commuted past); on meeting a blocking
    gate — an opaque one always blocks — stop and move on.

    The single- and two-qubit walks are hand-inlined versions of
    :func:`repro.oracles.commutation.commutes` restricted to overlapping
    pairs plus :func:`repro.oracles.rules.try_merge` — this function is
    the oracle's hot loop and runs millions of times per optimization.
    Semantic equivalence with the generic predicates is pinned by
    ``tests/oracles/test_rule_engine.py``.
    """
    wires, pos0, pos1 = seg.indexed()
    op, q0, q1, ang, src = seg.op, seg.q0, seg.q1, seg.ang, seg.src
    changed = False
    for i, o in enumerate(op):
        if o < 0 or o >= OPAQUE:
            continue
        if o == RZ and ang[i] == 0.0:
            op[i] = DEAD
            changed = True
            continue
        if o != CNOT:
            # --- single-qubit walk along the gate's wire -----------------
            q = q0[i]
            lst = wires[q]
            p = pos0[i] + 1
            length = len(lst)
            while p < length:
                j = lst[p]
                h = op[j]
                if h < 0:
                    p += 1
                    continue
                if h == o:
                    # mergeable pair: hh/xx cancel, rz+rz merge (or cancel)
                    theta = normalize_angle(ang[i] + ang[j]) if o == RZ else 0.0
                    if theta == 0.0:
                        op[j] = DEAD
                    else:
                        ang[j], src[j] = theta, -1
                    op[i] = DEAD
                    changed = True
                    break
                if h == CNOT:
                    if (o == RZ and q == q0[j]) or (o == X and q == q1[j]):
                        p += 1
                        continue
                    break
                break  # an overlapping 1q gate of another kind blocks
        else:
            # --- two-qubit walk merging both wires' lists -----------------
            c0, t0 = q0[i], q1[i]
            lst_c = wires[c0]
            lst_t = wires[t0]
            pc = pos0[i] + 1
            pt = pos1[i] + 1
            len_c = len(lst_c)
            len_t = len(lst_t)
            while True:
                while pc < len_c and op[lst_c[pc]] < 0:
                    pc += 1
                while pt < len_t and op[lst_t[pt]] < 0:
                    pt += 1
                if pc < len_c:
                    j = lst_c[pc] if pt >= len_t or lst_c[pc] <= lst_t[pt] else lst_t[pt]
                elif pt < len_t:
                    j = lst_t[pt]
                else:
                    break
                h = op[j]
                if h == CNOT:
                    hc, ht = q0[j], q1[j]
                    if hc == c0 and ht == t0:
                        op[i] = DEAD
                        op[j] = DEAD
                        changed = True
                        break
                    if hc == t0 or ht == c0:
                        break  # control/target collision blocks
                    # shares only a control and/or only a target: commutes
                elif not ((h == RZ and q0[j] == c0) or (h == X and q0[j] == t0)):
                    break
                if pc < len_c and lst_c[pc] == j:
                    pc += 1
                if pt < len_t and lst_t[pt] == j:
                    pt += 1
    return changed


def sweep_hadamard_reduction(seg: WorkSegment) -> bool:
    """Rewrite per-wire-adjacent H·(X|RZ(pi))·H triples to a single gate
    (the rules of :func:`repro.oracles.rules.hadamard_triple`).

    Adjacency is per wire: the three gates are single-qubit gates on the
    same qubit and no gate in between touches that qubit, so everything
    in between commutes with the whole triple and the replacement can be
    written at the first gate's position.
    """
    wires, pos0, _ = seg.indexed()
    op, q0, ang, src = seg.op, seg.q0, seg.ang, seg.src
    changed = False
    for i, o in enumerate(op):
        if o != H:
            continue
        lst = wires[q0[i]]
        pj = next_live(op, lst, pos0[i])
        if pj == len(lst):
            continue
        b = lst[pj]
        if op[b] == X:
            new, theta = RZ, math.pi  # H X H = Z = RZ(pi)
        elif op[b] == RZ and abs(ang[b] - math.pi) < 1e-9:
            new, theta = X, 0.0
        else:
            continue
        pk = next_live(op, lst, pj)
        if pk == len(lst) or op[lst[pk]] != H:
            continue
        op[i], ang[i], src[i] = new, theta, -1
        op[b] = DEAD
        op[lst[pk]] = DEAD
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
    wires, pos0, pos1 = seg.indexed()
    op, q0, q1 = seg.op, seg.q0, seg.q1
    end = len(op)
    for i, o in enumerate(op):
        if o != CNOT:
            continue
        p, q = q0[i], q1[i]
        lst_p = wires[p]
        lst_q = wires[q]
        len_p = len(lst_p)
        len_q = len(lst_q)
        pp = next_live(op, lst_p, pos0[i])
        pq = next_live(op, lst_q, pos1[i])
        on_p = lst_p[pp] if pp < len_p else end
        on_q = lst_q[pq] if pq < len_q else end
        j = on_p if on_p < on_q else on_q
        if j == end or op[j] != CNOT:
            continue
        bc, bt = q0[j], q1[j]
        # k = first live gate after b on p, q or b's other wire r; b sits
        # on exactly one of a's wires, the other's next gate is known
        if bc == q and bt != p:
            r, pr = bt, pos1[j]
            pq = next_live(op, lst_q, pq)
            on_q = lst_q[pq] if pq < len_q else end
        elif bt == p and bc != q:
            r, pr = bc, pos0[j]
            pp = next_live(op, lst_p, pp)
            on_p = lst_p[pp] if pp < len_p else end
        else:
            continue
        lst_r = wires[r]
        pr = next_live(op, lst_r, pr)
        k = min(on_p, on_q, lst_r[pr] if pr < len(lst_r) else end)
        if k == end or op[k] != CNOT or q0[k] != p or q1[k] != q:
            continue
        op[i] = DEAD
        q0[k], q1[k] = (p, r) if bc == q else (r, q)
        seg.src[k] = -1
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
