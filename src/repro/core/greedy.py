"""Round-free sequential local optimization — the rounds ablation.

POPQC's rounds exist to expose parallelism: selection (Algorithm 4)
finds a non-interfering finger subset so their segments can be
optimized concurrently.  On a single thread the rounds are pure
structure, so the natural sequential ablation processes one finger at
a time with no selection and no barrier.  The invariant ("every
unoptimized Ω-segment contains a finger") and therefore Theorem 7's
local-optimality guarantee are preserved — the proof of Lemma 6 never
uses the round structure.

Comparing :func:`popqc_greedy` against ``popqc(..., SerialMap())``
isolates the overhead of per-round rank recomputation and selection
(``benchmarks/test_ablations.py``), and gives the best possible
sequential baseline built from POPQC's own machinery.
"""

from __future__ import annotations

import bisect
import time
from typing import Optional, Sequence

from ..circuits import Circuit, Gate
from .fingers import initial_fingers
from .popqc import CostFn, OracleFn, PopqcResult
from .stats import OptimizationStats, RoundStats
from .tombstone import TombstoneArray

__all__ = ["popqc_greedy"]


def popqc_greedy(
    circuit: Circuit | Sequence[Gate],
    oracle: OracleFn,
    omega: int,
    *,
    cost: Optional[CostFn] = None,
    max_steps: Optional[int] = None,
) -> PopqcResult:
    """Sequential local optimization: one finger at a time, left to right.

    Produces a locally optimal circuit (same guarantee as
    :func:`repro.core.popqc.popqc`) with zero parallelism and zero
    selection overhead.  ``stats.rounds`` counts processed fingers.
    """
    if omega < 1:
        raise ValueError("omega must be positive")
    if isinstance(circuit, Circuit):
        gates = list(circuit.gates)
        num_qubits: Optional[int] = circuit.num_qubits
    else:
        gates = list(circuit)
        num_qubits = None
    cost_fn = cost if cost is not None else (lambda seg: float(len(seg)))

    stats = OptimizationStats(
        initial_gates=len(gates), initial_cost=cost_fn(gates), workers=1
    )
    t_start = time.perf_counter()
    array: TombstoneArray[Gate] = TombstoneArray(gates)
    fingers = initial_fingers(len(gates), omega)  # sorted array indices

    steps = 0
    while fingers:
        if max_steps is not None and steps >= max_steps:
            break
        steps += 1
        f = fingers.pop(0)
        total_live = array.live_count
        if total_live == 0:
            break
        rank = min(array.before(f), total_live)
        lo = max(0, rank - omega)
        hi = min(total_live, rank + omega)
        slots, seg = array.segment(lo, hi)
        if not slots:
            continue
        t_oracle = time.perf_counter()
        opt = oracle(seg)
        stats.oracle_time += time.perf_counter() - t_oracle
        stats.oracle_calls += 1
        if len(opt) <= len(slots) and cost_fn(opt) < cost_fn(seg):
            stats.oracle_accepted += 1
            updates = [
                (slot, opt[i] if i < len(opt) else None)
                for i, slot in enumerate(slots)
            ]
            new_fingers = []
            if lo > 0:
                new_fingers.append(slots[0])
            if hi < total_live:
                new_fingers.append(array.index_of(hi))
            array.substitute(updates)
            for nf in new_fingers:
                pos = bisect.bisect_left(fingers, nf)
                if pos >= len(fingers) or fingers[pos] != nf:
                    fingers.insert(pos, nf)

    final_gates = array.items()
    stats.rounds = steps
    stats.final_gates = len(final_gates)
    stats.final_cost = cost_fn(final_gates)
    stats.total_time = time.perf_counter() - t_start
    stats.admin_time = max(0.0, stats.total_time - stats.oracle_time)
    stats.per_round.append(
        RoundStats(
            fingers=steps,
            selected=stats.oracle_calls,
            accepted=stats.oracle_accepted,
            oracle_time=stats.oracle_time,
            admin_time=stats.admin_time,
        )
    )
    return PopqcResult(final_gates, stats, num_qubits)
