"""Round-by-round tracing of a POPQC run (Figure 2, as a tool).

The paper's Figure 2 walks through two rounds of finger dynamics; this
module makes that view available for any run: per round, the finger
ranks, the selected (non-interfering) subset, the accepted regions and
the shrinking live-gate count — plus an ASCII renderer that scales the
circuit onto a fixed-width band so the optimization wave is visible in
a terminal.

Usage::

    from repro.core.trace import popqc_traced, render_trace
    result, trace = popqc_traced(circuit, oracle, omega=100)
    print(render_trace(trace))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..circuits import Circuit, Gate
from ..parallel import ParallelMap
from .popqc import (
    CostFn,
    OracleFn,
    PopqcResult,
    _gate_count_cost,
    _Granularity,
    _run,
)

__all__ = ["RoundTrace", "popqc_traced", "render_trace"]


@dataclass
class RoundTrace:
    """Observable state of one POPQC round."""

    round_index: int
    live_before: int
    live_after: int
    finger_ranks: list[int]
    selected_ranks: list[int]
    #: accepted regions as (rank_lo, rank_hi) in pre-round rank space
    accepted_regions: list[tuple[int, int]]


def popqc_traced(
    circuit: Circuit | Sequence[Gate],
    oracle: OracleFn,
    omega: int,
    *,
    parmap: Optional[ParallelMap] = None,
    cost: Optional[CostFn] = None,
    max_rounds: Optional[int] = None,
) -> tuple[PopqcResult, list[RoundTrace]]:
    """Run POPQC while recording a :class:`RoundTrace` per round.

    The run *is* :func:`repro.core.popqc.popqc` — same loop, same
    result, same statistics — observed through its per-round callback,
    so there is one trace entry per counted round.
    """
    trace: list[RoundTrace] = []
    result = _run(
        circuit,
        oracle,
        omega,
        _Granularity(),
        parmap,
        cost_fn=cost if cost is not None else _gate_count_cost,
        max_rounds=max_rounds,
        on_round=lambda *fields: trace.append(RoundTrace(*fields)),
    )
    return result, trace


def render_trace(trace: Sequence[RoundTrace], width: int = 72) -> str:
    """Render the rounds as an ASCII band per round.

    Legend: ``.`` untouched, ``|`` finger, ``#`` selected finger,
    ``=`` region optimized this round.  Positions are ranks scaled onto
    ``width`` columns of the pre-round live gate count.
    """
    if not trace:
        return "(no rounds)"
    lines = ["round  live   band"]
    for rt in trace:
        scale = max(1, rt.live_before)
        band = ["."] * width

        def col(rank: int) -> int:
            return min(width - 1, rank * width // scale)

        for lo, hi in rt.accepted_regions:
            for c in range(col(lo), col(max(lo, hi - 1)) + 1):
                band[c] = "="
        for r in rt.finger_ranks:
            band[col(min(r, scale - 1))] = "|"
        for r in rt.selected_ranks:
            band[col(min(r, scale - 1))] = "#"
        lines.append(f"{rt.round_index:5d} {rt.live_before:6d}   {''.join(band)}")
    last = trace[-1]
    lines.append(f"final  {last.live_after:6d}")
    return "\n".join(lines)
