"""Layered POPQC (paper Section 7.8).

The index-tree data structure "naturally generalizes to the layered
representation of circuits: we think of each layer as a 'big' gate and
perform all operations at the granularity of layers" (Section 3).  This
module implements that generalization: the tombstone array stores whole
layers (tuples of mutually independent gates), Ω counts layers, and the
acceptance test uses a cost function over the segment's *gates* — the
depth-aware experiment uses ``cost = 10*depth + gates`` as in the paper.

The oracle still receives a flat gate list (a real optimizer does not
care about our layering); its output is re-layered before substitution.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..circuits import Circuit, Gate, circuit_depth, gates_qubit_span, layers_asap
from ..parallel import ParallelMap
from .popqc import CostFn, OracleFn, PopqcResult, _Granularity, _run
from .tombstone import TombstoneArray

__all__ = ["layered_popqc", "LayeredPopqcResult", "mixed_cost"]

Layer = tuple[Gate, ...]

#: The layered variant returns what :func:`repro.core.popqc.popqc` does.
LayeredPopqcResult = PopqcResult


def mixed_cost(depth_weight: float = 10.0) -> CostFn:
    """The paper's depth-aware cost: ``depth_weight * depth + gates``."""
    def cost(gates: Sequence[Gate]) -> float:
        gates = list(gates)
        if not gates:
            return 0.0
        n = gates_qubit_span(gates)
        return depth_weight * circuit_depth(gates, n) + len(gates)

    return cost


def _flatten(layers: Sequence[Layer]) -> list[Gate]:
    out: list[Gate] = []
    for layer in layers:
        out.extend(layer)
    return out


def layered_popqc(
    circuit: Circuit | Sequence[Gate],
    oracle: OracleFn,
    omega: int,
    *,
    parmap: Optional[ParallelMap] = None,
    cost: Optional[CostFn] = None,
    max_rounds: Optional[int] = None,
    check_invariants: bool = False,
) -> LayeredPopqcResult:
    """POPQC at layer granularity with a gate-level cost function.

    ``omega`` counts *layers* (the paper uses Ω=100 layers for the
    Quartz/depth experiment).  ``cost`` defaults to the paper's mixed
    cost ``10*depth + gates``.  The round loop is
    :func:`repro.core.popqc.popqc`'s; only the granularity differs:
    layer segments are flattened to gate lists before the oracle map
    (the oracle never sees our layering), and oracle outputs are
    re-layered before the fit test and the substitution.
    ``check_invariants`` verifies non-interference and slot disjointness
    every round and the finger half of the call bound at the end, as
    :func:`~repro.core.popqc.popqc`'s does.
    """
    if isinstance(circuit, Circuit):
        num_qubits = circuit.num_qubits
    else:
        num_qubits = gates_qubit_span(circuit)

    def relayer(gates: Sequence[Gate]) -> list[Layer]:
        return [tuple(layer) for layer in layers_asap(gates, num_qubits)]

    return _run(
        circuit,
        oracle,
        omega,
        _Granularity(array=TombstoneArray, to_gates=_flatten, to_items=relayer),
        parmap,
        cost_fn=cost if cost is not None else mixed_cost(),
        max_rounds=max_rounds,
        check_invariants=check_invariants,
    )
