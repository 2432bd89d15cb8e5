"""POPQC: Parallel Optimization for Quantum Circuits — Python reproduction.

This package reproduces the system of Liu, Arora, Xu and Acar,
"POPQC: Parallel Optimization for Quantum Circuits" (SPAA 2025):

* :mod:`repro.core` — the POPQC algorithm (fingers, rounds, index tree);
* :mod:`repro.circuits` — the gate/circuit substrate and QASM I/O;
* :mod:`repro.oracles` — rule-based (VOQC-role) and search-based
  (Quartz-role) oracle optimizers;
* :mod:`repro.baselines` — the sequential whole-circuit and OAC baselines;
* :mod:`repro.benchgen` — the eight benchmark circuit families;
* :mod:`repro.parallel` — the parmap executors, including simulated
  parallelism for scaling studies;
* :mod:`repro.sim` — statevector/unitary verification substrate;
* :mod:`repro.experiments` — drivers for every table and figure.

Quick start::

    from repro import optimize, NamOracle
    from repro.benchgen import generate

    circuit = generate("Grover", 1)
    result = optimize(circuit, omega=100)
    print(result.stats.summary())
"""

from __future__ import annotations

from typing import Sequence

from .circuits import CNOT, RZ, Circuit, Gate, H, X, parse_qasm, to_qasm
from .core import (
    OptimizationStats,
    PopqcResult,
    assert_locally_optimal,
    layered_popqc,
    popqc,
)
from .oracles import GateCount, MixedCost, NamOracle, SearchOracle
from .parallel import ProcessMap, SerialMap, SimulatedParallelism

__version__ = "1.0.0"

__all__ = [
    "CNOT",
    "Circuit",
    "Gate",
    "GateCount",
    "H",
    "MixedCost",
    "NamOracle",
    "OptimizationStats",
    "PopqcResult",
    "ProcessMap",
    "RZ",
    "SearchOracle",
    "SerialMap",
    "SimulatedParallelism",
    "X",
    "__version__",
    "assert_locally_optimal",
    "layered_popqc",
    "optimize",
    "parse_qasm",
    "popqc",
    "to_qasm",
]


def optimize(
    circuit: Circuit | Sequence[Gate],
    *,
    oracle=None,
    omega: int = 100,
    parmap=None,
) -> PopqcResult:
    """One-call convenience wrapper around :func:`repro.core.popqc`.

    Uses the rule-based fixpoint oracle and a serial executor unless
    told otherwise.
    """
    if oracle is None:
        oracle = NamOracle()
    return popqc(circuit, oracle, omega, parmap=parmap)
