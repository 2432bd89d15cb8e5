"""Output checks whose references do not come from the optimizer under test.

* **Equivalence** — ``repro.sim.probe_equivalent`` runs input and output
  through the statevector simulator on one random product state
  (circuits of at most :data:`MAX_SIM_QUBITS` qubits).
* **Local optimality** — for wider circuits, a seeded sample of
  Ω-windows of the output handed to the oracle directly
  (``assert_locally_optimal``): the paper's guarantee, checked without
  the driver.
* **Byte identity** — ``to_qasm`` digests of a pool or served output
  against a standalone serial ``popqc`` of the same input, and of every
  repeat of one input against its first output.
* **Monotonicity** — ``final_gates <= initial_gates`` for every output.

Each function returns failure messages (empty when the check passes).
The simulator costs about 30 µs per gate, so an untimed-but-budgeted
run checks a seeded sample of inputs (:func:`sample`); a traced or
smoke run checks every input.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional, Sequence

from repro import assert_locally_optimal, to_qasm
from repro.circuits import Circuit
from repro.sim import probe_equivalent

MAX_SIM_QUBITS = 14
LOCAL_WINDOWS = 64


def digest(circuit: Circuit) -> str:
    """Digest of the circuit's OpenQASM text (the byte-identity reference)."""
    return hashlib.blake2b(to_qasm(circuit).encode(), digest_size=16).hexdigest()


def monotone(tag: str, initial_gates: int, final_gates: int) -> list[str]:
    """The output has no more gates than the input."""
    if final_gates > initial_gates:
        return [f"{tag}: grew from {initial_gates} to {final_gates} gates"]
    return []


def semantic(
    tag: str, inp: Circuit, out: Circuit, oracle, omega: int, seed: int
) -> list[str]:
    """Equivalence by simulation, or sampled local optimality when too wide."""
    if out.num_qubits != inp.num_qubits:
        return [f"{tag}: register went from {inp.num_qubits} to {out.num_qubits}"]
    if inp.num_qubits <= MAX_SIM_QUBITS:
        if not probe_equivalent(inp, out, trials=1, seed=seed):
            return [f"{tag}: output is not equivalent to its input"]
        return []
    try:
        assert_locally_optimal(
            out, oracle, omega, max_windows=LOCAL_WINDOWS, seed=seed
        )
    except AssertionError as exc:
        return [f"{tag}: {str(exc).splitlines()[0]}"]
    return []


def same_bytes(tag: str, got: str, reference: str, what: str) -> list[str]:
    """Two ``to_qasm`` digests agree."""
    if got != reference:
        return [f"{tag}: output differs from {what}"]
    return []


def sample(
    sizes: Sequence[tuple[str, int]], gate_budget: Optional[int], seed: int
) -> list[str]:
    """A seeded choice of tags whose input gates fit ``gate_budget``.

    ``sizes`` is ``(tag, input gates)`` per distinct input.  ``None``
    selects everything; otherwise tags are taken in a seeded shuffle
    until the next one would exceed the budget, and at least one is
    always taken, so over seeds every input gets its turn.
    """
    if gate_budget is None:
        return [tag for tag, _ in sizes]
    order = list(sizes)
    random.Random(seed).shuffle(order)
    chosen, spent = [], 0
    for tag, gates in order:
        if chosen and spent + gates > gate_budget:
            break
        chosen.append(tag)
        spent += gates
    return chosen
