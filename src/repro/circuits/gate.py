"""Gate model for the POPQC reproduction.

The paper (Section 7.2) evaluates on the gate set used by VOQC:
Hadamard (``h``), Pauli-X (``x``), controlled-not (``cnot``) and Z-rotation
(``rz``).  All benchmark generators and both oracle optimizers in this
repository emit circuits over exactly this set; richer gates (T, S, Z, CZ,
Toffoli, ...) are provided as *decompositions* into the base set by
:mod:`repro.benchgen.decompose` and as named constructors here for tests.

Conventions
-----------
``RZ(theta)`` is the matrix ``diag(1, exp(i*theta))`` — the *phase-rotation*
convention — so that ``RZ(pi) == Z``, ``RZ(pi/2) == S`` and
``RZ(pi/4) == T`` hold exactly (up to the global phase that all of our
equivalence checks already ignore).  Angles are stored normalized into
``[0, 2*pi)``; an angle indistinguishable from 0 (within :data:`ANGLE_TOL`)
denotes the identity and is removed by the optimizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

__all__ = [
    "ANGLE_TOL",
    "TWO_PI",
    "Gate",
    "H",
    "X",
    "CNOT",
    "RZ",
    "normalize_angle",
    "is_zero_angle",
    "GATE_NAMES",
    "gate_matrix",
]

#: Angles closer than this to a multiple of 2*pi are treated as zero.
ANGLE_TOL = 1e-10

TWO_PI = 2.0 * math.pi

#: The base gate set (paper Section 7.2).
GATE_NAMES = ("h", "x", "cnot", "rz")

#: Qubit count of each base-set name.
_BASE_ARITY = {"h": 1, "x": 1, "cnot": 2, "rz": 1}

_H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)
_X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def normalize_angle(theta: float) -> float:
    """Map ``theta`` into the canonical interval ``[0, 2*pi)``.

    Values within :data:`ANGLE_TOL` of ``0`` or ``2*pi`` normalize to
    exactly ``0.0`` so that identity rotations compare equal.
    """
    theta = math.fmod(theta, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    if theta < ANGLE_TOL or TWO_PI - theta < ANGLE_TOL:
        return 0.0
    return theta


def is_zero_angle(theta: float) -> bool:
    """True when an ``rz`` with this angle is the identity."""
    return normalize_angle(theta) == 0.0


@dataclass(frozen=True, slots=True)
class Gate:
    """A single quantum gate: a name, an ordered qubit tuple and an
    optional rotation parameter.

    Instances are immutable and hashable so they can be shared freely
    between the circuit array, oracle inputs and multiprocessing workers.

    Attributes
    ----------
    name:
        Lower-case gate name, one of :data:`GATE_NAMES` for circuits fed
        to the optimizers.  Any other name is an *opaque* gate, which
        the rule-based oracles pass through untouched.
    qubits:
        The qubits the gate acts on.  For ``cnot`` the order is
        ``(control, target)``; a base-set name takes exactly its own
        count (one, two for ``cnot``).
    param:
        Rotation angle for ``rz``; ``None`` for parameter-free gates.
    """

    name: str
    qubits: tuple[int, ...]
    param: Optional[float] = None

    def __post_init__(self) -> None:
        if self.name == "rz":
            if self.param is None:
                raise ValueError("rz gate requires a rotation parameter")
            object.__setattr__(self, "param", normalize_angle(self.param))
        elif self.param is not None:
            raise ValueError(f"gate {self.name!r} does not take a parameter")
        arity = _BASE_ARITY.get(self.name)
        if arity is not None and len(self.qubits) != arity:
            raise ValueError(
                f"gate {self.name!r} acts on {arity} qubit(s), got {self.qubits}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubits in gate: {self.qubits}")

    # -- structural helpers -------------------------------------------------

    @property
    def arity(self) -> int:
        """Number of qubits the gate touches."""
        return len(self.qubits)

    @property
    def is_identity(self) -> bool:
        """True for rotations indistinguishable from the identity."""
        return self.name == "rz" and self.param == 0.0

    def on(self, *qubits: int) -> "Gate":
        """Return a copy of this gate acting on different qubits."""
        return Gate(self.name, tuple(qubits), self.param)

    def touches(self, qubit: int) -> bool:
        """True if this gate acts on ``qubit``."""
        return qubit in self.qubits

    def overlaps(self, other: "Gate") -> bool:
        """True if this gate shares at least one qubit with ``other``."""
        mine = self.qubits
        return any(q in mine for q in other.qubits)

    def inverse(self) -> "Gate":
        """The inverse gate (h, x, cnot are self-inverse; rz negates)."""
        if self.name == "rz":
            assert self.param is not None
            return Gate("rz", self.qubits, -self.param)
        return self

    # -- matrices ------------------------------------------------------------

    def matrix(self) -> np.ndarray:
        """Dense matrix on the gate's own qubits (2x2 or 4x4).

        For two-qubit gates the returned matrix uses the convention that
        ``qubits[0]`` is the most-significant bit of the row/column index.
        """
        return gate_matrix(self.name, self.param)

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:  # pragma: no cover - trivial formatting
        if self.param is not None:
            return f"{self.name}({self.param:.6g}) {list(self.qubits)}"
        return f"{self.name} {list(self.qubits)}"


def gate_matrix(name: str, param: Optional[float] = None) -> np.ndarray:
    """Return the dense matrix for gate ``name`` (fresh copy).

    ``cnot`` uses ``(control, target)`` ordering with the control as the
    most-significant index bit.
    """
    if name == "h":
        return _H_MATRIX.copy()
    if name == "x":
        return _X_MATRIX.copy()
    if name == "rz":
        if param is None:
            raise ValueError("rz matrix requires a parameter")
        return np.array(
            [[1.0, 0.0], [0.0, np.exp(1j * param)]], dtype=np.complex128
        )
    if name == "cnot":
        return np.array(
            [
                [1, 0, 0, 0],
                [0, 1, 0, 0],
                [0, 0, 0, 1],
                [0, 0, 1, 0],
            ],
            dtype=np.complex128,
        )
    raise ValueError(f"unknown gate name: {name!r}")


# -- convenience constructors -------------------------------------------------


def H(q: int) -> Gate:
    """Hadamard on qubit ``q``."""
    return Gate("h", (q,))


def X(q: int) -> Gate:
    """Pauli-X on qubit ``q``."""
    return Gate("x", (q,))


def CNOT(control: int, target: int) -> Gate:
    """Controlled-NOT with the given control and target qubits."""
    return Gate("cnot", (control, target))


def RZ(q: int, theta: float) -> Gate:
    """Z-rotation ``diag(1, e^{i theta})`` on qubit ``q``."""
    return Gate("rz", (q,), theta)


def gates_qubit_span(gates: Iterable[Gate]) -> int:
    """Smallest qubit count that accommodates every gate in ``gates``."""
    top = -1
    for g in gates:
        for q in g.qubits:
            if q > top:
                top = q
    return top + 1
