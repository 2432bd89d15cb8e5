"""Circuit substrate: gates, circuits, layering, QASM I/O, random circuits."""

from .circuit import Circuit
from .encoding import (
    EncodedSegment,
    decode_segment,
    encode_segment,
    encoded_nbytes,
    pack_segment,
    pack_segment_into,
    packed_segment_nbytes,
    segment_fingerprint,
    unpack_segment_from,
)
from .gate import (
    ANGLE_TOL,
    CNOT,
    GATE_NAMES,
    RZ,
    Gate,
    H,
    X,
    gate_matrix,
    gates_qubit_span,
    is_zero_angle,
    normalize_angle,
)
from .intern import GateTable
from .layering import (
    circuit_depth,
    flatten_layers,
    layers_alap,
    layers_asap,
    left_justified,
    right_justified,
)
from .qasm import QasmError, parse_qasm, read_qasm, to_qasm, write_qasm
from .random_circuits import (
    random_circuit,
    random_redundant_circuit,
    random_segment,
)

__all__ = [
    "ANGLE_TOL",
    "CNOT",
    "Circuit",
    "EncodedSegment",
    "GATE_NAMES",
    "decode_segment",
    "encode_segment",
    "encoded_nbytes",
    "Gate",
    "GateTable",
    "H",
    "QasmError",
    "RZ",
    "X",
    "circuit_depth",
    "flatten_layers",
    "gate_matrix",
    "gates_qubit_span",
    "is_zero_angle",
    "layers_alap",
    "layers_asap",
    "left_justified",
    "normalize_angle",
    "pack_segment",
    "pack_segment_into",
    "packed_segment_nbytes",
    "parse_qasm",
    "random_circuit",
    "random_redundant_circuit",
    "random_segment",
    "read_qasm",
    "segment_fingerprint",
    "right_justified",
    "to_qasm",
    "unpack_segment_from",
    "write_qasm",
]
