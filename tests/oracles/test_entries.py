"""The column engine's three entries, and the opaque-gate rule.

``NamOracle`` takes a segment as gates (``__call__``), as wire arrays
(``run_packed``) or as ids of a ``GateTable`` (``run_ids``).  All three
must give exactly what the ``Gate``-based sweeps they replaced give
(:mod:`tests.oracles.reference_engine`), byte for byte, on base-set
segments and on segments mixed with opaque gates of every arity; the id
entry builds a ``Gate`` only for a value its table has not seen.  Then
the rule itself: only ``h``, ``x`` and ``cnot`` self-cancel and only
``rz`` merges — an opaque gate never starts a walk, blocks every walk it
meets and passes through, through the oracle and through ``popqc``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import (
    CNOT,
    RZ,
    Circuit,
    Gate,
    H,
    X,
    encode_segment,
    pack_segment,
    random_redundant_circuit,
)
from repro.circuits import gate as gate_module
from repro.circuits.intern import GateTable
from repro.core import popqc
from repro.oracles import BASELINE_PASSES, DEFAULT_PASSES, EXTENDED_PASSES, NamOracle

from .reference_engine import ReferenceOracle

PIPELINES = pytest.mark.parametrize(
    "passes,fixpoint",
    [(DEFAULT_PASSES, True), (EXTENDED_PASSES, True), (BASELINE_PASSES, False)],
    ids=["default", "extended", "baseline-single-sweep"],
)

T, S = Gate("t", (0,)), Gate("s", (0,))

OPAQUE = [
    T,
    Gate("s", (1,)),
    Gate("swap", (0, 1)),
    Gate("cz", (1, 2)),
    Gate("ccx", (2, 0, 1)),
    Gate("ccx", (0, 3, 1)),
    Gate("barrier", ()),
]


@st.composite
def mixed_segments(draw):
    """A redundant base-set segment with opaque gates dropped in."""
    gates = list(
        random_redundant_circuit(
            draw(st.integers(4, 6)),
            draw(st.integers(0, 120)),
            seed=draw(st.integers(0, 10**6)),
        ).gates
    )
    for _ in range(draw(st.integers(0, 6))):
        gates.insert(draw(st.integers(0, len(gates))), draw(st.sampled_from(OPAQUE)))
    return gates


def _wire(gates) -> bytes:
    return pack_segment(encode_segment(gates))


def _three_entries(oracle, gates) -> list[bytes]:
    """The packed output of each entry: gates, wire arrays, ids."""
    table = GateTable()
    ids = oracle.run_ids(table.intern(gates), table)
    return [
        _wire(oracle(gates)),
        pack_segment(oracle.run_packed(encode_segment(gates))),
        pack_segment(table.encoded(ids)),
    ]


class TestThreeEntries:
    @PIPELINES
    @given(mixed_segments())
    @settings(max_examples=40, deadline=None)
    def test_equal_the_gate_engine(self, passes, fixpoint, gates):
        want = _wire(ReferenceOracle(passes, fixpoint)(gates))
        got = _three_entries(NamOracle(passes, fixpoint=fixpoint), gates)
        assert got == [want] * 3

    def test_an_unchanged_segment_is_answered_with_its_input(self):
        gates = [H(0), CNOT(0, 1), RZ(1, 0.5)]
        encoded, table = encode_segment(gates), GateTable()
        ids = table.intern(gates)
        assert NamOracle().run_packed(encoded) is encoded
        assert NamOracle().run_ids(ids, table) is ids

    def test_the_id_entry_builds_a_gate_only_for_a_new_value(self, monkeypatch):
        table, oracle = GateTable(), NamOracle()
        gates = [RZ(0, 0.25), CNOT(0, 1), RZ(0, 0.5), H(1), H(1), X(2), X(2)]
        ids = table.intern(gates)
        want = [CNOT(0, 1), RZ(0, 0.75)]
        built = []
        real_init = gate_module.Gate.__post_init__
        def counting(gate):
            built.append(gate)
            real_init(gate)

        monkeypatch.setattr(gate_module.Gate, "__post_init__", counting)
        out = oracle.run_ids(ids, table)
        assert built == want[1:] and len(table) == 6  # the merged rotation
        assert oracle.run_ids(ids, table).tolist() == out.tolist()
        assert built == want[1:] and len(table) == 6  # now the table's own value
        monkeypatch.undo()
        assert table.gates_of(out) == want


class TestOpaqueGates:
    """The reported cases; each was rewritten as a known gate before."""

    CASES = {
        "t t (= s)": [T, T],
        "s s (= z)": [S, S],
        "swap h swap": [Gate("swap", (0, 1)), H(1), Gate("swap", (0, 1))],
        "cz h cz": [Gate("cz", (0, 1)), H(1), Gate("cz", (0, 1))],
        "ccx x ccx": [Gate("ccx", (0, 1, 2)), X(1), Gate("ccx", (0, 1, 2))],
        "h t h": [H(0), T, H(0)],
        "x cz x": [X(1), Gate("cz", (0, 1)), X(1)],
        "cnot t cnot": [CNOT(0, 1), Gate("t", (1,)), CNOT(0, 1)],
        "rz cz rz": [RZ(0, 0.5), Gate("cz", (0, 1)), RZ(0, 0.25)],
        "arity 0": [Gate("barrier", ())],
    }

    @PIPELINES
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_passes_through_every_entry_untouched(self, passes, fixpoint, case):
        gates = self.CASES[case]
        oracle = NamOracle(passes, fixpoint=fixpoint)
        assert oracle(gates) == gates
        assert _three_entries(oracle, gates) == [_wire(gates)] * 3

    def test_base_gates_still_meet_past_one_on_another_wire(self):
        barrier, t1, ccx = Gate("barrier", ()), Gate("t", (1,)), Gate("ccx", (1, 2, 3))
        gates = [barrier, H(0), t1, H(0), ccx]
        assert NamOracle()(gates) == [barrier, t1, ccx]
        assert _three_entries(NamOracle(), gates) == [_wire(NamOracle()(gates))] * 3

    def test_popqc_keeps_t_t(self):
        circuit = Circuit([T, T, H(0)], 1)
        assert popqc(circuit, NamOracle(), 4).circuit.gates == (T, T, H(0))
        swap = Gate("swap", (0, 1))
        circuit = Circuit([swap, H(1), swap, X(0), X(0)], 2)
        assert popqc(circuit, NamOracle(), 4).circuit.gates == (swap, H(1), swap)
