"""GateStore: popqc's id-column store, and what the driver still promises.

The stateful model (``test_tombstone_stateful.py``) covers the
rank/select bookkeeping; these tests cover the store's gate-facing
edges — lazy segments out, wire-form results in — and the driver
features that must keep seeing real gate sequences through it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    CNOT,
    RZ,
    Circuit,
    Gate,
    H,
    X,
    random_redundant_circuit,
    to_qasm,
)
from repro.circuits import intern
from repro.circuits.encoding import encode_segment, pack_segment
from repro.core import (
    FenwickTree,
    GateStore,
    IndexTree,
    NaiveIndex,
    layered_popqc,
    popqc,
)
from repro.core.popqc import OracleContractViolation
from repro.core.trace import popqc_traced
from repro.oracles import NamOracle
from repro.parallel import LazySegmentResult, ProcessMap, SerialMap
from repro.parallel.results import DecodeStats

GATES = [H(0), CNOT(0, 1), RZ(1, 0.5), X(2), H(0), CNOT(0, 1), RZ(1, 0.5), X(2)]


class TestStore:
    @pytest.mark.parametrize("tree_factory", [IndexTree, FenwickTree, NaiveIndex])
    def test_segment_rewrite_items(self, tree_factory):
        store = GateStore(GATES, tree_factory)
        assert len(store) == store.live_count == 8
        assert len(store.table) == 4  # distinct values, not gates
        slots, segment = store.segment(2, 6)
        assert isinstance(segment, LazySegmentResult) and not segment.decoded
        assert slots.tolist() == [2, 3, 4, 5] and segment == GATES[2:6]
        store.rewrite([(slots, [X(1)])])
        assert store.live_count == 5 and len(store) == 8
        assert store.items() == GATES[:2] + [X(1)] + GATES[6:]
        assert store.before(6) == 3 and store.index_of(3) == 6
        slots, segment = store.segment(1, 4)  # spans the tombstone run
        assert slots.tolist() == [1, 2, 6] and segment == [CNOT(0, 1), X(1), RZ(1, 0.5)]

    def test_segment_clamps_and_may_be_empty(self):
        store = GateStore(GATES)
        assert store.segment(-3, 2)[1] == GATES[:2]
        assert store.segment(6, 99)[1] == GATES[6:]
        slots, segment = store.segment(5, 5)
        assert len(slots) == 0 and len(segment) == 0 and segment == []
        empty = GateStore([])
        assert empty.live_count == 0 and empty.items() == []

    def test_wire_form_result_goes_in_without_gate_objects(self, monkeypatch):
        store = GateStore(GATES)
        slots, _ = store.segment(0, 4)
        stats = DecodeStats()
        result = LazySegmentResult.from_packed(
            pack_segment(encode_segment([X(2), H(0)])), stats
        )
        monkeypatch.setattr(
            intern, "Gate", lambda *a: pytest.fail("both values are in the table")
        )
        store.rewrite([(slots, result)])
        assert not result.decoded  # no gate list was ever built ...
        assert stats.results_decoded == 1  # ... yet it counts as read
        assert store.items() == [X(2), H(0)] + GATES[4:]

    def test_a_decoded_result_goes_in_by_identity(self):
        store = GateStore(GATES)
        slots, segment = store.segment(0, 4)
        result = LazySegmentResult.from_gates(segment.gates()[:2])
        store.rewrite([(slots, result)])
        assert store.items() == GATES[:2] + GATES[4:]
        assert len(store.table) == 4


class _Spy:
    def __init__(self, fn):
        self.fn, self.seen = fn, []

    def __call__(self, arg):
        self.seen.append(arg)
        return self.fn(arg)


def _cancel_hh(segment):
    """A tiny oracle that knows nothing but ``h h = 1``."""
    out = []
    for g in segment:
        if out and g.name == "h" and out[-1] == g:
            out.pop()
        else:
            out.append(g)
    return out


CIRCUIT = random_redundant_circuit(5, 400, seed=12, redundancy=0.6)


@pytest.fixture(scope="module")
def reference():
    return popqc(CIRCUIT, NamOracle(), 12)


@pytest.fixture
def pool():
    pm = ProcessMap(2, serial_cutoff=0)
    yield pm
    pm.close()


def test_a_batch_run_fills_no_row_digest(monkeypatch):
    """Row digests are for content keys, which only a served job's cache
    asks for: a ``popqc`` run over a fresh store computes none."""
    fills = []
    monkeypatch.setattr(intern.GateTable, "_fill_digests", lambda t: fills.append(t))
    circuit = random_redundant_circuit(6, 400, seed=5, redundancy=0.5)
    pool = ProcessMap(2)
    try:
        for parmap in (SerialMap(), pool):
            popqc(circuit, NamOracle(), 25, parmap=parmap)
    finally:
        pool.close()
    assert fills == []


class TestDriverStillSeesGates:
    def test_plain_map_gets_real_lists(self, reference):
        oracle = _Spy(NamOracle())
        got = popqc(CIRCUIT, oracle, 12)
        assert got.circuit.gates == reference.circuit.gates
        assert oracle.seen and all(type(seg) is list for seg in oracle.seen)

    def test_custom_cost_sees_gate_sequences(self, reference, pool):
        """A cost that iterates, indexes and slices its argument —
        on the lazy segments a byte transport is handed, too."""

        def cost(gates):
            assert all(isinstance(g, Gate) for g in gates)
            assert len(gates[:1]) <= 1
            assert not len(gates) or gates[0] == list(gates)[0]
            return float(len(gates))

        for parmap in (None, pool):
            got = popqc(CIRCUIT, NamOracle(), 12, cost=cost, parmap=parmap)
            assert got.circuit.gates == reference.circuit.gates
            assert got.stats.rounds == reference.stats.rounds

    def test_validate_oracle(self, reference, pool):
        for parmap in (None, pool):
            got = popqc(CIRCUIT, NamOracle(), 12, validate_oracle=True, parmap=parmap)
            assert got.circuit.gates == reference.circuit.gates

    def test_validate_oracle_still_catches_a_bad_oracle(self):
        def drop_one(segment):
            return list(segment[1:])

        with pytest.raises(OracleContractViolation):
            popqc(Circuit([H(0), X(1), H(1)] * 4, 2), drop_one, 4, validate_oracle=True)

    def test_gates_outside_the_base_set(self, pool):
        """swap and three-qubit gates ride through the store, the wire
        and the workers' tables untouched; what cancels around them
        still cancels."""
        gates = []
        for k in range(40):
            gates += [H(0), H(0), Gate("swap", (0, 1)), Gate("ccx", (2, 0, 1))]
            gates.append(X(k % 3))

        want = popqc(gates, _cancel_hh, 6)
        assert want.circuit.num_gates == 120
        assert Gate("ccx", (2, 0, 1)) in want.circuit.gates
        got = popqc(gates, _cancel_hh, 6, parmap=pool)
        assert got.circuit.gates == want.circuit.gates
        assert got.stats.oracle_accepted == want.stats.oracle_accepted

    def test_fenwick_factory_on_a_byte_transport(self, reference, pool):
        got = popqc(CIRCUIT, NamOracle(), 12, tree_factory=FenwickTree, parmap=pool)
        assert got.circuit.gates == reference.circuit.gates

    def test_store_ids_are_int32(self):
        assert GateStore(GATES)._ids.dtype == np.int32


# -- wire-form input: just another Sequence[Gate] -------------------------------

_ANGLES = (0.25, 0.5, -0.25, 3.0)


@st.composite
def _redundant_gates(draw):
    """Base-set circuits on four qubits that do cancel and merge, with
    the odd ``ccx`` (outside the narrow wire path) thrown in."""
    gates = []
    for kind, a, b, c in draw(
        st.lists(
            st.tuples(st.integers(0, 8), *[st.integers(0, 3)] * 3),
            min_size=1,
            max_size=90,
        )
    ):
        if kind <= 1:
            gates.append(H(a))
        elif kind == 2:
            gates.append(X(a))
        elif kind <= 4 and a != b:
            gates.append(CNOT(a, b))
        elif kind <= 7:
            gates.append(RZ(a, _ANGLES[b]))
        elif len({a, b, c}) == 3:
            gates.append(Gate("ccx", (a, b, c)))
    return gates


def _wire(gates):
    return LazySegmentResult.from_encoded(encode_segment(gates))


def _account(result):
    stats = result.stats
    return (
        result.circuit.num_qubits,
        result.circuit.gates,
        stats.rounds,
        stats.oracle_calls,
        [(r.fingers, r.selected, r.accepted) for r in stats.per_round],
    )


@pytest.fixture(scope="module")
def shared_pool():
    pm = ProcessMap(2, serial_cutoff=0)
    yield pm
    pm.close()


class TestWireFormInput:
    """A circuit still in wire arrays goes in like any gate sequence:
    same output, same rounds, same calls — and no ``Gate`` per gate."""

    @settings(max_examples=40, deadline=None)
    @given(_redundant_gates(), st.sampled_from([4, 8, 25]))
    def test_popqc_layered_and_traced_agree_with_gate_input(
        self, shared_pool, gates, omega
    ):
        for parmap in (SerialMap(), shared_pool):
            want = popqc(Circuit(gates), NamOracle(), omega, parmap=parmap)
            got = popqc(_wire(gates), NamOracle(), omega, parmap=parmap)
            assert _account(got)[1:] == _account(want)[1:]
            assert _account(got) == _account(popqc(gates, NamOracle(), omega))
            assert got.circuit is got.circuit  # built once, on first read
            if all(g.name != "ccx" for g in gates):  # which QASM cannot say
                assert to_qasm(Circuit(got.gates, want.circuit.num_qubits)) == to_qasm(
                    want.circuit
                )
        # (a raw sequence carries no register: its output's is inferred)
        want = layered_popqc(Circuit(gates), NamOracle(), omega)
        got = layered_popqc(_wire(gates), NamOracle(), omega)
        assert _account(got)[1:] == _account(want)[1:]
        want, want_trace = popqc_traced(Circuit(gates), NamOracle(), omega)
        got, got_trace = popqc_traced(_wire(gates), NamOracle(), omega)
        assert got.circuit.gates == want.circuit.gates and got_trace == want_trace

    @settings(max_examples=40, deadline=None)
    @given(_redundant_gates())
    def test_items_pack_to_the_reference_bytes(self, gates):
        for source in (gates, _wire(gates)):
            store = GateStore(source)
            items = store.items()
            assert not items.decoded
            assert items.packed_bytes() == pack_segment(encode_segment(gates))
            assert items == gates
            slots, segment = store.segment(0, 2)
            store.rewrite([(slots, segment[:1])])
            assert store.items().packed_bytes() == pack_segment(
                encode_segment(gates[:1] + gates[2:])
            )
            assert items == gates  # a copy of the column, not a view

    def test_wire_input_builds_gates_per_distinct_value(self, monkeypatch):
        from repro.circuits import gate as gate_module

        built = []
        real_init = Gate.__post_init__
        source = _wire(CIRCUIT.gates)
        monkeypatch.setattr(
            gate_module.Gate,
            "__post_init__",
            lambda self: (built.append(self), real_init(self))[1],
        )
        store = GateStore(source)
        encoded = store.items().encoded()
        monkeypatch.undo()
        assert len(built) == len(store.table) == len(set(CIRCUIT.gates)) < 60
        assert pack_segment(encoded) == pack_segment(encode_segment(CIRCUIT.gates))

    def test_iterating_cost_and_validate_oracle_on_wire_input(self, reference):
        seen = []

        def cost(gates):
            seen.append(gates)
            return float(sum(1 for g in gates if isinstance(g, Gate)))

        got = popqc(_wire(CIRCUIT.gates), NamOracle(), 12, cost=cost)
        assert got.circuit.gates == reference.circuit.gates
        assert got.stats.rounds == reference.stats.rounds
        assert got.stats.initial_cost == len(CIRCUIT.gates) and len(seen) > 2
        got = popqc(_wire(CIRCUIT.gates), NamOracle(), 12, validate_oracle=True)
        assert got.circuit.gates == reference.circuit.gates


# -- id-backed input: the store adopts the table the ids are of ----------------


@pytest.fixture(scope="module")
def pool():
    pm = ProcessMap(2, serial_cutoff=0)
    yield pm
    pm.close()


#: One table for every example below, as a daemon's jobs share one:
#: what an earlier example left in it must never show.
SHARED = intern.GateTable()


def _as_ids(gates):
    return LazySegmentResult.from_ids(SHARED.intern(gates), SHARED)


class TestIdBackedInput:
    """A circuit held as ids of a shared table goes in like any gate
    sequence — run after run, on a table earlier runs have grown."""

    @settings(max_examples=40, deadline=None)
    @given(_redundant_gates(), st.sampled_from([4, 8, 25]))
    def test_popqc_layered_and_traced_agree_with_gate_input(
        self, pool, gates, omega
    ):
        for parmap in (SerialMap(), pool):
            want = popqc(Circuit(gates), NamOracle(), omega, parmap=parmap)
            for _ in range(3):
                source = _as_ids(gates)
                got = popqc(source, NamOracle(), omega, parmap=parmap)
                assert _account(got)[1:] == _account(want)[1:]
                assert got.gates.interned[1] is SHARED
                assert source == gates  # the input's ids are not the store's column
        want = layered_popqc(Circuit(gates), NamOracle(), omega)
        got = layered_popqc(_as_ids(gates), NamOracle(), omega, parmap=pool)
        assert _account(got)[1:] == _account(want)[1:]
        want, want_trace = popqc_traced(Circuit(gates), NamOracle(), omega)
        got, got_trace = popqc_traced(
            _as_ids(gates), NamOracle(), omega, parmap=pool
        )
        assert got.circuit.gates == want.circuit.gates and got_trace == want_trace

    def test_the_store_adopts_the_table_and_takes_its_ids_without_a_codec(
        self, monkeypatch
    ):
        table = intern.GateTable()
        source = LazySegmentResult.from_ids(table.intern(GATES), table)
        store = GateStore(source)
        assert store.table is table and len(GateStore(GATES).table) == len(table)
        for name in ("intern", "ids_from_encoded", "encoded"):
            monkeypatch.setattr(
                intern.GateTable, name, lambda *args: pytest.fail("codec")
            )
        slots, segment = store.segment(0, 4)
        store.rewrite([(slots, LazySegmentResult.from_ids(segment.interned[0][:2], table))])
        assert store.live_count == len(GATES) - 2
        monkeypatch.undo()
        assert store.items() == GATES[:2] + GATES[4:] and source == GATES
