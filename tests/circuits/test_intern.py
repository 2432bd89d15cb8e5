"""Property tests for interned gates (:mod:`repro.circuits.intern`).

The table is only a cache if nothing observable depends on it: the wire
arrays it gathers for an id array must be *the* canonical encoding —
equal packed bytes, hence equal cache keys — and wire arrays must come
back as the gates the reference decoder would build, whatever the table
had seen before.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.circuits import CNOT, RZ, Gate, H, X, encoding
from repro.circuits import intern
from repro.circuits.encoding import (
    decode_segment,
    encode_segment,
    pack_segment,
    segment_fingerprint,
)
from repro.circuits.gate import ANGLE_TOL, TWO_PI
from repro.circuits.intern import GateTable, thread_table

#: Angles at the edges of ``normalize_angle``: both sides of 0 and of
#: 2*pi, inside and outside the tolerance, negative, and many turns out.
EDGE_ANGLES = (
    0.0,
    -0.0,
    ANGLE_TOL / 2,
    -ANGLE_TOL / 2,
    2 * ANGLE_TOL,
    -2 * ANGLE_TOL,
    TWO_PI,
    TWO_PI - ANGLE_TOL / 2,
    TWO_PI - 2 * ANGLE_TOL,
    TWO_PI + 0.25,
    -0.25,
    math.pi,
    7 * math.pi / 4,
    1e6,
)


@st.composite
def any_gate(draw, num_qubits: int = 6):
    """A gate from well outside the base set: any arity 0-3, many names."""
    kind = draw(st.integers(0, 7))
    qubits = st.lists(
        st.integers(0, num_qubits - 1), min_size=0, max_size=3, unique=True
    )
    if kind == 0:
        return H(draw(st.integers(0, num_qubits - 1)))
    if kind == 1:
        return X(draw(st.integers(0, num_qubits - 1)))
    if kind == 2:
        a, b = draw(st.permutations(range(num_qubits)))[:2]
        return CNOT(a, b)
    if kind in (3, 4):
        angle = draw(st.one_of(st.sampled_from(EDGE_ANGLES), st.floats(-50, 50)))
        return RZ(draw(st.integers(0, num_qubits - 1)), angle)
    if kind == 5:
        a, b = draw(st.permutations(range(num_qubits)))[:2]
        return Gate("swap", (a, b))
    if kind == 6:
        return Gate("ccx", tuple(draw(st.permutations(range(num_qubits)))[:3]))
    return Gate(f"g{draw(st.integers(0, 5))}", tuple(draw(qubits)))


any_gates = st.lists(any_gate(), max_size=40)
#: Segments of arity <= 2 only: these take the gathered path for sure.
narrow_gates = any_gates.map(lambda gates: [g for g in gates if g.arity <= 2])


def _same_wire(table, gates):
    ids = table.intern(gates)
    want = encode_segment(gates)
    got = table.encoded(ids)
    assert pack_segment(got) == pack_segment(want)
    assert segment_fingerprint(pack_segment(got)) == segment_fingerprint(
        pack_segment(want)
    )
    # array for array, dtype for dtype
    assert got == want and got.names == want.names
    assert got.ops.dtype == want.ops.dtype and got.arities.dtype == want.arities.dtype
    assert got.qubits.dtype == want.qubits.dtype
    return ids


class TestEncodedIsCanonical:
    @given(any_gates)
    def test_packed_bytes_equal_reference(self, gates):
        _same_wire(GateTable(), gates)

    @given(narrow_gates, narrow_gates)
    def test_independent_of_what_the_table_saw_before(self, earlier, gates):
        table = GateTable()
        table.intern(earlier)
        _same_wire(table, gates)

    def test_empty_segment(self):
        table = GateTable()
        assert len(_same_wire(table, [])) == 0
        table.intern([H(0), RZ(1, 0.5)])
        _same_wire(table, [])

    def test_more_than_256_names(self):
        gates = [Gate(f"u{i}", (i % 5,)) for i in range(300)] + [H(0), CNOT(0, 1)]
        table = GateTable()
        _same_wire(table, gates)
        assert table.encoded(table.intern(gates)).ops.dtype == np.int32
        # ... while a narrow slice of the same table is back to uint8
        assert table.encoded(table.intern(gates[:10])).ops.dtype == np.uint8

    def test_swap_and_three_qubit_gates(self):
        ccx = Gate("ccx", (2, 0, 1))
        gates = [Gate("swap", (0, 3)), ccx, H(4), Gate("ccx", (2, 0, 1))]
        ids = _same_wire(GateTable(), gates)
        assert ids[1] == ids[3]

    @pytest.mark.parametrize("angle", EDGE_ANGLES)
    def test_angle_edges(self, angle):
        _same_wire(GateTable(), [RZ(0, angle), H(0), RZ(0, angle + TWO_PI)])

    def test_equal_gates_share_an_id_and_an_object(self):
        table = GateTable()
        ids = table.intern([H(0), H(0), RZ(1, 0.25), RZ(1, 0.25 + TWO_PI)])
        assert ids[0] == ids[1] != ids[2] == ids[3] and len(table) == 2
        first, second = table.gates_of(ids)[:2]
        assert first is second


class TestIdsFromEncoded:
    @given(any_gates)
    def test_round_trip_through_a_fresh_table(self, gates):
        table = GateTable()
        ids = table.ids_from_encoded(encode_segment(gates))
        assert table.gates_of(ids) == gates
        assert ids.dtype == np.int32

    @given(narrow_gates, narrow_gates)
    def test_agrees_with_intern(self, earlier, gates):
        """Wire values and gate objects of equal value meet in one id."""
        table = GateTable()
        table.ids_from_encoded(encode_segment(earlier))
        by_value = table.intern(gates)
        from_wire = table.ids_from_encoded(encode_segment(gates))
        assert from_wire.tolist() == by_value.tolist()

    @given(narrow_gates, narrow_gates)
    def test_grouped_and_per_gate_probes_agree(self, earlier, gates):
        """From ``GROUP_FROM`` gates up, equal wire values are grouped
        in numpy and probed once each: the same gates come back, from
        the same rows, as one probe per gate finds."""
        encoded = encode_segment(gates)
        probed, grouped = GateTable(), GateTable()
        for table in (probed, grouped):
            table.intern(earlier)
        with mock.patch.object(intern, "GROUP_FROM", 1):
            ids = grouped.ids_from_encoded(encoded)
            assert ids.tolist() == grouped.ids_from_encoded(encoded).tolist()
        assert grouped.gates_of(ids) == gates == decode_segment(encoded)
        assert ids.dtype == np.int32 and len(grouped) == len(set(earlier + gates))
        assert ids.tolist() == grouped.intern(gates).tolist()
        assert probed.gates_of(probed.ids_from_encoded(encoded)) == gates
        assert len(probed) == len(grouped)

    @pytest.mark.parametrize(
        "gates",
        [
            # a key too wide for one int64 (radix overflow), a negative
            # qubit: no grouping, one probe per gate
            [Gate(f"u{k}", (2**31 - 1 - k, k)) for k in range(40)] * 2,
            [Gate("h", (-1,)), Gate("cnot", (3, -2)), Gate("h", (-1,))],
        ],
    )
    def test_grouping_steps_aside_when_a_key_does_not_fit(self, gates, monkeypatch):
        monkeypatch.setattr(intern, "GROUP_FROM", 1)
        table = GateTable()
        ids = table.ids_from_encoded(encode_segment(gates))
        assert table.gates_of(ids) == gates and len(table) == len(set(gates))

    def test_a_whole_circuit_groups(self, monkeypatch):
        """Past ``GROUP_FROM`` by itself: a benchmark instance, with
        ``-0.0`` and ``0.0`` angles thrown in (one wire value)."""
        from repro.benchgen import generate

        gates = list(generate("StateVec", 0, seed=1).gates) + [RZ(0, -0.0), RZ(0, 0.0)]
        assert len(gates) > intern.GROUP_FROM
        probes = []
        real_get = dict.get

        class Counting(dict):
            def get(self, key):
                probes.append(key)
                return real_get(self, key)

        table = GateTable()
        table._by_key = Counting()
        ids = table.ids_from_encoded(encode_segment(gates))
        assert table.gates_of(ids) == gates
        assert len(probes) == len(table) == len(set(gates)) < len(gates) // 2

    def test_builds_a_gate_only_for_a_first_seen_value(self, monkeypatch):
        built = []
        real = intern.Gate

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(intern, "Gate", counting)
        table = GateTable()
        segment = encode_segment([H(0), CNOT(0, 1), RZ(1, 0.5)] * 20)
        table.ids_from_encoded(segment)
        assert len(built) == 3
        table.ids_from_encoded(segment)
        table.ids_from_encoded(encode_segment([RZ(1, 0.5), H(0), X(2)]))
        assert len(built) == 4  # only x(2) was new

    def test_wire_values_are_validated_and_normalized(self):
        """Like the reference decoder: a raw wire angle is normalized,
        an rz without an angle is refused."""
        raw = encode_segment([RZ(0, 0.5)])
        unnormalized = encoding.EncodedSegment(
            raw.names, raw.ops, raw.arities, raw.qubits, raw.param_mask,
            np.array([0.5 + TWO_PI]), 1,
        )
        table = GateTable()
        ids = table.ids_from_encoded(unnormalized)
        assert table.gates_of(ids) == decode_segment(unnormalized)
        assert table.ids_from_encoded(raw).tolist() == ids.tolist()
        broken = encoding.EncodedSegment(
            raw.names, raw.ops, raw.arities, raw.qubits, np.zeros(1, np.uint8),
            np.empty(0), 1,
        )
        with pytest.raises(ValueError):
            GateTable().ids_from_encoded(broken)


class TestContentKeys:
    """An id segment's content key hashes its rows' value digests: the
    gates decide it, not the table, the ids or the order rows came in."""

    GATES = [H(0), CNOT(0, 1), RZ(1, 0.3), Gate("ccx", (0, 1, 2)), X(2)]

    @staticmethod
    def _key(gates, namespace=b"ns"):
        table = GateTable()
        return table.content_key(table.intern(gates), namespace)

    @given(any_gates, any_gates, any_gates)
    def test_equal_keys_iff_equal_gates_whatever_the_table_saw(self, seen, a, b):
        table = GateTable()
        table.intern(seen)
        assert (table.content_key(table.intern(a)) == self._key(b, b"")) is (a == b)

    def test_tables_that_chose_other_ids_agree(self):
        forward, backward = GateTable(), GateTable()
        forward.intern(self.GATES)
        backward.intern(self.GATES[::-1])
        ids, other = forward.intern(self.GATES), backward.intern(self.GATES)
        assert ids.tolist() != other.tolist()
        key = forward.content_key(ids, b"ns")
        assert backward.content_key(other, b"ns") == key == self._key(self.GATES)
        assert self._key(self.GATES, b"other oracle") != key

    @pytest.mark.parametrize(
        "index, changed",
        [
            (1, CNOT(1, 0)),  # qubits swapped
            (2, RZ(1, math.nextafter(0.3, 1.0))),  # one ulp apart
            (3, Gate("ccz", (0, 1, 2))),  # another opaque name
        ],
    )
    def test_one_value_changed_changes_the_key(self, index, changed):
        other = list(self.GATES)
        other[index] = changed
        assert other != self.GATES
        assert self._key(other) != self._key(self.GATES)


class TestThreadTable:
    def test_replaced_as_a_whole_once_over_the_cap(self, monkeypatch):
        monkeypatch.setattr(intern, "TABLE_CAP", 8)
        monkeypatch.setattr(intern, "_THREAD", type(intern._THREAD)())
        table = thread_table()
        table.intern([RZ(0, 0.01 * k) for k in range(1, 9)])
        assert thread_table() is table and len(table) == 8  # at the cap: kept
        table.intern([H(0)])
        fresh = thread_table()  # over it: a new table, nothing carried over
        assert fresh is not table and len(fresh) == 0 and not fresh._by_key
        assert thread_table() is fresh
        _same_wire(fresh, [H(0), RZ(0, 0.02)])

    def test_one_table_per_thread(self):
        import threading

        seen = []
        worker = threading.Thread(target=lambda: seen.append(thread_table()))
        worker.start()
        worker.join()
        assert seen[0] is not thread_table()


class TestSharedBetweenThreads:
    """A daemon's job threads intern into one table: rows are created
    under its lock, read without one."""

    @pytest.mark.parametrize("attempt", range(4))  # a race needs its chances
    def test_hammer_one_id_per_value_and_canonical_bytes(self, attempt):
        """Six threads walk overlapping value sets, alternating the two
        ways in, across several doublings of the columns (64 rows to
        start with); four of them meet every new value at once."""
        import sys
        import threading

        values = [RZ(q, 0.001 * k) for k in range(1, 301) for q in range(3)]
        values += [Gate(f"u{k}", (k % 4,)) for k in range(40)]  # new names too
        values += [CNOT(a, b) for a in range(6) for b in range(6) if a != b]
        table = GateTable()
        start = threading.Barrier(6)
        outcome = {}

        def work(t):
            mine = values if t < 4 else values[t * 40 :] + values[: t * 40]
            start.wait()
            seen = []
            for lo in range(0, len(mine), 40):
                chunk = mine[lo : lo + 40]
                if (lo // 40 + t) % 2:
                    ids = table.intern([Gate(g.name, g.qubits, g.param) for g in chunk])
                else:
                    ids = table.ids_from_encoded(encode_segment(chunk))
                seen.append((chunk, ids))
                # what this thread just learned is readable at once
                assert pack_segment(table.encoded(ids)) == pack_segment(
                    encode_segment(chunk)
                )
            outcome[t] = seen

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(switch)
        assert sorted(outcome) == list(range(6))  # nobody raised
        assert len(table) == len(values) == len(set(table.gates)) > 64 * 8
        # the base set's four names from the start, then one per u{k}
        assert len(table._names) == len(set(table._names)) == 4 + 40
        for seen in outcome.values():
            for chunk, ids in seen:
                assert table.gates_of(ids) == chunk
                _same_wire(table, chunk)
                assert table.intern(chunk).tolist() == ids.tolist()

    @pytest.mark.parametrize("attempt", range(8))  # a race needs its chances
    def test_hammer_content_keys_while_others_intern(self, attempt):
        """Three threads intern new values (the digests' array doubles
        several times under them) while three ask for content keys of
        what they have seen interned; every key is the one a table of
        its own gives the same gates."""
        import sys
        import threading

        values = [RZ(q, 0.001 * k) for k in range(1, 201) for q in range(3)]
        values += [Gate(f"u{k}", (k % 4,)) for k in range(40)]
        chunks = [values[lo : lo + 20] for lo in range(0, len(values), 20)]
        want = [TestContentKeys._key(chunk) for chunk in chunks]
        table = GateTable()
        start, done = threading.Barrier(6), threading.Event()
        interned: list = []  # (chunk index, ids), appended once interned
        wrong = []

        def intern_chunks(t):
            start.wait()
            for c in range(t, len(chunks), 3):
                ids = table.intern(chunks[c])
                interned.append((c, ids))
                if table.content_key(ids, b"ns") != want[c]:
                    wrong.append(c)

        def ask_keys(t):
            start.wait()
            while not done.is_set():
                for c, ids in list(interned[t::3]):
                    if table.content_key(ids, b"ns") != want[c]:
                        wrong.append(c)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=intern_chunks if t < 3 else ask_keys, args=(t,))
                for t in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads[:3]:
                thread.join()
            done.set()
            for thread in threads[3:]:
                thread.join()
        finally:
            sys.setswitchinterval(switch)
        assert wrong == [] and len(table) == len(values) > 64 * 8
        assert [table.content_key(ids, b"ns") for _, ids in sorted(interned)] == [
            want[c] for c in range(len(chunks))
        ]

    def test_full_past_the_row_or_name_cap(self, monkeypatch):
        monkeypatch.setattr(intern, "TABLE_CAP", 4)
        rows, names = GateTable(), GateTable()
        rows.intern([RZ(0, 0.1 * k) for k in range(1, 5)])
        assert not rows.full
        rows.intern([H(0)])
        assert rows.full
        # names arrive before the values that use them are validated
        with pytest.raises(ValueError):
            names.ids_from_encoded(
                encoding.EncodedSegment(
                    ("rz", "n1", "n2", "n3", "n4"),  # ... and an rz with no angle
                    np.zeros(1, np.uint8), np.ones(1, np.uint8),
                    np.zeros(1, np.int32), np.zeros(1, np.uint8), np.empty(0), 1,
                )
            )
        assert len(names) == 0 and names.full
