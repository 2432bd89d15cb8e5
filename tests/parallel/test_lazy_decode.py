"""Lazy result decode: rejected oracle outputs are never unpacked.

POPQC's acceptance test needs only ``len()`` of an oracle result (the
default gate-count cost), and the packed wire format answers that from
its header.  These tests spy on the decode entry points in
:mod:`repro.circuits.encoding` — which every
:class:`~repro.parallel.results.LazySegmentResult` routes through — to
prove that a rejecting workload decodes *nothing*, while accepted
rewrites still produce byte-identical circuits on every transport.
Where no bytes cross — an ``encoded`` round for an oracle with an id
entry returns ids — nothing is counted as returned or decoded.
"""

import pytest

from repro.circuits import encoding, random_redundant_circuit, to_qasm
from repro.core import popqc
from repro.oracles import IdentityOracle, NamOracle
from repro.parallel import LazySegmentResult, ProcessMap
from repro.parallel.results import DecodeStats

CIRCUIT = random_redundant_circuit(8, 1200, seed=21, redundancy=0.5)
OMEGA = 40

#: The transports whose results carry packed bytes back to the parent.
BYTE_TRANSPORTS = ("encoded", "shm")


class _Spy:
    """Counts calls through one encoding entry point."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


@pytest.fixture
def decode_spies(monkeypatch):
    """Spies on the parent-process decode entry points.

    Worker processes import their own copy of the module, so these
    spies see exactly what the *driver* decodes — which is the claim
    under test.
    """
    unpack = _Spy(encoding.unpack_segment_from)
    decode = _Spy(encoding.decode_segment)
    monkeypatch.setattr(encoding, "unpack_segment_from", unpack)
    monkeypatch.setattr(encoding, "decode_segment", decode)
    return unpack, decode


@pytest.mark.parametrize("transport", BYTE_TRANSPORTS)
def test_rejected_results_never_unpacked(transport, decode_spies):
    """An all-rejecting run must not unpack a single oracle result."""
    unpack, decode = decode_spies
    pm = ProcessMap(2, serial_cutoff=0, transport=transport)
    try:
        res = popqc(CIRCUIT, IdentityOracle(), OMEGA, parmap=pm)
    finally:
        pm.close()
    assert res.stats.oracle_accepted == 0
    assert res.stats.results_returned > 0
    assert res.stats.results_decoded == 0
    counters = res.stats.counters
    assert counters["result_bytes_returned"] - counters["result_bytes_decoded"] > 0
    assert 1.0 - res.stats.results_decoded / res.stats.results_returned == 1.0
    assert unpack.calls == 0
    assert decode.calls == 0
    # nothing was optimized, so the circuit is unchanged
    assert list(res.circuit.gates) == list(CIRCUIT.gates)


class ByValueNam(NamOracle):
    """The Nam rules without the id entry: its pooled rounds go by value."""

    run_ids = None


@pytest.mark.parametrize("transport", BYTE_TRANSPORTS)
def test_accepting_runs_decode_only_accepted(transport):
    """A mixed workload decodes exactly the accepted results that came
    back as bytes.  On ``encoded`` an oracle with an id entry gets id
    rounds, which return no bytes at all: nothing to decode."""
    for oracle in (ByValueNam(), NamOracle()):
        pm = ProcessMap(2, serial_cutoff=0, transport=transport)
        try:
            res = popqc(CIRCUIT, oracle, OMEGA, parmap=pm)
        finally:
            pm.close()
        counters = res.stats.counters
        assert res.stats.oracle_accepted > 0
        if transport == "encoded" and oracle.run_ids is not None:
            assert res.stats.results_returned == res.stats.results_decoded == 0
            assert counters["result_bytes_returned"] == 0
            continue
        assert res.stats.results_decoded == res.stats.oracle_accepted
        assert res.stats.results_returned >= res.stats.results_decoded
        assert counters["result_bytes_decoded"] <= counters["result_bytes_returned"]


def test_accepted_circuits_identical_across_all_transports():
    """Lazy decode must not change a single output byte, anywhere."""
    want = popqc(CIRCUIT, NamOracle(), OMEGA)
    for transport in ("pickle", "encoded", "shm", "threads"):
        pm = ProcessMap(2, serial_cutoff=0, transport=transport)
        try:
            res = popqc(CIRCUIT, NamOracle(), OMEGA, parmap=pm)
        finally:
            pm.close()
        assert res.circuit.gates == want.circuit.gates, transport
        assert to_qasm(res.circuit) == to_qasm(want.circuit), transport


# -- LazySegmentResult unit behaviour ------------------------------------------


def _packed(gates):
    encoded = encoding.encode_segment(gates)
    buf = bytearray(encoding.packed_segment_nbytes(encoded))
    encoding.pack_segment_into(encoded, buf, 0)
    return bytes(buf)


def test_len_does_not_decode():
    from repro.circuits import CNOT, H

    gates = [H(0), CNOT(0, 1), H(1)]
    stats = DecodeStats()
    result = LazySegmentResult.from_packed(_packed(gates), stats)
    assert len(result) == 3
    assert not result.decoded
    assert stats.results_returned == 1
    assert stats.results_decoded == 0


def test_access_decodes_once_and_counts():
    from repro.circuits import CNOT, H

    gates = [H(0), CNOT(0, 1), H(1)]
    stats = DecodeStats()
    result = LazySegmentResult.from_packed(_packed(gates), stats)
    assert result[0] == H(0)
    assert list(result) == gates
    assert result == gates  # Sequence equality decodes at most once
    assert result.decoded
    assert stats.results_decoded == 1
    assert stats.result_bytes_decoded == stats.result_bytes_returned > 0


def test_from_gates_carries_no_decodable_bytes():
    from repro.circuits import H

    result = LazySegmentResult.from_gates([H(0)])
    assert len(result) == 1 and result.decoded and result.nbytes == 0


def test_from_ids_is_a_lazy_gate_sequence():
    """The handle ``popqc`` gives ``map_segments``: ids into a table."""
    from repro.circuits import CNOT, RZ, GateTable, H

    table = GateTable()
    gates = [H(0), CNOT(0, 1), RZ(1, 0.5), H(0)]
    segment = LazySegmentResult.from_ids(table.intern(gates), table)
    assert len(segment) == 4 and not segment.decoded  # len() looked nothing up
    assert segment.packed_bytes() == _packed(gates)
    assert segment.packed_bytes() is segment.packed_bytes()  # packed once
    assert segment.encoded() is segment.encoded()
    assert not segment.decoded  # the wire form needed no Gate either
    assert segment == gates and list(segment) == gates
    assert segment[1] == CNOT(0, 1) and segment[1:3] == gates[1:3]
    assert segment.gates() is segment.gates()
    assert segment.gates()[0] is segment.gates()[3]  # the table's one object


def test_packing_an_encoded_result_is_not_a_decode():
    """``packed_bytes`` (what the cache stores) must not count as one."""
    from repro.circuits import H, X

    stats = DecodeStats()
    result = LazySegmentResult.from_encoded(encoding.encode_segment([H(0), X(1)]), stats)
    assert result.packed_bytes() == _packed([H(0), X(1)])
    assert stats.results_decoded == 0
    result.encoded()
    result.gates()
    assert stats.results_decoded == 1
