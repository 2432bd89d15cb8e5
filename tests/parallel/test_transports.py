"""Transport conformance: what every entry of the registry must do.

The byte-identity suite (``test_transport_equivalence.py``) runs whole
circuits through ``ProcessMap``; this file states, once per
:data:`~repro.parallel.TRANSPORTS` entry and directly against the
:class:`~repro.parallel.Transport` object, the properties that suite
assumes: order preserved, lazy results whose ``len()`` decodes nothing,
``close()`` safe to repeat (and a later round rebuilding what it
needs), ``counters()`` keys fixed at construction and values monotone.
"""

import pytest

from repro.circuits import CNOT, RZ, H, X, encoding
from repro.oracles import NamOracle
from repro.parallel import (
    TRANSPORTS,
    DecodeStats,
    LazySegmentResult,
    ProcessMap,
    local_cluster,
)

SEGMENTS = [
    [H(0), H(0), RZ(1, 0.125 * (i + 1)), X(1), X(1), CNOT(0, 1)] * (1 + i % 3)
    for i in range(9)
]


@pytest.fixture(scope="module")
def cluster():
    with local_cluster(2) as hosts:
        yield hosts


def _monotone(before: dict, after: dict) -> bool:
    return all(
        _monotone(was, after[key]) if isinstance(was, dict) else after[key] >= was
        for key, was in before.items()
    )


def test_registry_is_what_process_map_builds(cluster):
    assert list(TRANSPORTS) == ["shm", "encoded", "pickle", "threads", "socket"]
    for name, cls in TRANSPORTS.items():
        pm = ProcessMap(2, transport=name, hosts=cluster if name == "socket" else None)
        try:
            assert type(pm.wire) is cls and pm.transport == name
        finally:
            pm.close()


@pytest.mark.parametrize("name", list(TRANSPORTS))
def test_transport_conformance(name, cluster, monkeypatch):
    decodes = []
    for fn in ("decode_segment", "unpack_segment_from"):
        real = getattr(encoding, fn)
        monkeypatch.setattr(
            encoding,
            fn,
            lambda *a, _real=real, _fn=fn, **kw: decodes.append(_fn) or _real(*a, **kw),
        )
    oracle = NamOracle()
    want = [oracle(list(seg)) for seg in SEGMENTS]
    segments = [LazySegmentResult.from_gates(list(seg)) for seg in SEGMENTS]
    stats = DecodeStats()
    make = TRANSPORTS[name]
    wire = make(2, stats, list(cluster)) if name == "socket" else make(2, stats)
    try:
        assert wire.workers == 2
        keys = set(wire.counters())  # fixed at construction ...
        seen = wire.counters()
        for _ in range(3):
            results, serialization = wire.run_round(oracle, segments)
            assert serialization >= 0.0
            # lazy: the acceptance test's len() decodes nothing
            assert [len(res) for res in results] == [len(out) for out in want]
            assert decodes == [] and stats.results_decoded == 0
            now = wire.counters()
            assert set(now) == keys and _monotone(seen, now)  # ... and monotone
            seen = now
        # order preserved, byte for byte (reading the gates may decode)
        assert [list(res) for res in results] == want
        wire.close()
        wire.close()  # safe to call twice
        again, _ = wire.run_round(oracle, segments)  # and to reuse after
        assert [list(res) for res in again] == want
        assert set(wire.counters()) == keys
    finally:
        wire.close()
