"""Micro-benchmarks for the circuit data structure (Algorithm 1).

Measures the operations whose cost bounds Section 3 states, at a size
where O(lg n) and O(n) visibly separate (see test_ablations.py for the
end-to-end effect).
"""

import random

from repro.circuits import CNOT, RZ, GateTable, H, X, encode_segment
from repro.core import FenwickTree, GateStore, IndexTree, TombstoneArray

N = 1 << 15


def _tombstoned_flags(n: int, live_fraction: float, seed: int = 0):
    rng = random.Random(seed)
    return [1 if rng.random() < live_fraction else 0 for _ in range(n)]


def test_index_tree_build(benchmark):
    flags = _tombstoned_flags(N, 0.5)
    tree = benchmark(IndexTree, flags)
    assert tree.total > 0


def test_index_tree_before(benchmark):
    tree = IndexTree(_tombstoned_flags(N, 0.5))
    idx = list(range(0, N, 97))

    def run():
        return [tree.before(i) for i in idx]

    out = benchmark(run)
    assert out[0] == 0


def test_index_tree_select(benchmark):
    tree = IndexTree(_tombstoned_flags(N, 0.5))
    ranks = list(range(0, tree.total, 97))

    def run():
        return [tree.select(r) for r in ranks]

    out = benchmark(run)
    assert len(out) == len(ranks)


def test_index_tree_before_many(benchmark):
    """The same indices as ``test_index_tree_before``, in one batched query."""
    tree = IndexTree(_tombstoned_flags(N, 0.5))
    idx = list(range(0, N, 97))
    out = benchmark(tree.before_many, idx)
    assert out.tolist() == [tree.before(i) for i in idx]


def test_index_tree_select_many(benchmark):
    """The same ranks as ``test_index_tree_select``, in one batched query."""
    tree = IndexTree(_tombstoned_flags(N, 0.5))
    ranks = list(range(0, tree.total, 97))
    out = benchmark(tree.select_many, ranks)
    assert out.tolist() == [tree.select(r) for r in ranks]


def test_index_tree_substitute(benchmark):
    rng = random.Random(1)
    updates = [(rng.randrange(N), rng.random() < 0.5) for _ in range(512)]

    def run():
        tree = IndexTree([1] * N)
        tree.set_live_batch(updates)
        return tree.total

    benchmark(run)


def test_fenwick_before(benchmark):
    tree = FenwickTree(_tombstoned_flags(N, 0.5))
    idx = list(range(0, N, 97))
    benchmark(lambda: [tree.before(i) for i in idx])


def test_fenwick_select(benchmark):
    tree = FenwickTree(_tombstoned_flags(N, 0.5))
    ranks = list(range(0, tree.total, 97))
    benchmark(lambda: [tree.select(r) for r in ranks])


def test_fenwick_before_many(benchmark):
    tree = FenwickTree(_tombstoned_flags(N, 0.5))
    idx = list(range(0, N, 97))
    out = benchmark(tree.before_many, idx)
    assert out.tolist() == [tree.before(i) for i in idx]


def test_fenwick_select_many(benchmark):
    tree = FenwickTree(_tombstoned_flags(N, 0.5))
    ranks = list(range(0, tree.total, 97))
    out = benchmark(tree.select_many, ranks)
    assert out.tolist() == [tree.select(r) for r in ranks]


def test_tombstone_segment_extraction(benchmark):
    arr = TombstoneArray(list(range(N)))
    rng = random.Random(2)
    arr.substitute([(i, None) for i in rng.sample(range(N), N // 2)])

    def run():
        return arr.segment(arr.live_count // 2 - 200, arr.live_count // 2 + 200)

    indices, items = benchmark(run)
    assert len(items) == 400


# -- the id-column store and the gate table (what popqc runs on) ---------------


def _repetitive_gates(n: int, seed: int = 3):
    """``n`` gates over a few dozen distinct values, like a Table-1 circuit."""
    rng = random.Random(seed)
    values = (
        [H(q) for q in range(8)]
        + [X(q) for q in range(8)]
        + [CNOT(q, (q + 1) % 8) for q in range(8)]
        + [RZ(q, 0.25 * k) for q in range(8) for k in range(1, 4)]
    )
    return [rng.choice(values) for _ in range(n)]


def _half_dead_store():
    store = GateStore(_repetitive_gates(N))
    rng = random.Random(2)
    store.rewrite(([i], []) for i in rng.sample(range(N), N // 2))
    return store


def test_gate_store_segment_extraction(benchmark):
    """Same shape as ``test_tombstone_segment_extraction``: 400 live
    gates out of a half-tombstoned array."""
    store = _half_dead_store()
    mid = store.live_count // 2

    slots, segment = benchmark(lambda: store.segment(mid - 200, mid + 200))
    assert len(slots) == len(segment) == 400


def test_gate_store_rewrite(benchmark):
    """Write a 150-gate replacement over a 200-gate segment and back:
    two column writes and two batched tree updates per call."""
    store = GateStore(_repetitive_gates(N))
    slots, segment = store.segment(N // 2, N // 2 + 200)
    full = segment.gates()

    def run():
        store.rewrite([(slots, full[:150])])
        store.rewrite([(slots, full)])

    benchmark(run)
    assert store.live_count == N


def test_tombstone_substitute(benchmark):
    """The same write on the reference array (the layered driver's)."""
    arr = TombstoneArray(_repetitive_gates(N))
    slots, full = arr.segment(N // 2, N // 2 + 200)

    def run():
        arr.rewrite([(slots, full[:150])])
        arr.rewrite([(slots, full)])

    benchmark(run)
    assert arr.live_count == N


def test_gate_table_encoded(benchmark):
    """200 ids to the canonical wire arrays, by gathers."""
    table = GateTable()
    ids = table.intern(_repetitive_gates(200))
    encoded = benchmark(table.encoded, ids)
    assert encoded == encode_segment(table.gates_of(ids))


def test_gate_table_ids_from_encoded(benchmark):
    """200 wire gates back to ids in a warm table: one probe each."""
    table = GateTable()
    gates = _repetitive_gates(200)
    encoded = encode_segment(gates)
    table.ids_from_encoded(encoded)
    ids = benchmark(table.ids_from_encoded, encoded)
    assert table.gates_of(ids) == gates
