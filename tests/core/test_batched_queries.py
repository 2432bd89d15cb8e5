"""Batched rank/select: ``before_many`` and ``select_many`` on every tree,
and the round steps built on them in both stores.

A round ranks all of its fingers, and selects all of its segment ends,
with one batched query each.  They must answer exactly what the
per-item ``before`` and ``select`` answer — same values, same
``IndexError`` for an out-of-range query — on every ``tree_factory``.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.circuits import random_redundant_circuit
from repro.core import FenwickTree, GateStore, IndexTree, NaiveIndex, TombstoneArray
from repro.core.trace import popqc_traced
from repro.oracles import NamOracle

TREES = [IndexTree, FenwickTree, NaiveIndex]


def _check_against_per_item(tree):
    n, total = len(tree), tree.total
    indices = list(range(n + 1))  # index == len answers the live total
    assert tree.before_many(indices).tolist() == [tree.before(i) for i in indices]
    ranks = list(range(total))
    assert tree.select_many(ranks).tolist() == [tree.select(r) for r in ranks]
    # any order, repeats, and numpy input
    shuffled = np.array(indices[::-1] + indices[:3], dtype=np.int32)
    assert tree.before_many(shuffled).tolist() == [tree.before(int(i)) for i in shuffled]
    back = ranks[::-1] + ranks[:2]
    assert tree.select_many(back).tolist() == [tree.select(r) for r in back]
    for out in (tree.before_many([]), tree.select_many([])):
        assert out.dtype == np.int64 and out.shape == (0,)


@pytest.mark.parametrize("factory", TREES)
@given(
    flags=st.lists(st.integers(0, 1), max_size=70),
    updates=st.lists(st.tuples(st.integers(0, 69), st.booleans()), max_size=30),
)
def test_batched_queries_match_per_item(factory, flags, updates):
    tree = factory(flags)
    _check_against_per_item(tree)
    tree.set_live_batch([(i, live) for i, live in updates if i < len(flags)])
    _check_against_per_item(tree)


@pytest.mark.parametrize("factory", TREES)
@pytest.mark.parametrize("flags", [[], [0, 0, 0], [1, 0, 1, 1]])
def test_out_of_range_queries_raise_as_per_item(factory, flags):
    tree = factory(flags)
    for index in (-1, len(flags) + 1):
        with pytest.raises(IndexError):
            tree.before(index)
        with pytest.raises(IndexError):
            tree.before_many([0, index])
    for rank in (-1, tree.total):
        with pytest.raises(IndexError):
            tree.select(rank)
        with pytest.raises(IndexError):
            tree.select_many([rank])
    assert tree.before_many([len(flags)]).tolist() == [tree.total]


@pytest.mark.parametrize("factory", TREES)
def test_an_all_dead_tree(factory):
    tree = factory([1] * 9)
    tree.set_live_batch([(i, False) for i in range(9)])
    assert tree.before_many(range(10)).tolist() == [0] * 10
    assert tree.select_many([]).tolist() == []
    with pytest.raises(IndexError):
        tree.select_many([0])


# -- the stores ------------------------------------------------------------


def _stores(factory):
    """A ``GateStore`` and a ``TombstoneArray`` over the same gates, with
    the same tombstone runs."""
    gates = random_redundant_circuit(4, 160, seed=3).gates
    store, array = GateStore(gates, factory), TombstoneArray(gates, factory)
    dead = [i for i in range(len(gates)) if i % 7 in (2, 3) or 40 <= i < 70]
    store.rewrite([(dead, [])])
    array.substitute([(i, None) for i in dead])
    return store, array


BOUNDS = [(0, 10), (5, 25), (-4, 3), (30, 30), (40, 200), (95, 99), (7, 2)]


@pytest.mark.parametrize("factory", TREES)
def test_batched_extraction_equals_segment(factory):
    for arr in _stores(factory):
        live = arr.live_count
        got = arr.segments(BOUNDS)
        assert len(got) == len(BOUNDS)
        for (lo, hi), (slots, items) in zip(BOUNDS, got):
            want_slots, want_items = arr.segment(lo, hi)
            assert list(slots) == list(want_slots)
            assert list(items) == list(want_items)
            assert len(slots) == max(0, min(hi, live) - max(lo, 0))
        fingers = [0, 3, 17, 60, len(arr) - 1, len(arr)]
        assert arr.before_many(fingers) == [arr.before(f) for f in fingers]
        ranks = [0, 11, live - 1]
        assert arr.select_many(ranks) == [arr.index_of(r) for r in ranks]
        assert arr.segments([]) == [] and arr.select_many([]) == []


def test_ranks_reach_observers_as_python_ints():
    circuit = random_redundant_circuit(5, 400, seed=5, redundancy=0.5)
    result, trace = popqc_traced(circuit, NamOracle(), 12)
    assert trace and result.stats.rounds == len(trace)
    for entry in trace:
        values = entry.finger_ranks + entry.selected_ranks
        values += [end for region in entry.accepted_regions for end in region]
        assert all(type(v) is int for v in values)
