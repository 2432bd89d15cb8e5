"""Batched rank/select: ``before_many`` and ``select_many`` on every tree,
and the round steps built on them in both stores.

A round ranks all of its fingers, and selects all of its segment ends,
with one batched query each.  They must answer exactly what the
per-item ``before`` and ``select`` answer — same values, same
``IndexError`` for an out-of-range query — on every ``tree_factory``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.circuits import random_redundant_circuit
from repro.core import FenwickTree, GateStore, IndexTree, NaiveIndex, TombstoneArray
from repro.core.index_tree import SCALAR_BATCH
from repro.core.trace import popqc_traced
from repro.oracles import NamOracle

TREES = [IndexTree, FenwickTree, NaiveIndex]

#: Batch widths on both sides of ``IndexTree``'s switch from walking the
#: heap one item at a time to one numpy step per level.
W = SCALAR_BATCH
WIDTHS = [1, W, W + 1, 2 * W + 3]


def _spread(values, k):
    """``k`` of ``values`` (which must not be empty), in a scrambled
    order with repeats."""
    return [values[(7 * j + 3) % len(values)] for j in range(k)]


def _check_against_per_item(tree, reference):
    n, total = len(tree), tree.total
    assert total == reference.total
    indices = list(range(n + 1))  # index == len answers the live total
    per_item = [tree.before(i) for i in indices]
    assert per_item == reference.before_many(indices).tolist()
    assert tree.before_many(indices).tolist() == per_item
    ranks = list(range(total))
    per_rank = [tree.select(r) for r in ranks]
    assert per_rank == reference.select_many(ranks).tolist()
    assert tree.select_many(ranks).tolist() == per_rank
    for k in WIDTHS:  # any order, repeats, numpy input, either width
        some = np.array(_spread(indices, k), dtype=np.int32)
        assert tree.before_many(some).tolist() == [per_item[i] for i in some]
        assert tree.before_many(some.tolist()).tolist() == [per_item[i] for i in some]
        if ranks:
            back = _spread(ranks[::-1], k)
            assert tree.select_many(back).tolist() == [per_rank[r] for r in back]
    for out in (tree.before_many([]), tree.select_many([])):
        assert out.dtype == np.int64 and out.shape == (0,)


@pytest.mark.parametrize("factory", TREES)
@given(
    flags=st.lists(st.integers(0, 1), max_size=3 * W),
    batches=st.lists(
        st.lists(st.tuples(st.integers(0, 3 * W), st.booleans()), max_size=2 * W + 3),
        max_size=4,
    ),
)
def test_batched_queries_match_per_item(factory, flags, batches):
    tree, reference = factory(flags), NaiveIndex(flags)
    _check_against_per_item(tree, reference)
    for updates in batches:
        updates = [(i, live) for i, live in updates if i < len(flags)]
        tree.set_live_batch(updates)
        reference.set_live_batch(updates)
        _check_against_per_item(tree, reference)


@pytest.mark.parametrize("factory", TREES)
def test_updates_and_queries_of_either_width_interleave(factory):
    """A write made by a walk is read by the numpy steps, and the other
    way round: every update width followed by every query width, each
    against the reference after every step."""
    rng = random.Random(7)
    n = 6 * W + 5
    flags = [rng.randrange(2) for _ in range(n)]
    tree, reference = factory(flags), NaiveIndex(flags)
    for update_width in WIDTHS + WIDTHS[::-1]:
        updates = [(i, rng.random() < 0.5) for i in rng.sample(range(n), update_width)]
        updates.append(updates[0])  # a repeated slot ends in its last state
        tree.set_live_batch(updates)
        reference.set_live_batch(updates)
        for query_width in WIDTHS:
            indices = [rng.randrange(n + 1) for _ in range(query_width)]
            want = reference.before_many(indices).tolist()
            assert tree.before_many(indices).tolist() == want
            ranks = [rng.randrange(reference.total) for _ in range(query_width)]
            want = reference.select_many(ranks).tolist()
            assert tree.select_many(ranks).tolist() == want
        assert tree.live_indices().tolist() == reference.live_indices().tolist()


def _message(call, *args):
    with pytest.raises(IndexError) as raised:
        call(*args)
    return str(raised.value)


@pytest.mark.parametrize("factory", TREES)
@pytest.mark.parametrize("flags", [[], [0, 0, 0], [1, 0, 1, 1], [1, 0] * W])
def test_out_of_range_queries_raise_as_per_item(factory, flags):
    """Out of range raises ``IndexError`` per item and in a batch of
    either width, a narrow batch with the message of a wide one."""
    tree, n = factory(flags), len(flags)
    for index in (-1, n + 1):
        with pytest.raises(IndexError):
            tree.before(index)
        narrow = _message(tree.before_many, [0, index])
        assert _message(tree.before_many, [index] + [0] * W) == narrow
    for rank in (-1, tree.total):
        with pytest.raises(IndexError):
            tree.select(rank)
        narrow = _message(tree.select_many, [rank])
        assert _message(tree.select_many, [rank] + [0] * W) == narrow
    for index in (-1, n):  # the bad slot first: nothing is applied before it
        narrow = _message(tree.set_live_batch, [(index, True)])
        wide = [(index, True)] + [(n + 1 + j, True) for j in range(W)]
        assert _message(tree.set_live_batch, wide) == narrow
    assert tree.before_many([n]).tolist() == [tree.total]
    assert tree.before_many([n] * (W + 1)).tolist() == [tree.total] * (W + 1)
    assert tree.live_indices().tolist() == [i for i, f in enumerate(flags) if f]


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
