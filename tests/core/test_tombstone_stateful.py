"""Stateful property test: both circuit stores against a model.

Hypothesis drives random interleavings of substitutions (writes,
deletions, revivals) and queries against a plain-list model; every
invariant of Algorithm 1's interface is checked after every step, on
:class:`TombstoneArray` and on :class:`GateStore` side by side, under
both tree factories.  This is the strongest evidence that the
index-tree bookkeeping — including the batched, liveness-change-only
tree updates — stays consistent under arbitrary optimizer behaviour.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.circuits import H
from repro.core import FenwickTree, GateStore, IndexTree, TombstoneArray


class StoreModel(RuleBasedStateMachine):
    """The model holds ints; the gate store holds ``H(int)`` for them."""

    tree_factory = IndexTree

    @initialize(items=st.lists(st.integers(0, 99), min_size=1, max_size=40))
    def setup(self, items):
        self.model: list = list(items)  # None marks a tombstone
        self.array = TombstoneArray(list(items), self.tree_factory)
        self.store = GateStore([H(x) for x in items], self.tree_factory)

    def _live(self):
        return [x for x in self.model if x is not None]

    def _substitute(self, updates):
        for idx, value in updates:
            self.model[idx] = value
        self.array.substitute(updates)
        # the store's write is a run of slots and its (shorter)
        # replacement: one slot each here, in the same order
        self.store.rewrite(
            ([idx], [] if value is None else [H(value)]) for idx, value in updates
        )

    @rule(data=st.data())
    def substitute_one(self, data):
        idx = data.draw(st.integers(0, len(self.model) - 1))
        value = data.draw(st.one_of(st.none(), st.integers(0, 99)))
        self._substitute([(idx, value)])

    @rule(data=st.data())
    def substitute_batch(self, data):
        k = data.draw(st.integers(1, 5))
        updates = []
        for _ in range(k):
            idx = data.draw(st.integers(0, len(self.model) - 1))
            value = data.draw(st.one_of(st.none(), st.integers(0, 99)))
            updates.append((idx, value))
        self._substitute(updates)

    @rule(data=st.data())
    def rewrite_run(self, data):
        """What the driver does: a run of live slots, a shorter replacement."""
        live = [i for i, x in enumerate(self.model) if x is not None]
        if not live:
            return
        start = data.draw(st.integers(0, len(live) - 1))
        slots = live[start : start + data.draw(st.integers(1, 6))]
        items = data.draw(st.lists(st.integers(0, 99), max_size=len(slots)))
        for i, slot in enumerate(slots):
            self.model[slot] = items[i] if i < len(items) else None
        self.array.rewrite([(slots, items)])
        self.store.rewrite([(slots, [H(x) for x in items])])

    @rule(data=st.data())
    def query_before(self, data):
        idx = data.draw(st.integers(0, len(self.model)))
        expected = sum(1 for x in self.model[:idx] if x is not None)
        assert self.array.before(idx) == expected
        assert self.store.before(idx) == expected

    @rule(data=st.data())
    def query_get(self, data):
        live = self._live()
        if not live:
            return
        rank = data.draw(st.integers(0, len(live) - 1))
        assert self.array.get(rank) == live[rank]
        assert self.store.index_of(rank) == self.array.index_of(rank)

    @rule(data=st.data())
    def query_segment(self, data):
        live = self._live()
        lo = data.draw(st.integers(-2, len(live) + 2))
        hi = data.draw(st.integers(-2, len(live) + 2))
        indices, items = self.array.segment(lo, hi)
        clamped_lo, clamped_hi = max(lo, 0), min(hi, len(live))
        expected = live[clamped_lo:clamped_hi] if clamped_lo < clamped_hi else []
        assert items == expected
        assert len(indices) == len(items)
        slots, segment = self.store.segment(lo, hi)
        assert slots.tolist() == indices
        assert segment == [H(x) for x in expected] and len(segment) == len(expected)

    @invariant()
    def items_match(self):
        if not hasattr(self, "model"):
            return
        assert self.array.items() == self._live()
        assert self.array.live_count == len(self._live())
        assert self.store.items() == [H(x) for x in self._live()]
        assert self.store.live_count == len(self._live())
        assert len(self.store) == len(self.array) == len(self.model)


class FenwickStoreModel(StoreModel):
    tree_factory = FenwickTree


_SETTINGS = settings(max_examples=40, stateful_step_count=30, deadline=None)

TestTombstoneStateful = StoreModel.TestCase
TestTombstoneStateful.settings = _SETTINGS
TestTombstoneStatefulFenwick = FenwickStoreModel.TestCase
TestTombstoneStatefulFenwick.settings = _SETTINGS
