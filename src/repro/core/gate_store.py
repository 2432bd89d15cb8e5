"""The circuit as an id column — ``popqc``'s store at gate granularity.

Same shape as :class:`~repro.core.tombstone.TombstoneArray` (a slot
array plus a rank/select tree, Algorithm 1's interface and bounds), but
a slot holds the *id* of a gate in a :class:`~repro.circuits.intern.
GateTable`, ``-1`` for a tombstone, so the round loop's data-structure
steps are array operations: a round's segments are one batched ``select``
over their ends and a ``flatnonzero`` over each id window, an accepted result is
a column assignment, and the tree is updated once per round.  The table
is the one an id-backed input brings (a daemon hands every job its
shared table that way) and otherwise the store's own, living and dying
with one ``popqc`` call; ``Gate`` objects exist where the input brought
them, once per distinct value of an input still in wire form, and
wherever a caller asks a segment (or :meth:`GateStore.items`) for them.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Iterable, Sequence

import numpy as np

from ..circuits.gate import Gate
from ..circuits.intern import GateTable
from ..parallel.results import LazySegmentResult
from .index_tree import IndexTree

__all__ = ["GateStore"]


class GateStore:
    """Sparse array of interned gates with O(lg n) rank/select.

    ``tree_factory`` is as for :class:`~repro.core.tombstone.
    TombstoneArray`; only the interface the three trees share is used.
    """

    def __init__(
        self,
        gates: Sequence[Gate],
        tree_factory: Callable[[Sequence[int]], IndexTree] = IndexTree,
    ):
        interned = gates.interned if isinstance(gates, LazySegmentResult) else None
        self.table = interned[1] if interned is not None else GateTable()
        self._ids = self._ids_of(gates).copy()  # -1 marks a tombstone
        self._tree = tree_factory(np.ones(len(self._ids), dtype=np.int8))

    def _ids_of(self, gates: Sequence[Gate]) -> np.ndarray:
        """The ids of ``gates``: the ids themselves of a sequence held as
        ids of this store's table, straight from the wire arrays of one
        still in wire form, by interning the objects otherwise."""
        if isinstance(gates, LazySegmentResult):
            if gates.interned is not None and gates.interned[1] is self.table:
                return gates.interned[0]
            if not gates.decoded:
                return self.table.ids_from_encoded(gates.encoded())
        return self.table.intern(gates)

    def __len__(self) -> int:
        """Number of array slots, including tombstones."""
        return len(self._ids)

    @property
    def live_count(self) -> int:
        """Number of live (non-tombstone) gates."""
        return self._tree.total

    def before(self, index: int) -> int:
        """Number of live gates strictly before array ``index``."""
        return self._tree.before(index)

    def index_of(self, rank: int) -> int:
        """Array index of the live gate with the given rank."""
        return self._tree.select(rank)

    def before_many(self, indices: Sequence[int]) -> list[int]:
        """:meth:`before` of every index, from one batched tree query."""
        return self._tree.before_many(indices).tolist()

    def select_many(self, ranks: Sequence[int]) -> list[int]:
        """:meth:`index_of` of every rank, from one batched tree query."""
        return self._tree.select_many(ranks).tolist()

    def segment(
        self, rank_lo: int, rank_hi: int
    ) -> tuple[np.ndarray, LazySegmentResult]:
        """Live gates with ranks in ``[rank_lo, rank_hi)``: their array
        indices, and the gates as a lazy segment over this store's table."""
        return self.segments([(rank_lo, rank_hi)])[0]

    def segments(
        self, bounds: Sequence[tuple[int, int]]
    ) -> list[tuple[np.ndarray, LazySegmentResult]]:
        """:meth:`segment` of every ``(rank_lo, rank_hi)``: the window
        ends of all of them from one batched tree query, then a
        ``flatnonzero`` over each id window."""
        total = self._tree.total
        spans = [(max(lo, 0), min(hi, total)) for lo, hi in bounds]
        ranks = [r for lo, hi in spans if lo < hi for r in (lo, hi - 1)]
        ends = iter(self.select_many(ranks))
        out = []
        for lo, hi in spans:
            first, window = 0, self._ids[:0]
            if lo < hi:
                first = next(ends)
                window = self._ids[first : next(ends) + 1]
            live = np.flatnonzero(window >= 0)
            segment = LazySegmentResult.from_ids(window[live], self.table)
            out.append((live + first, segment))
        return out

    def rewrite(self, runs: Iterable[tuple[Sequence[int], Sequence[Gate]]]) -> None:
        """Overwrite each run of slots with its replacement gates.

        A run is ``(slots, gates)`` with ``len(gates) <= len(slots)``:
        the gates go into the first slots, the rest become tombstones.
        A replacement still in wire form (an undecoded oracle result)
        becomes ids straight from its arrays.  Runs apply in order; the
        tree sees one batched update, for the slots that died or came
        back.
        """
        ids = self._ids
        flips: dict[int, bool] = {}  # slot -> liveness it ends the batch in
        for slots, gates in runs:
            slots = np.asarray(slots)
            new = self._ids_of(gates)
            kept, dropped = slots[: len(new)], slots[len(new) :]
            flips.update(zip(kept[ids[kept] < 0].tolist(), repeat(True)))
            flips.update(zip(dropped[ids[dropped] >= 0].tolist(), repeat(False)))
            ids[kept] = new
            ids[dropped] = -1
        self._tree.set_live_batch(flips.items())

    def items(self) -> LazySegmentResult:
        """All live gates in array order, as a lazy segment over this
        store's table (a copy of the live id column)."""
        return LazySegmentResult.from_ids(self._ids[self._ids >= 0], self.table)
