"""The tombstone array — the paper's Circuit data structure (Algorithm 1).

Pairs a plain object array (``None`` marks a tombstone) with an index
tree so that live items can be ranked and selected in O(lg n).  The
structure is generic over the item type: POPQC stores :class:`Gate`
objects here, while the layered variant (Section 7.8) stores whole
layers (tuples of gates) as single items.

Interface and cost bounds follow Algorithm 1:

=====================  =============================  =================
operation              meaning                        cost
=====================  =============================  =================
``create`` (init)      build from an item list        O(n) work
``before(i)``          live items before index i      O(lg n)
``get(r)``             r-th live item                 O(lg n)
``substitute(pairs)``  replace items, None removes    O(l lg n)
``rewrite(runs)``      substitute whole slot runs     O(l lg n)
``items()``            all live items, in order       O(n)
=====================  =============================  =================
"""

from __future__ import annotations

from typing import Callable, Generic, Iterable, Optional, Sequence, TypeVar

from .index_tree import IndexTree

T = TypeVar("T")

__all__ = ["TombstoneArray"]


class TombstoneArray(Generic[T]):
    """Sparse array of items with O(lg n) rank/select over live slots.

    Parameters
    ----------
    items:
        Initial (fully live) item sequence.
    tree_factory:
        Constructor for the rank/select structure; defaults to
        :class:`~repro.core.index_tree.IndexTree`, and
        :class:`~repro.core.fenwick.FenwickTree` is a drop-in
        alternative.
    """

    __slots__ = ("_slots", "_tree")

    def __init__(
        self,
        items: Iterable[T],
        tree_factory: Callable[[Sequence[int]], IndexTree] = IndexTree,
    ):
        self._slots: list[Optional[T]] = list(items)
        self._tree = tree_factory([1] * len(self._slots))

    # -- size ----------------------------------------------------------------

    def __len__(self) -> int:
        """Number of array slots, including tombstones."""
        return len(self._slots)

    @property
    def live_count(self) -> int:
        """Number of live (non-tombstone) items."""
        return self._tree.total

    # -- rank / select -------------------------------------------------------

    def before(self, index: int) -> int:
        """Number of live items strictly before array ``index``."""
        return self._tree.before(index)

    def get(self, rank: int) -> T:
        """The live item with the given rank (tombstones excluded)."""
        item = self._slots[self._tree.select(rank)]
        assert item is not None
        return item

    def index_of(self, rank: int) -> int:
        """Array index of the live item with the given rank."""
        return self._tree.select(rank)

    def before_many(self, indices: Sequence[int]) -> list[int]:
        """:meth:`before` of every index, from one batched tree query."""
        return self._tree.before_many(indices).tolist()

    def select_many(self, ranks: Sequence[int]) -> list[int]:
        """:meth:`index_of` of every rank, from one batched tree query."""
        return self._tree.select_many(ranks).tolist()

    def is_live(self, index: int) -> bool:
        """Whether array slot ``index`` holds a live item."""
        return self._tree.is_live(index)

    def peek(self, index: int) -> Optional[T]:
        """Raw slot contents (None for a tombstone)."""
        return self._slots[index]

    # -- segments --------------------------------------------------------------

    def segment(self, rank_lo: int, rank_hi: int) -> tuple[list[int], list[T]]:
        """Live items with ranks in ``[rank_lo, rank_hi)``.

        Returns parallel lists of array indices and items.  Cost
        O((rank_hi - rank_lo) lg n): one ``select`` for the first item,
        then a forward walk that uses ``next_live`` to hop tombstone
        runs.
        """
        return self.segments([(rank_lo, rank_hi)])[0]

    def segments(
        self, bounds: Sequence[tuple[int, int]]
    ) -> list[tuple[list[int], list[T]]]:
        """:meth:`segment` of every ``(rank_lo, rank_hi)``, the first
        slot of all of them from one batched tree query."""
        total = self._tree.total
        spans = [(max(lo, 0), min(hi, total)) for lo, hi in bounds]
        firsts = iter(self.select_many([lo for lo, hi in spans if lo < hi]))
        return [
            self._walk(next(firsts), hi - lo) if lo < hi else ([], [])
            for lo, hi in spans
        ]

    def _walk(self, idx: int, count: int) -> tuple[list[int], list[T]]:
        """The ``count`` live items from live slot ``idx`` on."""
        indices: list[int] = []
        items: list[T] = []
        slots = self._slots
        n = len(slots)
        while count > 0:
            item = slots[idx]
            if item is not None:
                indices.append(idx)
                items.append(item)
                count -= 1
                idx += 1
            else:
                nxt = self._tree.next_live(idx)
                assert nxt is not None, "ran past the live suffix"
                idx = nxt
            if count > 0 and idx >= n:  # pragma: no cover - guarded by ranks
                raise AssertionError("segment walked off the array")
        return indices, items

    # -- updates -----------------------------------------------------------------

    def substitute(self, updates: Iterable[tuple[int, Optional[T]]]) -> None:
        """Replace slot contents; ``None`` writes a tombstone.

        Mirrors the paper's ``substitute``: O(l lg n) for ``l`` updates.
        The tree hears only about slots whose liveness changed (either
        way), in one batch.
        """
        slots = self._slots
        flips: list[tuple[int, bool]] = []
        for index, item in updates:
            live = item is not None
            if (slots[index] is not None) != live:
                flips.append((index, live))
            slots[index] = item
        if flips:
            self._tree.set_live_batch(flips)

    def rewrite(self, runs: Iterable[tuple[Sequence[int], Sequence[T]]]) -> None:
        """Overwrite each run of slots with its (no longer) replacement.

        ``runs`` holds ``(slots, items)`` pairs; the items go into the
        first slots and the rest of the run is tombstoned.  One
        :meth:`substitute` for all of them.
        """
        self.substitute(
            (slot, items[i] if i < len(items) else None)
            for slots, items in runs
            for i, slot in enumerate(slots)
        )

    # -- bulk views ----------------------------------------------------------------

    def items(self) -> list[T]:
        """All live items in array order (the paper's ``gates``)."""
        slots = self._slots
        return [slots[i] for i in self._tree.live_indices()]

    def live_indices(self) -> list[int]:
        """Array indices of all live items."""
        return [int(i) for i in self._tree.live_indices()]

    def __repr__(self) -> str:  # pragma: no cover
        return f"TombstoneArray(slots={len(self._slots)}, live={self.live_count})"
