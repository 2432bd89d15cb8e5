"""The index tree (paper Section 3, Figure 1).

A complete binary tree over the circuit's gate array.  Each leaf carries
weight 1 if the corresponding array slot holds a gate and 0 if it holds a
tombstone; each internal node carries the sum of its children.  The tree
supports, in O(lg n):

* ``before(i)`` — number of live gates strictly before array index ``i``;
* ``select(r)`` — array index of the live gate with rank ``r``;

``before_many``/``select_many`` answer k of either (the paper's parallel
rank map) in O(k lg n) work, and ``set_live_batch`` makes O(l lg n)
weight updates for ``l`` modified slots, matching the cost table of
Algorithm 1 in the paper.  A batch runs in one of two regimes:

* up to :data:`SCALAR_BATCH` items, each walks the heap on its own in
  Python, at ~1.5 us a query and ~3 us an update on a 2^14-2^16-leaf
  tree;
* more go together, one numpy step per level of the heap for the whole
  batch: ~45-70 us a batch, nearly flat in its width up to a few
  hundred, because a numpy call costs ~1 us whatever it holds.

The micro-benchmark ``benchmarks/test_datastructures.py::
test_index_tree_batch_paths`` times both at k = 8, 32 and 128 on trees
of 9k and 38k slots.  On a 2-vCPU host queries cross over at ~32-45
items and updates at ~16-24, and most batches of a round are narrow:
over the Table-1 index-1 suite at Omega 25 and 100, 78 % of the
``select_many`` calls hold 32 ranks or fewer (37 % of ``before_many``'s).

The tree is stored in heap layout (node ``k``'s children are ``2k`` and
``2k+1``) in one int64 buffer, ~16 bytes per gate: an ``array('q')``
that the walks index, and a numpy view of the same memory that the
level steps and the construction's handful of vectorized adds use.
Neither is a copy of the other, so a write made through one is read
through the other.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

import numpy as np

__all__ = ["IndexTree", "SCALAR_BATCH"]

#: Widest batch (queries, or distinct slots updated) that walks the heap
#: one item at a time in Python; a wider one takes the numpy level steps.
#: Between the measured crossovers of queries and updates (see above),
#: and queries are three of a round's four batches.
SCALAR_BATCH = 32


class IndexTree:
    """Rank/select structure over a boolean liveness array.

    Parameters
    ----------
    flags:
        Initial liveness of each array slot (1 = gate, 0 = tombstone).
    """

    __slots__ = ("_size", "_cap", "_heap", "_w")

    def __init__(self, flags: Sequence[int] | np.ndarray):
        n = len(flags)
        cap = 1
        while cap < max(n, 1):
            cap <<= 1
        # One int64 buffer: Python walks index ``_heap``, numpy steps
        # read and write ``_w``, a view of the same memory.
        heap = array("q", bytes(16 * cap))
        w = np.frombuffer(heap, dtype=np.int64)
        if n:
            w[cap : cap + n] = np.asarray(flags, dtype=np.int64)
        # Build internal levels bottom-up with vectorized pairwise sums.
        lo = cap
        while lo > 1:
            half = lo >> 1
            level = w[lo : 2 * lo]
            w[half:lo] = level[0::2] + level[1::2]
            lo = half
        self._size = n
        self._cap = cap
        self._heap = heap
        self._w = w

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        """Number of array slots (live + tombstoned)."""
        return self._size

    @property
    def total(self) -> int:
        """Number of live slots."""
        return self._heap[1]

    def is_live(self, index: int) -> bool:
        """Whether slot ``index`` currently holds a gate."""
        self._check_index(index)
        return bool(self._heap[self._cap + index])

    def before(self, index: int) -> int:
        """Count of live slots strictly before ``index``.

        ``index`` may equal ``len(self)``, in which case the live total
        is returned (useful for half-open range arithmetic).
        """
        if index < 0 or index > self._size:
            raise IndexError(f"index {index} out of range [0, {self._size}]")
        return self._before(index)

    def select(self, rank: int) -> int:
        """Array index of the live slot with 0-based rank ``rank``."""
        if rank < 0 or rank >= self.total:
            raise IndexError(f"rank {rank} out of range [0, {self.total})")
        return self._select(rank)

    def _before(self, index: int) -> int:
        if index == self._size:
            # Prefix over the whole array; also avoids walking off the
            # heap when size == capacity.
            return self._heap[1]
        heap = self._heap
        pos = self._cap + index
        acc = 0
        while pos > 1:
            if pos & 1:
                acc += heap[pos - 1]
            pos >>= 1
        return acc

    def _select(self, rank: int) -> int:
        heap, cap = self._heap, self._cap
        pos = 1
        while pos < cap:
            pos <<= 1
            left = heap[pos]
            if rank >= left:
                rank -= left
                pos += 1
        return pos - cap

    def before_many(self, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """:meth:`before` of every index, as one int64 array.

        Up to :data:`SCALAR_BATCH` indices walk the heap one by one;
        more go together, one numpy step per level of the heap."""
        if len(indices) <= SCALAR_BATCH:
            index = list(map(int, indices))
            if index and (min(index) < 0 or max(index) > self._size):
                raise IndexError(f"index out of range [0, {self._size}]")
            return np.array(list(map(self._before, index)), dtype=np.int64)
        index = np.asarray(indices, dtype=np.int64)
        if index.min() < 0 or index.max() > self._size:
            raise IndexError(f"index out of range [0, {self._size}]")
        whole = index == self._size  # the live total, as in before()
        pos = np.where(whole, 0, index) + self._cap
        acc = np.where(whole, self.total, 0)
        for _ in range(self._cap.bit_length() - 1):
            acc += self._w[pos - 1] * (pos & 1)  # a right child adds its left sibling
            pos >>= 1
        return acc

    def select_many(self, ranks: Sequence[int] | np.ndarray) -> np.ndarray:
        """:meth:`select` of every rank, as one int64 array.

        Up to :data:`SCALAR_BATCH` ranks walk the heap one by one; more
        descend it together, one numpy step per level."""
        if len(ranks) <= SCALAR_BATCH:
            rank = list(map(int, ranks))
            if rank and (min(rank) < 0 or max(rank) >= self.total):
                raise IndexError(f"rank out of range [0, {self.total})")
            return np.array(list(map(self._select, rank)), dtype=np.int64)
        rank = np.array(ranks, dtype=np.int64)  # a copy: it is spent below
        if rank.min() < 0 or rank.max() >= self.total:
            raise IndexError(f"rank out of range [0, {self.total})")
        pos = np.ones(len(rank), dtype=np.int64)
        for _ in range(self._cap.bit_length() - 1):
            pos <<= 1
            left = self._w[pos]
            right = rank >= left
            rank -= left * right
            pos += right
        return pos - self._cap

    def next_live(self, index: int) -> int | None:
        """Smallest live slot index >= ``index``, or None if none exists."""
        if index < 0:
            index = 0
        if index >= self._size:
            return None
        rank = self.before(index)
        if self.is_live(index):
            return index
        if rank >= self.total:
            return None
        return self.select(rank)

    # -- updates ---------------------------------------------------------

    def set_live(self, index: int, live: bool) -> None:
        """Set the liveness of one slot, updating ancestor weights."""
        self.set_live_batch([(index, live)])

    def set_live_batch(self, updates: Iterable[tuple[int, bool]]) -> None:
        """Apply many ``(index, live)`` updates.

        A slot named more than once ends in its last state, as if the
        updates had run through :meth:`set_live` in order.  Up to
        :data:`SCALAR_BATCH` distinct slots climb the heap one by one;
        the deltas of more climb it together — one ``np.add.at`` per
        level — so the O(l lg n) of the paper's ``substitute`` is lg n
        array operations, not l lg n Python ones.
        """
        final = dict(updates)
        if not final:
            return
        if len(final) <= SCALAR_BATCH:
            if min(final) < 0 or max(final) >= self._size:
                raise IndexError(f"index out of range [0, {self._size})")
            heap, cap = self._heap, self._cap
            for index, live in final.items():
                pos = cap + int(index)
                delta = int(live) - heap[pos]
                if delta:
                    while pos:
                        heap[pos] += delta
                        pos >>= 1
            return
        index = np.fromiter(final, dtype=np.int64, count=len(final))
        if index.min() < 0 or index.max() >= self._size:
            raise IndexError(f"index out of range [0, {self._size})")
        w = self._w
        pos = index + self._cap
        delta = np.fromiter(final.values(), dtype=np.int64, count=len(final)) - w[pos]
        changed = delta != 0
        pos, delta = pos[changed], delta[changed]
        while pos.size and pos[0] >= 1:  # every position is on the same level
            np.add.at(w, pos, delta)
            pos >>= 1

    # -- bulk views --------------------------------------------------------

    def live_indices(self) -> np.ndarray:
        """Sorted array of all live slot indices (O(n))."""
        leaves = self._w[self._cap : self._cap + self._size]
        return np.nonzero(leaves)[0]

    def _check_index(self, index: int) -> None:
        if index < 0 or index >= self._size:
            raise IndexError(f"index {index} out of range [0, {self._size})")

    def __repr__(self) -> str:  # pragma: no cover
        return f"IndexTree(size={self._size}, live={self.total})"
