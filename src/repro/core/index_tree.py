"""The index tree (paper Section 3, Figure 1).

A complete binary tree over the circuit's gate array.  Each leaf carries
weight 1 if the corresponding array slot holds a gate and 0 if it holds a
tombstone; each internal node carries the sum of its children.  The tree
supports, in O(lg n):

* ``before(i)`` — number of live gates strictly before array index ``i``;
* ``select(r)`` — array index of the live gate with rank ``r``;

``before_many``/``select_many`` answer k of either (the paper's parallel
rank map) in O(k lg n) work but lg n numpy steps, walking all together;
and O(l lg n) batched weight updates for ``l`` modified slots (one
vectorized pass per tree level), matching the cost table of Algorithm 1
in the paper.

The tree is stored in numpy heap layout (node ``k``'s children are
``2k`` and ``2k+1``), which makes construction a handful of vectorized
adds and keeps the memory footprint at ~16 bytes per gate.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["IndexTree"]


class IndexTree:
    """Rank/select structure over a boolean liveness array.

    Parameters
    ----------
    flags:
        Initial liveness of each array slot (1 = gate, 0 = tombstone).
    """

    __slots__ = ("_size", "_cap", "_w")

    def __init__(self, flags: Sequence[int] | np.ndarray):
        n = len(flags)
        cap = 1
        while cap < max(n, 1):
            cap <<= 1
        w = np.zeros(2 * cap, dtype=np.int64)
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
        self._w = w

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        """Number of array slots (live + tombstoned)."""
        return self._size

    @property
    def total(self) -> int:
        """Number of live slots."""
        return int(self._w[1]) if self._size else 0

    def is_live(self, index: int) -> bool:
        """Whether slot ``index`` currently holds a gate."""
        self._check_index(index)
        return bool(self._w[self._cap + index])

    def before(self, index: int) -> int:
        """Count of live slots strictly before ``index``.

        ``index`` may equal ``len(self)``, in which case the live total
        is returned (useful for half-open range arithmetic).
        """
        if index < 0 or index > self._size:
            raise IndexError(f"index {index} out of range [0, {self._size}]")
        if index == self._size:
            # Prefix over the whole array; also avoids walking off the
            # heap when size == capacity.
            return self.total
        w = self._w
        pos = self._cap + index
        acc = 0
        while pos > 1:
            if pos & 1:
                acc += w[pos - 1]
            pos >>= 1
        return int(acc)

    def select(self, rank: int) -> int:
        """Array index of the live slot with 0-based rank ``rank``."""
        if rank < 0 or rank >= self.total:
            raise IndexError(f"rank {rank} out of range [0, {self.total})")
        w = self._w
        pos = 1
        r = rank
        while pos < self._cap:
            left = 2 * pos
            lw = w[left]
            if r < lw:
                pos = left
            else:
                r -= int(lw)
                pos = left + 1
        return pos - self._cap

    def before_many(self, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """:meth:`before` of every index, as one int64 array: each level
        of the heap is one numpy step for all queries together."""
        index = np.asarray(indices, dtype=np.int64)
        if index.size and (index.min() < 0 or index.max() > self._size):
            raise IndexError(f"index out of range [0, {self._size}]")
        whole = index == self._size  # the live total, as in before()
        pos = np.where(whole, 0, index) + self._cap
        acc = np.where(whole, self.total, 0)
        for _ in range(self._cap.bit_length() - 1):
            acc += self._w[pos - 1] * (pos & 1)  # a right child adds its left sibling
            pos >>= 1
        return acc

    def select_many(self, ranks: Sequence[int] | np.ndarray) -> np.ndarray:
        """:meth:`select` of every rank, as one int64 array: all queries
        descend the heap together, one numpy step per level."""
        rank = np.array(ranks, dtype=np.int64)  # a copy: it is spent below
        if rank.size and (rank.min() < 0 or rank.max() >= self.total):
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
        """Apply many ``(index, live)`` updates, level by level.

        A slot named more than once ends in its last state, as if the
        updates had run through :meth:`set_live` in order.  The deltas
        of the slots that really change climb the heap together — one
        ``np.add.at`` per level — so the O(l lg n) of the paper's
        ``substitute`` is lg n array operations, not l lg n Python ones.
        """
        final = dict(updates)
        if not final:
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
