"""Fenwick-tree (binary indexed tree) rank/select structure.

An alternative implementation of the :class:`repro.core.index_tree.IndexTree`
interface with the same asymptotic bounds but a flat prefix-sum layout.
The POPQC driver accepts either (``tree_factory`` argument); the property
test suite cross-checks the two against each other and against a naive
reference, which is how we validate the index-tree logic the paper's
correctness rests on.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["FenwickTree"]


class FenwickTree:
    """Binary indexed tree over a boolean liveness array.

    Supports ``before`` (prefix count), ``select`` (binary-lifting
    descent), and point updates; drop-in compatible with
    :class:`~repro.core.index_tree.IndexTree`.
    """

    __slots__ = ("_size", "_bit", "_live", "_log")

    def __init__(self, flags: Sequence[int] | np.ndarray):
        n = len(flags)
        self._size = n
        self._live = np.asarray(flags, dtype=np.int8).copy()
        bit = np.zeros(n + 1, dtype=np.int64)
        # O(n) construction: place values then push partial sums upward.
        bit[1:] = self._live
        for i in range(1, n + 1):
            j = i + (i & -i)
            if j <= n:
                bit[j] += bit[i]
        self._bit = bit
        log = 0
        while (1 << (log + 1)) <= n:
            log += 1
        self._log = log

    def __len__(self) -> int:
        return self._size

    @property
    def total(self) -> int:
        """Number of live slots in the whole array."""
        return self.before(self._size)

    def is_live(self, index: int) -> bool:
        """Whether slot ``index`` is live (not tombstoned)."""
        self._check_index(index)
        return bool(self._live[index])

    def before(self, index: int) -> int:
        """Number of live slots strictly before ``index``."""
        if index < 0 or index > self._size:
            raise IndexError(f"index {index} out of range [0, {self._size}]")
        acc = 0
        i = index  # prefix sum over [0, index) = BIT query at position index
        bit = self._bit
        while i > 0:
            acc += bit[i]
            i -= i & -i
        return int(acc)

    def select(self, rank: int) -> int:
        """Array index of the live slot with 0-based rank ``rank``."""
        if rank < 0 or rank >= self.total:
            raise IndexError(f"rank {rank} out of range [0, {self.total})")
        pos = 0
        remaining = rank + 1
        bit = self._bit
        for k in range(self._log, -1, -1):
            nxt = pos + (1 << k)
            if nxt <= self._size and bit[nxt] < remaining:
                pos = nxt
                remaining -= int(bit[nxt])
        return pos  # 0-based index of the slot holding the target rank

    def before_many(self, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """:meth:`before` of every index, all in lockstep (``bit[0]`` is 0)."""
        i = np.array(indices, dtype=np.int64)  # a copy: it is spent below
        if i.size and (i.min() < 0 or i.max() > self._size):
            raise IndexError(f"index out of range [0, {self._size}]")
        acc = np.zeros(len(i), dtype=np.int64)
        while i.any():
            acc += self._bit[i]
            i &= i - 1
        return acc

    def select_many(self, ranks: Sequence[int] | np.ndarray) -> np.ndarray:
        """:meth:`select` of every rank, all lifting in lockstep."""
        remaining = np.array(ranks, dtype=np.int64) + 1
        if remaining.size and (remaining.min() < 1 or remaining.max() > self.total):
            raise IndexError(f"rank out of range [0, {self.total})")
        pos = np.zeros(len(remaining), dtype=np.int64)
        for k in range(self._log, -1, -1):
            nxt = pos + (1 << k)
            step = self._bit[np.minimum(nxt, self._size)]
            take = (nxt <= self._size) & (step < remaining)
            pos[take] = nxt[take]
            remaining -= step * take
        return pos

    def next_live(self, index: int) -> int | None:
        """The first live slot at or after ``index`` (None past the end)."""
        if index < 0:
            index = 0
        if index >= self._size:
            return None
        if self._live[index]:
            return index
        rank = self.before(index)
        if rank >= self.total:
            return None
        return self.select(rank)

    def set_live(self, index: int, live: bool) -> None:
        """Set slot ``index``'s liveness, updating prefix sums in O(lg n)."""
        self._check_index(index)
        delta = int(live) - int(self._live[index])
        if delta == 0:
            return
        self._live[index] = int(live)
        i = index + 1
        bit = self._bit
        n = self._size
        while i <= n:
            bit[i] += delta
            i += i & -i

    def set_live_batch(self, updates: Iterable[tuple[int, bool]]) -> None:
        """Apply many ``(index, live)`` updates (point updates in a loop)."""
        for index, live in updates:
            self.set_live(index, live)

    def live_indices(self) -> np.ndarray:
        """Indices of all live slots, ascending."""
        return np.nonzero(self._live)[0]

    def _check_index(self, index: int) -> None:
        if index < 0 or index >= self._size:
            raise IndexError(f"index {index} out of range [0, {self._size})")

    def __repr__(self) -> str:  # pragma: no cover
        return f"FenwickTree(size={self._size}, live={self.total})"
