"""Naive O(n) rank/select structure — the ablation baseline.

The paper credits POPQC's efficiency over OAC to the index tree's
O(lg n) rank/select (Section 7.7).  This module provides the same
interface with linear scans so the benchmark suite can measure exactly
what the tree buys (``benchmarks/test_ablations.py``), and so property
tests have an obviously-correct reference.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["NaiveIndex"]


class NaiveIndex:
    """Flat liveness array with O(n) queries; interface-compatible with
    :class:`~repro.core.index_tree.IndexTree`."""

    __slots__ = ("_flags",)

    def __init__(self, flags: Sequence[int] | np.ndarray):
        self._flags = [int(bool(f)) for f in flags]

    def __len__(self) -> int:
        return len(self._flags)

    @property
    def total(self) -> int:
        """Number of live slots in the whole array."""
        return sum(self._flags)

    def is_live(self, index: int) -> bool:
        """Whether slot ``index`` is live (not tombstoned)."""
        self._check(index)
        return bool(self._flags[index])

    def before(self, index: int) -> int:
        """Number of live slots strictly before ``index`` (linear scan)."""
        if index < 0 or index > len(self._flags):
            raise IndexError(f"index {index} out of range [0, {len(self._flags)}]")
        return sum(self._flags[:index])

    def select(self, rank: int) -> int:
        """Array index of the live slot with 0-based rank ``rank``."""
        if rank < 0:
            raise IndexError(rank)
        seen = 0
        for i, f in enumerate(self._flags):
            if f:
                if seen == rank:
                    return i
                seen += 1
        raise IndexError(f"rank {rank} out of range [0, {self.total})")

    def before_many(self, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """:meth:`before` of every index, one scan each."""
        return np.array([self.before(i) for i in indices], dtype=np.int64)

    def select_many(self, ranks: Sequence[int] | np.ndarray) -> np.ndarray:
        """:meth:`select` of every rank, one scan each."""
        return np.array([self.select(r) for r in ranks], dtype=np.int64)

    def next_live(self, index: int) -> int | None:
        """The first live slot at or after ``index`` (None past the end)."""
        for i in range(max(0, index), len(self._flags)):
            if self._flags[i]:
                return i
        return None

    def set_live(self, index: int, live: bool) -> None:
        """Set slot ``index``'s liveness."""
        self._check(index)
        self._flags[index] = int(live)

    def set_live_batch(self, updates: Iterable[tuple[int, bool]]) -> None:
        """Apply many ``(index, live)`` updates."""
        for index, live in updates:
            self.set_live(index, live)

    def live_indices(self) -> np.ndarray:
        """Indices of all live slots, ascending."""
        return np.nonzero(self._flags)[0]

    def _check(self, index: int) -> None:
        if index < 0 or index >= len(self._flags):
            raise IndexError(f"index {index} out of range [0, {len(self._flags)})")

    def __repr__(self) -> str:  # pragma: no cover
        return f"NaiveIndex(size={len(self._flags)}, live={self.total})"
