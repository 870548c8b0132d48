"""Row-wise pattern matching and highlight masks.

A pattern is a nonempty value sequence in the same notation as an input
row. A cell is highlighted when it lies inside at least one contiguous
occurrence of the pattern within its own row; occurrences may overlap.
Matching is strictly horizontal - the structures the masks reveal arise
from per-row runs, not vertical or diagonal alignments.
"""

from __future__ import annotations

import numpy as np

from .engine import Pyramid, RowLike, Triangle, as_row

__all__ = ["HighlightMask", "highlight_pyramid", "match_row"]


class HighlightMask(Triangle):
    """Boolean lattice congruent to a pyramid: True marks a matched cell."""

    def __post_init__(self) -> None:
        super().__post_init__()
        for r in self.rows:
            if r.dtype != np.bool_:
                raise ValueError(f"mask rows are boolean, got dtype {r.dtype}")

    def count(self) -> int:
        """Total number of highlighted cells."""
        return sum(np.count_nonzero(r) for r in self.rows)


def match_row(row: RowLike, pattern: RowLike) -> np.ndarray:
    """Boolean array: True where the cell is covered by an occurrence.

    A pattern longer than the row matches nowhere. Overlapping
    occurrences all count; coverage is cellwise, so only patterns of
    length >= 2 can reveal the difference.
    """
    r = as_row(row)
    s = as_row(pattern)
    if s.size > r.size:
        return np.zeros(r.size, dtype=bool)
    if s.size == 1:
        return r == s[0]
    m = r.size - s.size + 1  # possible starts
    starts = r[:m] == s[0]
    for j in range(1, s.size):
        starts &= r[j : m + j] == s[j]
    # +1 where an occurrence starts, -1 just past its end: the running sum
    # counts the occurrences covering each cell
    delta = np.zeros(r.size + 1, dtype=np.int64)
    delta[:m] += starts
    delta[s.size :] -= starts
    return np.cumsum(delta[: r.size]) > 0


def highlight_pyramid(p: Pyramid, pattern: RowLike) -> HighlightMask:
    """Match every pyramid row; the mask shape mirrors the pyramid."""
    s = as_row(pattern)
    return HighlightMask(tuple(match_row(r, s) for r in p.rows))
