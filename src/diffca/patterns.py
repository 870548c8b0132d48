"""Row-wise pattern matching and highlight masks.

A pattern is a nonempty value sequence in the same notation as an input
row. A cell is highlighted when it lies inside at least one contiguous
occurrence of the pattern within its own row; occurrences may overlap.
Matching is strictly horizontal - the structures the masks reveal arise
from per-row runs, not vertical or diagonal alignments.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
        return int(sum(r.sum() for r in self.rows))


def match_row(row: RowLike, pattern: RowLike) -> np.ndarray:
    """Boolean array: True where the cell is covered by an occurrence.

    A pattern longer than the row matches nowhere. Overlapping
    occurrences all count; coverage is cellwise, so only patterns of
    length >= 2 can reveal the difference.
    """
    r = as_row(row)
    s = as_row(pattern)
    out = np.zeros(r.size, dtype=bool)
    if s.size > r.size:
        return out
    if s.size == 1:
        return r == s[0]
    hits = np.flatnonzero((sliding_window_view(r, s.size) == s).all(axis=1))
    for j in hits:
        out[j : j + s.size] = True
    return out


def highlight_pyramid(p: Pyramid, pattern: RowLike) -> HighlightMask:
    """Match every pyramid row; the mask shape mirrors the pyramid."""
    s = as_row(pattern)
    return HighlightMask(tuple(match_row(r, s) for r in p.rows))
