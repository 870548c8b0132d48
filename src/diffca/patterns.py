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

    _kind = "b"

    def count(self) -> int:
        """Total number of highlighted cells."""
        return int(np.count_nonzero(self.packed[0]))


def _cover(cells: np.ndarray, s: np.ndarray, starts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Mark in ``out`` the cells covered by an occurrence of ``s``, over rows packed back to back.

    Row r is ``cells[starts[r]:starts[r + 1]]``, one cell shorter than row r - 1. No occurrence
    crosses a row end, so only the leading rows of ``s.size`` cells or more can hold one, and
    none holds a value past the cells' dtype. ``s`` is cast to that dtype, so no compare widens.
    """
    k = s.size
    rows = min(starts.size - 1, int(starts[1]) - k + 1)
    if rows < 1 or int(s.max()) > np.iinfo(cells.dtype).max:
        out.fill(False)
        return out
    s = s.astype(cells.dtype)
    if k == 1:
        return np.equal(cells, s[0], out=out)
    m = int(starts[rows]) - k + 1  # possible starts, all in those rows
    hits = cells[:m] == s[0]
    for j in range(1, k):
        hits &= np.equal(cells[j : m + j], s[j], out=out[:m])
        hits[starts[1:rows] - j] = False  # a start within k - 1 cells of a row end crosses it
    out.fill(False)
    for j in range(k):
        out[j : m + j] |= hits  # each occurrence covers its k cells
    return out


def match_row(row: RowLike, pattern: RowLike) -> np.ndarray:
    """Boolean array: True where the cell is covered by an occurrence.

    A pattern longer than the row matches nowhere. Overlapping
    occurrences all count; coverage is cellwise, so only patterns of
    length >= 2 can reveal the difference.
    """
    # an unsigned row is matched in its own dtype, not copied to uint64 by as_row
    own = isinstance(row, np.ndarray) and row.dtype.kind == "u" and row.ndim == 1 and row.size
    r = row if own else as_row(row)
    return _cover(r, as_row(pattern), np.array([0, r.size]), np.empty(r.size, dtype=bool))


def highlight_pyramid(p: Pyramid, pattern: RowLike) -> HighlightMask:
    """Match every pyramid row; the mask shape mirrors the pyramid."""
    cells, starts = p.packed
    hits = _cover(cells, as_row(pattern), starts, HighlightMask._buffer(cells.size, np.bool_))
    return HighlightMask.__new__(HighlightMask)._hold(hits, starts)
