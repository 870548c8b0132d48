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

__all__ = ["HighlightMask", "highlight_pyramid"]


class HighlightMask(Triangle):
    """Boolean lattice congruent to a pyramid: True marks a matched cell."""

    _kind = "b"
    # how many leading cells highlight_pyramid compared: every cell past them is False.
    # A mask packed from loose rows has no such bound and counts whole.
    _compared: int | None = None

    def count(self) -> int:
        """Total number of highlighted cells."""
        return int(np.count_nonzero(self.packed[0][: self._compared]))


def _cover(cells: np.ndarray, s: np.ndarray, starts: np.ndarray, rows: int, out: np.ndarray) -> int:
    """Mark in ``out`` the cells covered by an occurrence of ``s``, over rows packed back to back.

    Row r is ``cells[starts[r]:starts[r + 1]]``, one cell shorter than row r - 1. Only the
    first ``rows`` rows are compared; the rest of ``out`` is False. No occurrence crosses a row
    end, so only the leading rows of ``s.size`` cells or more can hold one, and none holds a
    value past the cells' dtype. ``s`` is cast to the cells' dtype, so no compare widens.
    Returns how many leading cells were compared.
    """
    k, big = s.size, int(s.max())
    rows = min(rows, int(starts[1]) - k + 1)
    if rows < 1 or big > np.iinfo(cells.dtype).max:
        out.fill(False)
        return 0
    s = s.astype(cells.dtype)
    compared = int(starts[rows])
    m = compared - k + 1  # possible starts, all in those rows
    hits = np.equal(cells[:m], s[0], out=out[:m])
    for j in range(1, k):
        hits &= cells[j : m + j] == s[j]
        hits[starts[1:rows] - j] = False  # a start within k - 1 cells of a row end crosses it
    out[m:] = False  # the mask may sit in a recycled map
    for _ in range(k - 1):
        out[1:compared] |= out[: compared - 1]  # widen each start over its occurrence's k cells
    return compared


def highlight_pyramid(p: Pyramid, pattern: RowLike) -> HighlightMask:
    """Match every pyramid row; the mask shape mirrors the pyramid.

    Since |a - b| <= max(a, b), a row's maximum bounds every row below it. A
    pyramid from :func:`evolve` keeps the maxima it read, and no row from the
    first read maximum under the pattern's largest value on is scanned: none
    can match. A pyramid packed from loose rows keeps none and is scanned whole.
    """
    cells, starts = p.packed
    s = as_row(pattern)
    out = HighlightMask._buffer(cells.size, np.bool_)
    compared = _cover(cells, s, starts, p._rows_reaching(int(s.max())), out)
    mask = HighlightMask.__new__(HighlightMask)._hold(out, starts)
    mask._compared = compared
    return mask
