"""Core engine for the absolute-difference automaton.

A state is a finite row of natural-number cells. One generation replaces
every adjacent pair by the absolute value of its difference, so each row
is one cell shorter than its parent; iterating down to a single cell
yields a triangular space-time diagram (a difference pyramid).

All operations are pure: inputs are never modified and identical inputs
give identical outputs, so everything here is safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

__all__ = [
    "CELL_DTYPE",
    "MAX_CELL",
    "IndexOutOfRange",
    "InputExpression",
    "Pyramid",
    "RowLike",
    "RowTooShort",
    "Triangle",
    "as_row",
    "evolve",
    "make_symmetric",
    "pascal_mod2",
    "step",
]

CELL_DTYPE = np.uint64
MAX_CELL = 2**64 - 1  # |a - b| <= max(a, b), so the input bound holds forever


class RowTooShort(ValueError):
    """A difference step needs at least two cells to form one pair."""


class IndexOutOfRange(ValueError):
    """Binomial-parity query outside the triangle (i < 0, t < 0 or i > t)."""


@dataclass(frozen=True)
class InputExpression:
    """A parsed input row: cell values plus the text they came from."""

    terms: tuple[int, ...]
    source_text: str = ""

    def __post_init__(self) -> None:
        terms = tuple(int(v) for v in self.terms)
        if not terms:
            raise ValueError("an input expression needs at least one term")
        for v in terms:
            if v < 0:
                raise ValueError(f"cell values are naturals, got {v}")
            if v > MAX_CELL:
                raise ValueError(f"cell value {v} exceeds the 64-bit bound")
        object.__setattr__(self, "terms", terms)

    def row(self) -> np.ndarray:
        """The terms as a cell row ready for :func:`evolve`."""
        return as_row(self.terms)

    def __len__(self) -> int:
        return len(self.terms)


RowLike = Union[np.ndarray, Sequence[int], InputExpression]


def as_row(values: RowLike) -> np.ndarray:
    """Coerce ``values`` to a 1-D uint64 cell row, validating the invariants.

    Accepts any integer sequence, an existing array, or an
    :class:`InputExpression`. Rejects empty input, negatives, non-integers
    and values that do not fit in 64 bits.
    """
    if isinstance(values, InputExpression):
        values = values.terms
    arr = np.asarray(values)
    if not isinstance(values, np.ndarray) and arr.dtype.kind not in "iub" and arr.dtype != object:
        # mixed magnitudes near 2**64 coerce to float; retry exactly
        arr = np.asarray(values, dtype=object)
    if arr.ndim != 1:
        raise ValueError(f"rows are one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("rows are nonempty")
    if arr.dtype == CELL_DTYPE:
        return arr
    if arr.dtype == object:
        for v in arr:
            if not isinstance(v, (int, np.integer)):
                raise ValueError(f"cell values are integers, got {type(v).__name__}")
    elif arr.dtype.kind not in "iub":
        raise ValueError(f"cell values are integers, got dtype {arr.dtype}")
    if (arr < 0).any():
        raise ValueError("cell values are naturals, got a negative")
    if arr.dtype == object and (arr > MAX_CELL).any():
        raise ValueError(f"cell values exceed the 64-bit bound {MAX_CELL}")
    return arr.astype(CELL_DTYPE)


def _abs_diff(row: np.ndarray) -> np.ndarray:
    # unsigned-safe |a - b|; plain subtraction would wrap
    a, b = row[:-1], row[1:]
    return np.where(a >= b, a - b, b - a)


def step(row: RowLike) -> np.ndarray:
    """One generation: ``out[i] = |row[i] - row[i+1]|``, one cell shorter.

    Raises :class:`RowTooShort` for rows with fewer than two cells.
    """
    r = as_row(row)
    if r.size < 2:
        raise RowTooShort("a difference step needs at least two cells")
    return _abs_diff(r)


@dataclass(frozen=True)
class Triangle:
    """Rows that shrink by one cell per generation.

    ``rows[0]`` is generation 0 and ``rows[t]`` has ``base_width - t``
    cells. Rows are shared, not copied: treat them as read-only.
    """

    rows: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("a triangle has at least one row")
        n = self.rows[0].size
        for t, r in enumerate(self.rows):
            if r.size != n - t:
                raise ValueError(f"row {t} has {r.size} cells, expected {n - t}")

    @property
    def base_width(self) -> int:
        return self.rows[0].size

    @property
    def height(self) -> int:
        return len(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.rows)

    def __getitem__(self, t: int) -> np.ndarray:
        return self.rows[t]

    def congruent_with(self, other: Triangle) -> bool:
        """True when both triangles have the same base width and height."""
        return self.height == other.height and self.base_width == other.base_width


class Pyramid(Triangle):
    """Triangular space-time diagram of the difference rule: rows of cell values."""

    @property
    def complete(self) -> bool:
        """True when the evolution ran all the way down to one cell."""
        return self.rows[-1].size == 1

    def to_lists(self) -> list[list[int]]:
        """Rows as plain ``int`` lists (handy for comparisons and JSON)."""
        return [[int(v) for v in r] for r in self.rows]


def evolve(input: RowLike, max_generations: int | None = None) -> Pyramid:
    """Evolve ``input`` down to a single cell (or for ``max_generations`` steps).

    A row of n cells yields n rows; a single-cell input is already complete
    and comes back as a one-row pyramid.
    """
    row = as_row(input).copy()  # generation 0 must not alias caller memory
    steps = row.size - 1
    if max_generations is not None:
        if max_generations < 0:
            raise ValueError("max_generations is non-negative")
        steps = min(steps, max_generations)
    rows = [row]
    for _ in range(steps):
        rows.append(_abs_diff(rows[-1]))
    for r in rows:
        r.setflags(write=False)
    return Pyramid(tuple(rows))


def _to_expression(p: RowLike) -> InputExpression:
    if isinstance(p, InputExpression):
        return p
    terms = tuple(int(v) for v in as_row(p))
    return InputExpression(terms, "-".join(str(v) for v in terms))


def make_symmetric(p: RowLike) -> InputExpression:
    """Concatenate the input with its own reversal, doubling its length.

    The result is a palindrome, and the difference rule preserves
    palindromes, so every row of its evolution is symmetric.
    """
    old = _to_expression(p).terms
    terms = old + old[::-1]
    return InputExpression(terms, "-".join(str(v) for v in terms))


def pascal_mod2(t: int, i: int) -> int:
    """``binomial(t, i) mod 2`` via the carry condition ``(i & (t-i)) == 0``.

    Independent oracle for impulse evolutions: a lone 1 in a sea of zeros
    propagates exactly as the parity of Pascal's triangle.
    """
    t, i = int(t), int(i)
    if t < 0 or i < 0 or i > t:
        raise IndexOutOfRange(f"(t={t}, i={i}) lies outside the triangle")
    return 1 if (i & (t - i)) == 0 else 0
