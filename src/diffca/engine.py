"""Core engine for the absolute-difference automaton.

A state is a finite row of natural-number cells. One generation replaces
every adjacent pair by the absolute value of its difference, so each row
is one cell shorter than its parent; iterating down to a single cell
yields a triangular space-time diagram (a difference pyramid).

All operations are pure: inputs are never modified and identical inputs
give identical outputs, so everything here is safe to call concurrently.
"""

from __future__ import annotations

import contextlib
import mmap
import operator
import threading
import weakref
from functools import cached_property
from typing import Iterator, Sequence, Union

import numpy as np

__all__ = [
    "CELL_DTYPE",
    "MAX_CELL",
    "MAX_PYRAMID_CELLS",
    "IndexOutOfRange",
    "Pyramid",
    "RowLike",
    "TooLarge",
    "Triangle",
    "as_integer",
    "as_row",
    "evolve",
    "make_symmetric",
    "pascal_mod2",
]

CELL_DTYPE = np.uint64
MAX_CELL = 2**64 - 1  # |a - b| <= max(a, b), so the input bound holds forever
# 400 MB of uint64 cells: a full pyramid of up to 9 999 input cells fits
MAX_PYRAMID_CELLS = 50_000_000
# evolve re-reads the row's maximum this often, to move to a cheaper kernel as the range falls
_RANGE_READ_EVERY = 16


def as_integer(value, name: str) -> int:
    """``value`` as a plain int through ``operator.index``; else a TypeError naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} is an integer, got {value!r}") from None


class TooLarge(ValueError):
    """A pyramid or a figure would exceed its fixed size budget; nothing was allocated."""

    @staticmethod
    def check(count: int, budget: int, what: str) -> None:
        """Raise when ``count`` (of ``what``, e.g. "pyramid cells") exceeds ``budget``."""
        if count > budget:
            raise TooLarge(f"{count:,} {what} exceed the budget of {budget:,}")


class IndexOutOfRange(ValueError):
    """Binomial-parity query outside the triangle (i < 0, t < 0 or i > t)."""


RowLike = Union[np.ndarray, Sequence[int]]


def as_row(values: RowLike) -> np.ndarray:
    """``values`` as a 1-D cell row, validating the invariants.

    An unsigned array is returned as it is; any other integer input becomes
    uint64. Rejects empty input, negatives, non-integers and values that do
    not fit in 64 bits.
    """
    arr = np.asarray(values)
    if not isinstance(values, np.ndarray) and arr.dtype.kind not in "iub" and arr.dtype != object:
        # mixed magnitudes near 2**64 coerce to float; retry exactly
        arr = np.asarray(values, dtype=object)
    if arr.ndim != 1:
        raise ValueError(f"rows are one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("rows are nonempty")
    if arr.dtype.kind == "u":
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


class _Spares:
    """Memory maps whose arrays are gone, kept for the next buffer: at most two.

    A map's pages stay resident while it waits, so a buffer taken from it
    needs no fresh zeroed pages from the OS.
    """

    keep = 2

    def __init__(self) -> None:
        self.maps: list[mmap.mmap] = []
        # reentrant: a finalizer may hand a map back while this thread holds the lock
        self.lock = threading.RLock()

    def take(self, nbytes: int) -> mmap.mmap:
        """The smallest spare of at least ``nbytes``; with none, drop every spare and map anew."""
        with self.lock:
            fits = [m for m in self.maps if len(m) >= nbytes]
            if fits:
                m = min(fits, key=len)
                self.maps.remove(m)
                return m
            self.maps.clear()  # each map is unmapped as its last reference goes
        m = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
        with contextlib.suppress(OSError):  # a kernel without huge pages refuses the advice
            m.madvise(mmap.MADV_HUGEPAGE)  # as numpy does for large arrays: fewer page faults
        return m

    def give(self, m: mmap.mmap) -> None:
        """Keep ``m``, whose array is being collected, dropping the oldest spare past ``keep``."""
        with self.lock:
            self.maps.append(m)
            del self.maps[: -self.keep]


class Triangle:
    """Rows that shrink by one cell per generation, packed into one buffer.

    ``rows[0]`` is generation 0 and ``rows[t]`` has ``base_width - t``
    cells. The rows lie back to back in one read-only array (packed
    triangular storage, like LAPACK's ``TP`` format) and ``rows`` are
    views into it. Every cell has one unsigned integer dtype (bool for a
    ``HighlightMask``). ``Triangle(rows)`` packs loose rows with one copy.
    """

    _kind = "u"  # numpy dtype kind of every cell: unsigned; a HighlightMask's is "b"
    _spares = _Spares()  # shared by every triangle type: a pyramid's map may serve a mask

    def __init__(self, rows: Sequence[np.ndarray]) -> None:
        sizes = np.fromiter(map(np.size, rows), dtype=np.intp)
        if not sizes.size or (sizes != sizes[0] - np.arange(sizes.size)).any():
            raise ValueError(f"a triangle has rows of n, n - 1, ... cells, got {sizes.tolist()}")
        if len(dtypes := {np.asarray(r).dtype for r in rows}) > 1:  # concatenate would widen them
            raise ValueError(f"a triangle's rows share one dtype, got {sorted(map(str, dtypes))}")
        self._hold(np.concatenate(rows), np.append(0, np.cumsum(sizes)))

    def _hold(self, cells: np.ndarray, starts: np.ndarray) -> Triangle:
        """Keep ``cells`` read-only and without a copy; row t is ``cells[starts[t]:starts[t + 1]]``."""
        if cells.dtype.kind != self._kind:
            kind = "unsigned integers" if self._kind == "u" else "bool"
            raise ValueError(f"{type(self).__name__} rows are {kind}, got {cells.dtype}")
        cells.setflags(write=False)
        starts.setflags(write=False)
        self._cells, self._starts = cells, starts
        return self

    @staticmethod
    def _buffer(size: int, dtype: np.dtype | type) -> np.ndarray:
        """An uninitialised array of ``size`` cells; from 1 MiB on, in a memory map.

        When the array and every view of it are gone, its map becomes a spare,
        and the next buffer that fits takes the smallest spare instead of new
        pages, which the OS would have to zero on first touch. At most two
        spares are kept, and their pages stay resident while they wait; a
        buffer that none fits drops them all first. Smaller buffers stay on
        the heap: a map takes whole pages (mapping them too added 0.5-1 MB to
        the benchmark's peak RSS) and one of a process's ~65k maps.
        """
        nbytes = size * np.dtype(dtype).itemsize
        if nbytes < 1 << 20 or not hasattr(mmap, "MADV_HUGEPAGE"):  # small, or not Linux
            return np.empty(size, dtype)
        m = Triangle._spares.take(nbytes)
        cells = np.frombuffer(m, dtype, count=size)  # views keep ``cells``, not only ``m``, alive
        weakref.finalize(cells, Triangle._spares.give, m).atexit = False
        return cells

    @property
    def packed(self) -> tuple[np.ndarray, np.ndarray]:
        """``(cells, starts)``: the read-only buffer and its height + 1 row offsets."""
        return self._cells, self._starts

    @cached_property
    def rows(self) -> tuple[np.ndarray, ...]:
        s = self._starts.tolist()  # views made on first use: the packed kernels never need them
        return tuple(self._cells[a:b] for a, b in zip(s, s[1:]))

    @property
    def base_width(self) -> int:
        return int(self._starts[1])

    @property
    def height(self) -> int:
        return self._starts.size - 1

    def __len__(self) -> int:
        return self.height

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.rows)

    def __getitem__(self, t: int) -> np.ndarray:
        return self.rows[t]

    def congruent_with(self, other: Triangle) -> bool:
        """True when both triangles have the same base width and height."""
        return self.height == other.height and self.base_width == other.base_width


class Pyramid(Triangle):
    """Triangular space-time diagram of the difference rule: rows of cell values."""

    def to_lists(self) -> list[list[int]]:
        """Rows as plain ``int`` lists (handy for comparisons and JSON)."""
        return [r.tolist() for r in self.rows]


def evolve(input: RowLike, max_generations: int | None = None) -> Pyramid:
    """Evolve ``input`` down to a single cell (or for ``max_generations`` steps).

    A row of n cells yields n rows; a single-cell input is already complete
    and comes back as a one-row pyramid. The pyramid's cells have the
    narrowest unsigned dtype that holds the input's maximum (uint8 for
    digits): no generation outgrows it, since |a - b| <= max(a, b).
    The kernel follows the rows' maximum, read from generation 0 and every
    16 generations after until it is at most 1: one XOR a generation on 0/1
    rows (rule 102), a subtract and an abs through the signed view of the
    same cells below half the dtype's range, else max - min. Rows only lose
    range, so a kernel valid for one row stays valid for every later row.
    Raises :class:`TooLarge`, before computing any row, when the pyramid
    would hold more than :data:`MAX_PYRAMID_CELLS` cells.
    """
    row = as_row(input)
    n = row.size
    steps = n - 1
    if max_generations is not None:
        max_generations = as_integer(max_generations, "max_generations")
        if max_generations < 0:
            raise ValueError("max_generations is non-negative")
        steps = min(steps, max_generations)
    size = (steps + 1) * (2 * n - steps) // 2  # rows of n, n-1, ..., n-steps cells
    TooLarge.check(size, MAX_PYRAMID_CELLS, "pyramid cells")
    top = int(row.max())
    cells = Pyramid._buffer(size, np.min_scalar_type(top))
    cells[:n] = row  # generation 0 must not alias caller memory
    # below half the range, |a - b| <= top fits the signed type of the same width
    half = 2 ** (8 * cells.itemsize - 1)
    signed = cells.view(f"i{cells.itemsize}")
    scratch = np.empty(n - 1, cells.dtype) if top >= half else None
    lo = 0
    for t, w in enumerate(range(n, n - steps, -1)):  # row t is cells[lo:lo + w]; row t + 1 follows it
        if top > 1 and t and not t % _RANGE_READ_EVERY:
            top = int(cells[lo : lo + w].max())  # a kernel valid for row t stays valid below it
        work = signed if top < half else cells
        a, b, out = work[lo : lo + w - 1], work[lo + 1 : lo + w], work[lo + w : lo + 2 * w - 1]
        if top <= 1:  # on bits, |a - b| is a ^ b
            np.bitwise_xor(a, b, out=out)
        elif top < half:
            np.abs(np.subtract(a, b, out=out), out=out)
        else:  # unsigned-safe |a - b| = max - min; plain subtraction would wrap
            np.subtract(np.maximum(a, b, out=out), np.minimum(a, b, out=scratch[: w - 1]), out=out)
        lo += w
    t = np.arange(steps + 2)
    return Pyramid.__new__(Pyramid)._hold(cells, t * (2 * n + 1 - t) // 2)


def make_symmetric(p: RowLike) -> np.ndarray:
    """Concatenate the input row with its own reversal, doubling its length.

    The result is a palindrome, and the difference rule preserves
    palindromes, so every row of its evolution is symmetric.
    """
    row = as_row(p)
    return np.concatenate([row, row[::-1]])


def pascal_mod2(t: int, i: int) -> int:
    """``binomial(t, i) mod 2`` via the carry condition ``(i & (t-i)) == 0``.

    Independent oracle for impulse evolutions: a lone 1 in a sea of zeros
    propagates exactly as the parity of Pascal's triangle.
    """
    t, i = as_integer(t, "t"), as_integer(i, "i")
    if t < 0 or i < 0 or i > t:
        raise IndexOutOfRange(f"(t={t}, i={i}) lies outside the triangle")
    return 1 if (i & (t - i)) == 0 else 0
