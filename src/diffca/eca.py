"""Reference elementary cellular automaton (radius-1 binary, Wolfram numbering).

Used to regenerate classic rule diagrams next to difference-pyramid
highlights. Bit k of the rule number is the successor of the neighborhood
whose (left, center, right) bits encode the value k, so rule 90 is
"left XOR right" and rule 0 maps everything to 0.

Unlike the shrinking difference pyramid, these diagrams keep a constant
width, so edges need a boundary policy: ``"zero"`` supplies 0 for the
missing neighbors (an explicit sea of zeros), ``"periodic"`` wraps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .engine import MAX_PYRAMID_CELLS, RowLike, TooLarge, as_integer, as_row
from .patterns import HighlightMask

__all__ = [
    "BOUNDARIES",
    "EcaDiagram",
    "EcaRule",
    "NonBinaryCell",
    "OutOfRange",
    "eca_evolve",
    "impulse_agreement",
    "impulse_row",
    "rule_table",
]

BOUNDARIES = ("zero", "periodic")
_AGREEMENT_BLOCK = 1 << 16  # cone cells per pass of impulse_agreement: a 0.5 MB block of intp indices
# rows a rule-90 band holds: a power of two, for the Lucas doubling
_BAND = 64


class OutOfRange(ValueError):
    """Rule number outside 0..255."""


class NonBinaryCell(ValueError):
    """Elementary rules are defined on {0, 1} cells only."""


@dataclass(frozen=True)
class EcaRule:
    """A Wolfram rule number, 0..255, and the 8-entry lookup table it encodes.

    ``table[k]`` is the successor bit of the neighborhood
    ``k = 4*left + 2*center + right``.
    """

    number: int

    def __post_init__(self) -> None:
        number = as_integer(self.number, "rule number")
        if not 0 <= number <= 255:
            raise OutOfRange(f"rule numbers run 0..255, got {number}")
        object.__setattr__(self, "number", number)  # a plain int, whatever integer type came in

    @property
    def table(self) -> tuple[int, ...]:
        return tuple((self.number >> k) & 1 for k in range(8))


def rule_table(number: int) -> EcaRule:
    """The rule with Wolfram number ``number``; its ``table`` is the expansion."""
    return EcaRule(number)


RuleLike = Union[int, EcaRule]


def impulse_row(width: int, index: int | None = None) -> np.ndarray:
    """A row of zeros with a single 1 (centered unless ``index`` is given)."""
    width = as_integer(width, "width")
    if width < 1:
        raise ValueError("width is at least 1")
    hot = width // 2 if index is None else as_integer(index, "index")
    if not 0 <= hot < width:
        raise ValueError(f"impulse index {hot} outside a width-{width} row")
    row = np.zeros(width, dtype=np.uint8)
    row[hot] = 1
    return row


def _diagram(first: np.ndarray, table: tuple[int, ...], periodic: bool, generations: int) -> np.ndarray:
    """Rows 0..``generations`` from the 0/1 row ``first``, as a ``(generations + 1, width)`` uint8 array.

    A row is one Python ``int`` with cell i at bit i, so a generation is a few
    whole-row bitwise operations: the successor is the XOR of the monomials
    of the rule's algebraic normal form, each an AND over the left
    neighbors, the cells and the right neighbors (rule 90 is ``left ^ right``).
    Each generation is kept only as its packed bytes until one unpack.
    """
    n = first.size
    nbytes = (n + 7) // 8
    full = (1 << n) - 1
    # the Moebius transform of the table over GF(2): anf[k] is 1 when the product
    # of the neighbors named by k's bits (4 left, 2 center, 1 right) is a term
    anf = list(table)
    for bit in (1, 2, 4):
        for k in range(8):
            if k & bit:
                anf[k] ^= anf[k ^ bit]
    constant = full if anf[0] else 0
    monomials = []  # each as its first factor and the rest, indices into (left, x, right)
    for k in range(1, 8):
        if anf[k]:
            first_factor, *rest = [i for i, bit in enumerate((4, 2, 1)) if k & bit]
            monomials.append((first_factor, rest))
    x = int.from_bytes(np.packbits(first, bitorder="little"), "little")
    packed = bytearray(x.to_bytes(nbytes, "little"))
    for _ in range(generations):
        left, right = (x << 1) & full, x >> 1  # the zero boundary shifts in 0
        if periodic:
            left |= x >> (n - 1)
            right |= (x & 1) << (n - 1)
        cells = (left, x, right)
        x = constant
        for i, rest in monomials:
            term = cells[i]
            for j in rest:
                term &= cells[j]
            x ^= term
        packed += x.to_bytes(nbytes, "little")
    rows = np.frombuffer(packed, np.uint8).reshape(generations + 1, nbytes)
    return np.unpackbits(rows, axis=1, count=n, bitorder="little")


def _xor_shifted(src: np.ndarray, dst: np.ndarray, shift: int) -> None:
    """Write into ``dst`` the 0/1 rows ``src`` shifted ``shift`` cells each way and XORed, on zero ghosts.

    A ghost cell of 0 beyond each end makes the rows, for rule 90, the mirror
    ring ``[0, x, 0, reversed(x)]`` of 2n + 2 cells, whose cells ``shift`` to
    either side are a plain slice of the row, the ghost and a reversed strip.
    """
    n = src.shape[1]
    ring = 2 * n + 2
    s = min(shift % ring, -shift % ring)  # shifting s and ring - s both ways is the same
    if s in (0, n + 1):  # each cell's two terms are one cell: they cancel
        dst[...] = 0
        return
    dst[:, s:] = src[:, : n - s]  # the left terms
    dst[:, s - 1] = 0
    dst[:, : s - 1] = src[:, : s - 1][:, ::-1]
    dst[:, : n - s] ^= src[:, s:]  # the right terms; the one at column n - s is a ghost
    dst[:, n - s + 1 :] ^= src[:, n - s + 1 :][:, ::-1]


def _rule_90_zero(first: np.ndarray, generations: int) -> np.ndarray:
    """Rows 0..``generations`` of rule 90 under the zero boundary, as a ``(generations + 1, width)`` uint8 array.

    Rule 90 is additive, so row t + k is row t shifted k cells each way and
    XORed for k = 2**m (Lucas; Martin, Odlyzko & Wolfram 1984). Rows k..2k-1
    come from rows 0..k-1 for k = 1, 2, .., 32, and every later band of
    ``_BAND`` rows from the band before it, straight into the diagram.
    """
    rows = np.empty((generations + 1, first.size), np.uint8)
    rows[0] = first
    b = 1  # the band's first row
    while b <= generations:
        k = min(b, _BAND)
        stop = min(b + k, generations + 1)
        _xor_shifted(rows[b - k : stop - k], rows[b:stop], k)
        b += k
    return rows


@dataclass(frozen=True)
class EcaDiagram:
    """Constant-width space-time diagram: ``rows[t]`` is generation t."""

    rows: np.ndarray  # shape (generations + 1, width), uint8
    rule: EcaRule
    boundary: str


def eca_evolve(
    initial: RowLike,
    rule: RuleLike,
    generations: int,
    boundary: str = "zero",
) -> EcaDiagram:
    """Evolve ``initial`` for ``generations`` steps; row 0 is the input.

    The width never changes; one step is ``eca_evolve(row, rule, 1).rows[1]``.
    Rule 90 under the zero boundary comes by Lucas doubling in bands of 64
    rows; every other rule and boundary steps the rows as packed integers.
    An unsigned array is used as it is; any other input becomes uint64.
    Raises :class:`TooLarge`, before allocating, when the diagram would
    hold more than :data:`MAX_PYRAMID_CELLS` cells.
    """
    generations = as_integer(generations, "generations")
    if generations < 0:
        raise ValueError("generations is non-negative")
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary is one of {BOUNDARIES}, got {boundary!r}")
    row = as_row(initial)
    TooLarge.check((generations + 1) * row.size, MAX_PYRAMID_CELLS, "diagram cells")
    rl = rule if isinstance(rule, EcaRule) else rule_table(rule)
    if (row > 1).any():
        raise NonBinaryCell("elementary rows hold only 0 and 1")
    if rl.number == 90 and boundary == "zero":
        rows = _rule_90_zero(row, generations)
    else:
        rows = _diagram(row, rl.table, boundary == "periodic", generations)
    rows.setflags(write=False)
    return EcaDiagram(rows, rl, boundary)


def impulse_agreement(mask: HighlightMask, impulse_index: int) -> tuple[float, float]:
    """Cone-cell agreement of a highlight mask against the binomial parity.

    For a pyramid grown from an impulse input (lone 1 at ``impulse_index``),
    the cells that can depend on the impulse in generation t sit at indices
    ``impulse_index - t + k`` for k = 0..t, and carry ``binomial(t, k) mod 2``.
    Returns ``(direct, complement)``: the fraction of existing cone cells
    where the mask equals that parity, and where it equals its negation.
    Either ratio at 1.0 certifies an exact structural reproduction.

    The cone is scored as a rectangle in blocks of whole rows, each block
    gathered from the mask through a sliding window over its row offsets.
    """
    j0 = as_integer(impulse_index, "impulse_index")
    cells, starts = mask.packed
    n, h = mask.base_width, mask.height
    if not 0 <= j0 < n:
        raise ValueError("no cone cells: impulse index outside the pyramid")
    # cone cell (t, j0 - t + k) is (a, b) = (k, t - k): the rectangle a <= n - 1 - j0,
    # b <= j0 (cut to a + b < h), where binomial(a + b, a) is odd iff a & b == 0;
    # with u[t] = starts[t] - t + j0 it sits at u[a + b] + a, so an a-row of the
    # rectangle is a window of u plus a
    b_cols, a_rows = min(j0 + 1, h), min(n - j0, h)
    t = np.arange(a_rows + b_cols - 1)
    u = starts.take(t, mode="clip") - t + j0  # a t past the cut indexes no cell of its own
    windows = sliding_window_view(u, b_cols)
    small = np.min_scalar_type(h)  # holds every a and b, so a & b is computed narrow
    b = np.arange(b_cols, dtype=small)
    # a truncated mask lacks the rectangle's corner a + b >= h, a triangle of side over
    over = max(0, a_rows + b_cols - 1 - h)
    total = a_rows * b_cols - over * (over + 1) // 2
    direct = 0
    step = min(a_rows, max(1, _AGREEMENT_BLOCK // b_cols))  # whole a-rows per block
    for a0 in range(0, a_rows, step):
        a = np.arange(a0, min(a0 + step, a_rows), dtype=small)[:, None]
        # an index past the cut wraps onto some real cell, which the corner test counts out
        hit = cells.take(windows[a0 : a0 + step] + a, mode="wrap") == ((a & b) == 0)
        if over:
            hit &= b < h - a  # a + b < h, without a sum that could outgrow the dtype
        direct += int(np.count_nonzero(hit))
    return direct / total, (total - direct) / total
