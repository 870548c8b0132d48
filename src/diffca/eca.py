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

from .engine import MAX_PYRAMID_CELLS, RowLike, TooLarge, as_row
from .patterns import HighlightMask

__all__ = [
    "BOUNDARIES",
    "EcaDiagram",
    "EcaRule",
    "NonBinaryCell",
    "OutOfRange",
    "eca_evolve",
    "eca_step",
    "impulse_agreement",
    "impulse_row",
    "rule_table",
]

BOUNDARIES = ("zero", "periodic")


class OutOfRange(ValueError):
    """Rule number outside 0..255."""


class NonBinaryCell(ValueError):
    """Elementary rules are defined on {0, 1} cells only."""


@dataclass(frozen=True)
class EcaRule:
    """A rule number with its expanded 8-entry lookup table.

    ``table[k]`` is the successor bit of the neighborhood
    ``k = 4*left + 2*center + right``.
    """

    number: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.table) != 8 or any(b not in (0, 1) for b in self.table):
            raise ValueError("rule table has exactly 8 binary entries")
        encoded = sum(b << k for k, b in enumerate(self.table))
        if encoded != self.number:
            raise ValueError(f"table encodes rule {encoded}, not {self.number}")


def rule_table(number: int) -> EcaRule:
    """Expand a Wolfram rule number into its lookup table."""
    number = int(number)
    if not 0 <= number <= 255:
        raise OutOfRange(f"rule numbers run 0..255, got {number}")
    return EcaRule(number, tuple((number >> k) & 1 for k in range(8)))


RuleLike = Union[int, EcaRule]


def _as_rule(rule: RuleLike) -> EcaRule:
    return rule if isinstance(rule, EcaRule) else rule_table(rule)


def _as_binary_row(row: RowLike) -> np.ndarray:
    # an integer array is checked in its own dtype instead of widened to
    # uint64; one that fails goes through as_row, which raises its error
    own = isinstance(row, np.ndarray) and row.dtype.kind in "iub"
    r = row if own and row.ndim == 1 and row.size and row.min() >= 0 else as_row(row)
    if (r > 1).any():
        raise NonBinaryCell("elementary rows hold only 0 and 1")
    return r.astype(np.uint8)


def impulse_row(width: int, index: int | None = None) -> np.ndarray:
    """A row of zeros with a single 1 (centered unless ``index`` is given)."""
    if width < 1:
        raise ValueError("width is at least 1")
    hot = width // 2 if index is None else index
    if not 0 <= hot < width:
        raise ValueError(f"impulse index {hot} outside a width-{width} row")
    row = np.zeros(width, dtype=np.uint8)
    row[hot] = 1
    return row


def _periodic(boundary: str) -> bool:
    """Validate ``boundary``; True when the row wraps around."""
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary is one of {BOUNDARIES}, got {boundary!r}")
    return boundary == "periodic"


def _step(padded: np.ndarray, table: np.ndarray, periodic: bool, out: np.ndarray) -> None:
    """Write the successor of the row in ``padded[1:-1]`` into ``out``.

    ``padded`` carries one edge cell on each side: the zero boundary leaves
    them 0, the periodic one copies the far end of the row into them.
    """
    if periodic:
        padded[0], padded[-1] = padded[-2], padded[1]
    idx = (padded[:-2] << 2) | (padded[1:-1] << 1) | padded[2:]
    np.take(table, idx, out=out)


def eca_step(row: RowLike, rule: RuleLike, boundary: str = "zero") -> np.ndarray:
    """One synchronous update; the width never changes."""
    r = _as_binary_row(row)
    table = np.asarray(_as_rule(rule).table, dtype=np.uint8)
    out = np.empty_like(r)
    _step(np.pad(r, 1), table, _periodic(boundary), out)
    return out


@dataclass(frozen=True)
class EcaDiagram:
    """Constant-width space-time diagram: ``rows[t]`` is generation t."""

    rows: np.ndarray  # shape (generations + 1, width), uint8
    rule: EcaRule
    boundary: str

    @property
    def width(self) -> int:
        return self.rows.shape[1]

    @property
    def generations(self) -> int:
        return self.rows.shape[0] - 1

    def __len__(self) -> int:
        return self.rows.shape[0]


def eca_evolve(
    initial: RowLike,
    rule: RuleLike,
    generations: int,
    boundary: str = "zero",
) -> EcaDiagram:
    """Evolve ``initial`` for ``generations`` steps; row 0 is the input.

    Raises :class:`TooLarge`, before converting the row, when the diagram
    would hold more than :data:`MAX_PYRAMID_CELLS` cells.
    """
    if generations < 0:
        raise ValueError("generations is non-negative")
    periodic = _periodic(boundary)
    width = initial.size if isinstance(initial, np.ndarray) else len(initial)
    TooLarge.check((generations + 1) * width, MAX_PYRAMID_CELLS, "diagram cells")
    rl = _as_rule(rule)
    first = _as_binary_row(initial)
    table = np.asarray(rl.table, dtype=np.uint8)
    rows = np.empty((generations + 1, first.size), dtype=np.uint8)
    rows[0] = first
    padded = np.zeros(first.size + 2, dtype=np.uint8)
    for t in range(generations):
        padded[1:-1] = rows[t]
        _step(padded, table, periodic, rows[t + 1])
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
    """
    j0 = int(impulse_index)
    total = direct = 0
    for t, row in enumerate(mask.rows):
        # the cone cells i = j0 - t + k that row t holds, and their parity
        # by pascal_mod2's carry condition (k & (t - k)) == 0
        lo, hi = max(j0 - t, 0), min(j0, row.size - 1)
        if lo > hi:
            continue
        k = np.arange(lo - j0 + t, hi - j0 + t + 1)
        total += hi - lo + 1
        direct += int(np.count_nonzero(row[lo : hi + 1] == ((k & (t - k)) == 0)))
    if total == 0:
        raise ValueError("no cone cells: impulse index outside the pyramid")
    return direct / total, (total - direct) / total
