"""Dash-separated expression notation for input rows and patterns.

Grammar::

    expression := term ('-' term)* ('-')?
    term       := digit+

The dash is notational glue between cells, not subtraction: ``"2-0-1-4"``
is the row (2, 0, 1, 4). One trailing dash is tolerated because curated
inputs are sometimes written that way; a leading dash would read as a
negative number and is rejected. Surrounding whitespace and surrounding
``[ ] ( )`` brackets are stripped; anything else outside the grammar is an
error.
"""

from __future__ import annotations

import numpy as np

from .engine import CELL_DTYPE, MAX_CELL, RowLike, as_row

__all__ = [
    "EmptyExpression",
    "EmptyTerm",
    "ExpressionError",
    "InvalidCharacter",
    "ValueOverflow",
    "parse_expression",
    "serialize_expression",
]

_TERM_CHARS = frozenset("0123456789-")
_BRACKETS = "[]()"


class ExpressionError(ValueError):
    """Base class for every parse failure; the message names the cause."""


class EmptyExpression(ExpressionError):
    """Nothing but whitespace/brackets, so there is no term to read."""


class InvalidCharacter(ExpressionError):
    """A character outside digits, '-', and surrounding trim."""


class EmptyTerm(ExpressionError):
    """Adjacent separators or a leading separator left a term empty."""


class ValueOverflow(ExpressionError):
    """A term does not fit the 64-bit cell width."""


def parse_expression(text: str) -> np.ndarray:
    """Parse ``text`` into a read-only uint64 cell row.

    Raises exactly one of :class:`EmptyExpression`,
    :class:`InvalidCharacter`, :class:`EmptyTerm` or
    :class:`ValueOverflow` on bad input; any string maps to a result or
    one of those four.
    """
    if not isinstance(text, str):
        raise TypeError(f"expression text is a str, got {type(text).__name__}")
    s, last = text, None
    while s != last:  # peel whitespace and brackets until neither is left outside
        last, s = s, s.strip().strip(_BRACKETS)
    if not s:
        raise EmptyExpression(f"no terms in {text!r}")
    for pos, ch in enumerate(s):
        if ch not in _TERM_CHARS:
            raise InvalidCharacter(f"{ch!r} at position {pos} in {s!r}")
    parts = s.removesuffix("-").split("-")  # one trailing separator is tolerated
    if "" in parts:
        raise EmptyTerm(f"empty term in {s!r} (leading or doubled '-')")
    parts = [part.lstrip("0") or "0" for part in parts]  # int() refuses terms over 4300 digits
    big = max(parts, key=lambda part: (len(part), part))  # the largest term, compared as text
    if len(big) > len(str(MAX_CELL)) or int(big) > MAX_CELL:
        shown = big if len(big) <= 40 else big[:20] + "..."
        raise ValueOverflow(f"term {shown} exceeds the cell bound {MAX_CELL}")
    row = np.array(list(map(int, parts)), dtype=CELL_DTYPE)  # every term was bounded above
    row.setflags(write=False)
    return row


def serialize_expression(p: RowLike) -> str:
    """Terms joined by '-', no trailing separator; inverse of parsing."""
    return "-".join(map(str, as_row(p).tolist()))
