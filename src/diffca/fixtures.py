"""Curated input rows and their reference data, compiled into the package.

These rows and the reference triangle below are transcribed verbatim, not
generated; keeping them in source (rather than loose data files) means a
figure regeneration can never drift from the code that ships it.

Fixture ids:

* ``default-p``  - the 19-cell showcase input.
* ``p1``         - 8-cell non-symmetric input.
* ``p1-new``     - ``p1`` followed by its reversal (palindrome, 16 cells).
* ``a1``         - binary impulse: 101 cells, a single 1 at index 50.
* ``a2``         - 67-cell input used for the rule-110 style comparison.

``DEFAULT_EVOLUTION`` is the independently transcribed full evolution of
``default-p`` (19 rows ending in a single 0); the ``selfcheck`` command
re-derives it and compares.
"""

from __future__ import annotations

import numpy as np

from .expressions import parse_expression

__all__ = [
    "DEFAULT_EVOLUTION",
    "FIXTURE_IDS",
    "UnknownFixture",
    "load_fixture",
]


class UnknownFixture(KeyError):
    """No fixture with the requested id; see :data:`FIXTURE_IDS`."""

    def __str__(self) -> str:  # KeyError would add quotes
        return str(self.args[0]) if self.args else ""


_SOURCES = {
    "default-p": "2-0-1-7-0-4-7-8-9-0-9-8-7-4-0-7-1-0-2",
    "p1": "2-0-1-7-2-0-1-8",
    "p1-new": "2-0-1-7-2-0-1-8-8-1-0-2-7-1-0-2",
    "a1": (
        "0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-"
        "0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-"
        "1-"
        "0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-"
        "0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-0-"
    ),
    "a2": (
        "9-9-1-0-5-0-9-8-8-9-7-8-9-7-8-9-7-8-9-7-8-9-7-8-9-"
        "7-8-9-7-8-9-7-8-9-7-8-9-7-8-9-7-8-9-7-8-9-7-8-9-4-"
        "5-1-7-8-9-7-8-9-7-8-9-7-8-9-7-8-9-"
    ),
}

FIXTURE_IDS: tuple[str, ...] = tuple(_SOURCES)

# Full evolution of default-p, transcribed row by row as reference data
# (not generated by this package).
DEFAULT_EVOLUTION: tuple[tuple[int, ...], ...] = (
    (2, 0, 1, 7, 0, 4, 7, 8, 9, 0, 9, 8, 7, 4, 0, 7, 1, 0, 2),
    (2, 1, 6, 7, 4, 3, 1, 1, 9, 9, 1, 1, 3, 4, 7, 6, 1, 2),
    (1, 5, 1, 3, 1, 2, 0, 8, 0, 8, 0, 2, 1, 3, 1, 5, 1),
    (4, 4, 2, 2, 1, 2, 8, 8, 8, 8, 2, 1, 2, 2, 4, 4),
    (0, 2, 0, 1, 1, 6, 0, 0, 0, 6, 1, 1, 0, 2, 0),
    (2, 2, 1, 0, 5, 6, 0, 0, 6, 5, 0, 1, 2, 2),
    (0, 1, 1, 5, 1, 6, 0, 6, 1, 5, 1, 1, 0),
    (1, 0, 4, 4, 5, 6, 6, 5, 4, 4, 0, 1),
    (1, 4, 0, 1, 1, 0, 1, 1, 0, 4, 1),
    (3, 4, 1, 0, 1, 1, 0, 1, 4, 3),
    (1, 3, 1, 1, 0, 1, 1, 3, 1),
    (2, 2, 0, 1, 1, 0, 2, 2),
    (0, 2, 1, 0, 1, 2, 0),
    (2, 1, 1, 1, 1, 2),
    (1, 0, 0, 0, 1),
    (1, 0, 0, 1),
    (1, 0, 1),
    (1, 1),
    (0,),
)


def load_fixture(name: str) -> np.ndarray:
    """Return the named fixture's cell row, parsed from its verbatim source string."""
    try:
        source = _SOURCES[name]
    except KeyError:
        raise UnknownFixture(f"unknown fixture {name!r} (known: {', '.join(FIXTURE_IDS)})") from None
    return parse_expression(source)
