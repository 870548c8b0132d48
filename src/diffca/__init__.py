"""Difference pyramids over the naturals, with an elementary-CA reference.

The core rule: each generation maps a row of naturals to the absolute
differences of adjacent cells, so an n-cell row collapses through n
generations into a single cell. On 0/1 rows the rule is XOR, which ties
these triangles to elementary rule 90 and the binomial parity pattern;
:mod:`diffca.eca` carries the reference implementation used for that
comparison and :mod:`diffca.render` draws both.

Each module's ``__all__`` is its list of public names, and the package
re-exports all of them.
"""

from . import eca, engine, expressions, fixtures, patterns, render
from .eca import *  # noqa: F401,F403
from .engine import *  # noqa: F401,F403
from .expressions import *  # noqa: F401,F403
from .fixtures import *  # noqa: F401,F403
from .patterns import *  # noqa: F401,F403
from .render import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *eca.__all__,
    *engine.__all__,
    *expressions.__all__,
    *fixtures.__all__,
    *patterns.__all__,
    *render.__all__,
    "__version__",
]
