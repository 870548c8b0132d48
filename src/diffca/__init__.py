"""Difference pyramids over the naturals, with an elementary-CA reference.

The core rule: each generation maps a row of naturals to the absolute
differences of adjacent cells, so an n-cell row collapses through n
generations into a single cell. On 0/1 rows the rule is XOR, which ties
these triangles to elementary rule 90 and the binomial parity pattern;
:mod:`diffca.eca` carries the reference implementation used for that
comparison and :mod:`diffca.render` draws both.
"""

from .eca import (
    BOUNDARIES,
    EcaDiagram,
    EcaRule,
    NonBinaryCell,
    OutOfRange,
    eca_evolve,
    eca_step,
    impulse_agreement,
    impulse_row,
    rule_table,
)
from .engine import (
    CELL_DTYPE,
    MAX_CELL,
    IndexOutOfRange,
    InputExpression,
    Pyramid,
    RowTooShort,
    Triangle,
    as_row,
    evolve,
    make_symmetric,
    pascal_mod2,
    step,
)
from .expressions import (
    EmptyExpression,
    EmptyTerm,
    ExpressionError,
    InvalidCharacter,
    ValueOverflow,
    parse_expression,
    serialize_expression,
)
from .fixtures import FIXTURE_IDS, UnknownFixture, fixture_ids, load_fixture
from .patterns import HighlightMask, highlight_pyramid, match_row
from .render import (
    ALIGNMENTS,
    FORMATS,
    PALETTES,
    RenderSpec,
    ShapeMismatch,
    render_ascii,
    render_compare,
    render_eca,
    render_pbm,
    render_pgm,
    render_pyramid,
    render_svg,
)

__version__ = "0.1.0"

__all__ = [
    "ALIGNMENTS",
    "BOUNDARIES",
    "CELL_DTYPE",
    "EcaDiagram",
    "EcaRule",
    "EmptyExpression",
    "EmptyTerm",
    "ExpressionError",
    "FIXTURE_IDS",
    "FORMATS",
    "HighlightMask",
    "IndexOutOfRange",
    "InputExpression",
    "InvalidCharacter",
    "MAX_CELL",
    "NonBinaryCell",
    "OutOfRange",
    "PALETTES",
    "Pyramid",
    "RenderSpec",
    "RowTooShort",
    "ShapeMismatch",
    "Triangle",
    "UnknownFixture",
    "ValueOverflow",
    "as_row",
    "eca_evolve",
    "eca_step",
    "evolve",
    "fixture_ids",
    "highlight_pyramid",
    "impulse_agreement",
    "impulse_row",
    "load_fixture",
    "make_symmetric",
    "match_row",
    "parse_expression",
    "pascal_mod2",
    "render_ascii",
    "render_compare",
    "render_eca",
    "render_pbm",
    "render_pgm",
    "render_pyramid",
    "render_svg",
    "serialize_expression",
    "step",
    "__version__",
]
