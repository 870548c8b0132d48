"""Dash-expression parsing and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffca.engine import CELL_DTYPE, MAX_CELL
from diffca.expressions import (
    EmptyExpression,
    EmptyTerm,
    ExpressionError,
    InvalidCharacter,
    ValueOverflow,
    parse_expression,
    serialize_expression,
)


@pytest.mark.parametrize(
    "text, terms",
    [
        ("2-0-1-4", (2, 0, 1, 4)),
        ("9", (9,)),
        ("0", (0,)),
        ("0-", (0,)),  # one trailing dash is tolerated
        ("2-0-1-7-", (2, 0, 1, 7)),
        ("007-1", (7, 1)),
        (str(MAX_CELL), (MAX_CELL,)),
        ("[2-0-1]", (2, 0, 1)),
        ("(2-0-1)", (2, 0, 1)),
        ("  ( [2-0] )  ", (2, 0)),
        ("\n1-2\t", (1, 2)),
        # leading zeros do not count toward int()'s 4300-digit limit
        pytest.param("0" * 5000 + "7", (7,), id="5000-zeros-then-7"),
    ],
)
def test_parse_accepts_dash_rows(text, terms):
    row = parse_expression(text)
    assert row.dtype == CELL_DTYPE and not row.flags.writeable
    assert tuple(row.tolist()) == terms


@pytest.mark.parametrize(
    "text, error",
    [
        ("", EmptyExpression),
        ("   ", EmptyExpression),
        ("[]", EmptyExpression),
        ("( )", EmptyExpression),
        ("-", EmptyTerm),
        ("-2", EmptyTerm),
        ("2--0", EmptyTerm),
        ("2-0--", EmptyTerm),
        ("2-x-1", InvalidCharacter),
        ("2.5", InvalidCharacter),
        ("2 0", InvalidCharacter),  # inner whitespace is not a separator
        ("1-[2]", InvalidCharacter),  # brackets only surround the whole row
        (str(MAX_CELL + 1), ValueOverflow),
        ("1-" + str(2**80), ValueOverflow),
        pytest.param("9" * 5000, ValueOverflow, id="5000-nines"),  # past int()'s digit limit
    ],
)
def test_parse_rejects_malformed_input(text, error):
    with pytest.raises(error):
        parse_expression(text)
    assert issubclass(error, ExpressionError)
    assert issubclass(error, ValueError)


def test_parse_requires_a_string():
    with pytest.raises(TypeError):
        parse_expression([1, 2])  # type: ignore[arg-type]


def test_invalid_character_reports_its_position():
    with pytest.raises(InvalidCharacter) as exc:
        parse_expression("21?4")
    assert "position 2" in str(exc.value)


def test_serialize_is_canonical():
    assert serialize_expression([2, 0, 1, 4]) == "2-0-1-4"
    assert serialize_expression(np.array([7])) == "7"
    assert serialize_expression(parse_expression("0-")) == "0"


@given(st.lists(st.integers(0, MAX_CELL), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_round_trip_preserves_terms(terms):
    assert parse_expression(serialize_expression(terms)).tolist() == terms


@given(st.text(alphabet="0123456789-[]() \tazX.?", max_size=24))
@settings(max_examples=500, deadline=None)
def test_parse_is_total_over_junk(text):
    # any outcome but a defined error (or a parsed row) is a bug
    try:
        row = parse_expression(text)
    except ExpressionError:
        return
    assert row.dtype == CELL_DTYPE and row.ndim == 1 and row.size >= 1
