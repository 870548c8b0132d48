"""Core evolution rule, pyramid container, and binomial parity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffca.engine import (
    CELL_DTYPE,
    MAX_CELL,
    IndexOutOfRange,
    InputExpression,
    Pyramid,
    RowTooShort,
    as_row,
    evolve,
    make_symmetric,
    pascal_mod2,
    step,
)

# ------------------------------------------------------------ oracle
#
# Independent parity reference: build Pascal's triangle mod 2 by the
# additive recurrence, no bit tricks involved.


def _parity_rows(depth: int) -> list[np.ndarray]:
    rows = [np.array([1], dtype=np.uint8)]
    for _ in range(depth):
        prev = rows[-1]
        nxt = np.zeros(prev.size + 1, dtype=np.uint8)
        nxt[: prev.size] = prev
        nxt[1:] ^= prev
        rows.append(nxt)
    return rows


def test_pascal_mod2_matches_additive_recurrence():
    for t, row in enumerate(_parity_rows(16)):
        for i in range(t + 1):
            assert pascal_mod2(t, i) == int(row[i]), (t, i)


@pytest.mark.parametrize("t, i", [(-1, 0), (3, -1), (3, 4), (0, 1)])
def test_pascal_mod2_rejects_out_of_range(t, i):
    with pytest.raises(IndexOutOfRange):
        pascal_mod2(t, i)


# ------------------------------------------------------------- rows


def test_as_row_accepts_lists_arrays_and_expressions():
    expected = np.array([2, 0, 1], dtype=CELL_DTYPE)
    for source in ([2, 0, 1], np.array([2, 0, 1]), InputExpression((2, 0, 1))):
        row = as_row(source)
        assert row.dtype == CELL_DTYPE
        assert np.array_equal(row, expected)


def test_as_row_keeps_the_top_of_the_cell_range():
    row = as_row([MAX_CELL, 0])
    assert int(row[0]) == MAX_CELL


@pytest.mark.parametrize(
    "bad",
    [[], [-1], [1.5], [MAX_CELL + 1], [[1, 2]], ["3"], [None]],
)
def test_as_row_rejects_non_natural_input(bad):
    with pytest.raises((ValueError, TypeError)):
        as_row(bad)


def test_input_expression_validates_terms():
    expr = InputExpression((2, 0, 1, 4), source_text="2-0-1-4")
    assert len(expr) == 4
    assert np.array_equal(expr.row(), [2, 0, 1, 4])
    with pytest.raises(ValueError):
        InputExpression(())
    with pytest.raises(ValueError):
        InputExpression((-3,))
    with pytest.raises(ValueError):
        InputExpression((MAX_CELL + 1,))


# ------------------------------------------------------------- step


@pytest.mark.parametrize(
    "row, expected",
    [
        ([2, 0, 1, 4], [2, 1, 3]),
        ([0, 0], [0]),
        ([7, 7, 7], [0, 0]),
        ([1, 5, 5, 1], [4, 0, 4]),
        ([MAX_CELL, 0], [MAX_CELL]),
        ([0, MAX_CELL], [MAX_CELL]),
    ],
)
def test_step_takes_absolute_adjacent_differences(row, expected):
    assert step(as_row(row)).tolist() == expected


def test_step_needs_two_cells():
    with pytest.raises(RowTooShort):
        step(as_row([5]))


# ----------------------------------------------------------- evolve


def test_evolve_contracts_to_a_single_cell():
    p = evolve([2, 0, 1, 4])
    assert isinstance(p, Pyramid)
    assert p.base_width == 4
    assert p.height == 4
    assert p.complete
    assert p.to_lists() == [[2, 0, 1, 4], [2, 1, 3], [1, 2], [1]]


def test_evolve_single_cell_input():
    p = evolve([9])
    assert p.height == 1
    assert p.to_lists() == [[9]]


def test_evolve_respects_max_generations():
    p = evolve([2, 0, 1, 4], max_generations=2)
    assert p.height == 3
    assert not p.complete
    assert p.to_lists() == [[2, 0, 1, 4], [2, 1, 3], [1, 2]]
    assert evolve([2, 0, 1, 4], max_generations=0).height == 1
    assert evolve([2, 0, 1, 4], max_generations=99).complete


def test_evolve_rejects_negative_generation_cap():
    with pytest.raises(ValueError):
        evolve([1, 2], max_generations=-1)


def test_pyramid_rows_are_read_only():
    p = evolve([3, 1, 4])
    with pytest.raises((ValueError, RuntimeError)):
        p.rows[0][0] = 9


def test_impulse_pyramid_is_binomial_parity_everywhere():
    # an isolated 1 spreads as Pascal's triangle mod 2: row t cell i
    # reads C(t, j0-i) mod 2, with zeros outside the cone
    n, j0 = 24, 11
    row = [0] * n
    row[j0] = 1
    p = evolve(row)
    parity = _parity_rows(n)
    for t in range(n):
        for i in range(n - t):
            k = j0 - i  # choose-index of C(t, j0-i)
            expected = int(parity[t][k]) if 0 <= k <= t else 0
            assert int(p.rows[t][i]) == expected, (t, i)


# --------------------------------------------------------- symmetry


def test_make_symmetric_mirrors_the_terms():
    assert make_symmetric(InputExpression((1, 5))).terms == (1, 5, 5, 1)
    assert make_symmetric([2, 0, 1]).terms == (2, 0, 1, 1, 0, 2)
    assert make_symmetric([7]).terms == (7, 7)


# ------------------------------------------------------ invariants

rows_st = st.lists(st.integers(0, 10**6), min_size=2, max_size=64)


@given(rows_st)
@settings(max_examples=200, deadline=None)
def test_step_never_exceeds_the_previous_maximum(values):
    row = as_row(values)
    assert step(row).max() <= row.max()


@given(rows_st, st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_step_ignores_a_constant_offset(values, c):
    row = as_row(values)
    shifted = row + np.uint64(c)
    assert np.array_equal(step(shifted), step(row))


@given(rows_st, st.integers(1, 1000))
@settings(max_examples=200, deadline=None)
def test_step_scales_with_the_input(values, k):
    row = as_row(values)
    assert np.array_equal(step(row * np.uint64(k)), step(row) * np.uint64(k))


@given(rows_st)
@settings(max_examples=200, deadline=None)
def test_step_commutes_with_reversal(values):
    row = as_row(values)
    assert np.array_equal(step(row[::-1].copy()), step(row)[::-1])


@given(st.lists(st.integers(0, 1), min_size=2, max_size=64))
@settings(max_examples=200, deadline=None)
def test_step_on_binary_rows_is_xor(bits):
    row = as_row(bits)
    assert np.array_equal(step(row), np.bitwise_xor(row[:-1], row[1:]))


@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=32))
@settings(max_examples=150, deadline=None)
def test_symmetric_inputs_evolve_into_palindromic_rows(values):
    p = evolve(make_symmetric(values))
    for row in p:
        assert np.array_equal(row, row[::-1])


@given(rows_st)
@settings(max_examples=150, deadline=None)
def test_evolve_contracts_one_cell_per_generation(values):
    p = evolve(values)
    assert [row.size for row in p] == list(range(len(values), 0, -1))
    assert np.array_equal(p.rows[0], as_row(values))
