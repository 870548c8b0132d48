"""Elementary (Wolfram) rule reference: tables, stepping, diagrams."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffca.eca import (
    BOUNDARIES,
    EcaDiagram,
    EcaRule,
    NonBinaryCell,
    OutOfRange,
    eca_evolve,
    impulse_agreement,
    impulse_row,
    rule_table,
)
from diffca.engine import MAX_CELL, MAX_PYRAMID_CELLS, TooLarge, evolve, pascal_mod2
from diffca.patterns import HighlightMask, highlight_pyramid


# ------------------------------------------------------------ tables


@pytest.mark.parametrize("number", [0, 30, 90, 110, 182, 254, 255])
def test_rule_table_is_the_binary_expansion(number):
    rule = rule_table(number)
    assert rule.number == number
    assert len(rule.table) == 8
    for k in range(8):
        assert rule.table[k] == (number >> k) & 1


def test_rule_90_is_xor_of_the_outer_neighbors():
    rule = rule_table(90)
    for left in (0, 1):
        for center in (0, 1):
            for right in (0, 1):
                assert rule.table[4 * left + 2 * center + right] == left ^ right


def test_rule_110_truth_table():
    rule = rule_table(110)
    expected = {  # (left, center, right) -> next center
        (1, 1, 1): 0, (1, 1, 0): 1, (1, 0, 1): 1, (1, 0, 0): 0,
        (0, 1, 1): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 0,
    }
    for (l, c, r), v in expected.items():
        assert rule.table[4 * l + 2 * c + r] == v


@pytest.mark.parametrize("bad", [-1, 256, 1000])
def test_rule_numbers_are_one_byte(bad):
    with pytest.raises(OutOfRange):
        rule_table(bad)
    with pytest.raises(OutOfRange):
        EcaRule(bad)


@pytest.mark.parametrize("number", [90.7, 90.0, "90", None])
def test_rule_numbers_that_are_not_integers_are_named(number):
    with pytest.raises(TypeError, match="rule number is an integer"):
        rule_table(number)
    with pytest.raises(TypeError, match="rule number is an integer"):
        EcaRule(number)


def test_rule_numbers_take_integer_likes():
    assert rule_table(np.uint8(90)) == rule_table(90)
    assert EcaRule(np.int64(30)).table == EcaRule(30).table
    assert type(EcaRule(np.int64(30)).number) is int


# ------------------------------------------------------------- steps


def test_step_rule_90_zero_boundary():
    assert eca_evolve([0, 0, 1, 0, 0], 90, 1).rows[1].tolist() == [0, 1, 0, 1, 0]
    assert eca_evolve([1, 0, 0, 1], 90, 1).rows[1].tolist() == [0, 1, 1, 0]


def test_step_rule_90_periodic_boundary():
    assert eca_evolve([1, 0, 0, 1], 90, 1, boundary="periodic").rows[1].tolist() == [1, 1, 1, 1]
    assert eca_evolve([1, 0, 0, 0], 90, 1, boundary="periodic").rows[1].tolist() == [0, 1, 0, 1]


def test_step_rule_110_example():
    assert eca_evolve([0, 1, 1, 0], 110, 1).rows[1].tolist() == [1, 1, 1, 0]


def test_step_rejects_non_binary_rows():
    with pytest.raises(NonBinaryCell):
        eca_evolve([0, 2, 1], 90, 1)


@pytest.mark.parametrize(
    "row, error, text",
    [
        (np.array([0, 2], dtype=np.int16), NonBinaryCell, "only 0 and 1"),
        (np.array([2, -1], dtype=np.int8), ValueError, "naturals"),
        (np.array([[0, 1]]), ValueError, "one-dimensional"),
        (np.array([], dtype=np.uint8), ValueError, "nonempty"),
        (np.array([0.0, 1.0]), ValueError, "integers"),
    ],
)
def test_binary_rows_name_what_is_wrong_with_an_array(row, error, text):
    with pytest.raises(error, match=text) as err:
        eca_evolve(row, 90, 0)
    assert type(err.value) is error


def test_binary_rows_are_checked_in_their_own_dtype():
    row = impulse_row(1_000_000)
    tracemalloc.start()
    try:
        binary = eca_evolve(row, 90, 0).rows[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * row.nbytes  # no uint64 copy of the row on the way
    assert binary.dtype == np.uint8 and np.array_equal(binary, row)
    assert eca_evolve(np.array([True, False]), 90, 0).rows[0].tolist() == [1, 0]


def test_step_rejects_unknown_boundary():
    with pytest.raises(ValueError):
        eca_evolve([0, 1, 0], 90, 1, boundary="mirror")


def test_impulse_row_is_centered_by_default():
    assert impulse_row(5).tolist() == [0, 0, 1, 0, 0]
    assert impulse_row(4).tolist() == [0, 0, 1, 0]
    assert impulse_row(5, index=0).tolist() == [1, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        impulse_row(0)
    with pytest.raises(ValueError):
        impulse_row(5, index=5)


def test_impulse_row_takes_integers_only():
    # True is the integer 1, not a mask over the row; numpy integers are integers
    assert impulse_row(5, True).tolist() == [0, 1, 0, 0, 0]
    assert impulse_row(np.int64(3), np.uint8(0)).tolist() == [1, 0, 0]
    with pytest.raises(TypeError, match="^index is an integer"):
        impulse_row(5, 2.0)
    with pytest.raises(TypeError, match="^width is an integer"):
        impulse_row(5.0)


# ---------------------------------------------------------- diagrams


def test_evolve_keeps_width_and_grows_one_row_per_generation():
    d = eca_evolve(impulse_row(9), 90, 4)
    assert isinstance(d, EcaDiagram)
    assert d.rows.shape == (5, 9)
    assert d.rows[0].tolist() == impulse_row(9).tolist()


def test_evolve_is_deterministic():
    a = eca_evolve(impulse_row(31), 110, 30)
    b = eca_evolve(impulse_row(31), 110, 30)
    assert np.array_equal(a.rows, b.rows)


def test_evolve_rejects_an_unknown_boundary_even_without_steps():
    with pytest.raises(ValueError):
        eca_evolve([0, 1, 0], 90, 0, boundary="mirror")


def test_evolve_refuses_a_diagram_over_the_cell_budget_before_allocating():
    row = impulse_row(100_000)
    generations = MAX_PYRAMID_CELLS // row.size  # one row more than the budget holds
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            eca_evolve(row, 90, generations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < row.nbytes  # the row was not even copied
    assert eca_evolve(row, 90, 1).rows.shape[0] == 2


def test_evolve_memory_stays_near_the_diagram_it_returns():
    row = impulse_row(1_000_000)
    tracemalloc.start()
    try:
        d = eca_evolve(row, 90, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * d.rows.nbytes  # no per-cell index temporaries on the way


@pytest.mark.parametrize("generations", [1.5, "2", None])
def test_evolve_names_a_generations_argument_that_is_not_an_integer(generations):
    with pytest.raises(TypeError, match="generations"):
        eca_evolve([0, 1, 0], 90, generations)
    assert eca_evolve([0, 1, 0], 90, np.int64(1)).rows.shape[0] == 2


@pytest.mark.parametrize("initial", [5, iter([0, 1])], ids=["int", "iterator"])
def test_evolve_refuses_an_input_without_a_length_as_the_engine_does(initial):
    # eca_evolve takes the width from as_row, which names the shape of what is not a row
    with pytest.raises(ValueError, match=r"^rows are one-dimensional, got shape \(\)$"):
        evolve(initial)
    with pytest.raises(ValueError, match=r"^rows are one-dimensional, got shape \(\)$"):
        eca_evolve(initial, 90, 1)


def test_evolve_refuses_negative_generations():
    with pytest.raises(ValueError, match="^generations is non-negative$"):
        eca_evolve([0, 1, 0], 90, -1)


def test_diagram_rows_are_read_only():
    d = eca_evolve(impulse_row(5), 90, 2)
    with pytest.raises(ValueError):
        d.rows[0, 0] = 1


def _step_by_cell(row, number, boundary):
    # the truth table read cell by cell, independent of the stepping code
    n = len(row)

    def cell(i):
        if boundary == "periodic":
            return row[i % n]
        return row[i] if 0 <= i < n else 0

    return [(number >> (4 * cell(i - 1) + 2 * cell(i) + cell(i + 1))) & 1 for i in range(n)]


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=40),
    st.sampled_from(BOUNDARIES),
    st.integers(0, 8),
)
@example([1], "periodic", 3)
@example([0, 1], "periodic", 2)
@settings(max_examples=15, deadline=None)
def test_evolve_matches_repeated_steps_for_every_rule(row, boundary, generations):
    for number in range(256):
        step = eca_evolve(row, number, 1, boundary=boundary).rows[1]
        assert step.tolist() == _step_by_cell(row, number, boundary)
        expected = [row]
        for _ in range(generations):
            expected.append(_step_by_cell(expected[-1], number, boundary))
        d = eca_evolve(row, number, generations, boundary=boundary)
        assert d.rows.dtype == np.uint8
        assert d.rows.tolist() == expected, number


def _edge_row(width):
    # ones at both ends, so that every boundary term matters
    return [int(i % 3 != 1 or i == width - 1) for i in range(width)]


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=200),
    st.sampled_from(BOUNDARIES),
    st.integers(0, 4),
)
@example([1], "periodic", 3)
@example(_edge_row(63), "periodic", 3)
@example(_edge_row(64), "zero", 3)
@example(_edge_row(64), "periodic", 3)
@example(_edge_row(65), "zero", 3)
@example(_edge_row(65), "periodic", 3)
@settings(max_examples=20, deadline=None)
def test_evolve_matches_the_truth_table_read_cell_by_cell(row, boundary, generations):
    # rows past 64 and 128 cells cross the machine-word marks of the packed kernel
    for number in range(256):
        expected = [row]
        for _ in range(generations):
            expected.append(_step_by_cell(expected[-1], number, boundary))
        d = eca_evolve(row, number, generations, boundary=boundary)
        assert d.rows.tolist() == expected, number


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 63, 64, 65, 66, 127, 128, 129, 130])
def test_rule_90_bands_match_the_truth_table_at_their_edges(width):
    # rule 90 on the zero boundary doubles up to 64 rows and then jumps 64 rows a band,
    # each cell from the cells 64 to either side, reflected at the edges: widths and
    # generation counts on, just under and just over a band, and more rows than cells
    row = np.random.default_rng(width).integers(0, 2, width).tolist()
    row[0] = row[-1] = 1  # both edges reflect a 1
    expected = [row]
    for _ in range(200):
        expected.append(_step_by_cell(expected[-1], 90, "zero"))
    for generations in (0, 1, 63, 64, 65, 127, 128, 129, 200):
        assert eca_evolve(row, 90, generations).rows.tolist() == expected[: generations + 1], generations


def test_rule_90_impulse_is_binomial_parity():
    # closed form: cell (t, c0 + delta) is C(t, (t+delta)/2) mod 2 when
    # t+delta is even, else 0; exact while the cone stays off the edges
    depth = 32
    width = 2 * depth + 1
    c0 = depth
    d = eca_evolve(impulse_row(width), 90, depth)
    for t in range(depth + 1):
        for c in range(width):
            delta = c - c0
            if (t + delta) % 2 == 0 and -t <= delta <= t:
                expected = pascal_mod2(t, (t + delta) // 2)
            else:
                expected = 0
            assert int(d.rows[t, c]) == expected, (t, c)


def test_rule_182_impulse_structure():
    # inside the cone, parity-valid positions are all 1; the positions
    # between them hold the XNOR of the two parity cells they separate
    depth = 32
    width = 2 * depth + 1
    c0 = depth
    d = eca_evolve(impulse_row(width), 182, depth)
    for t in range(depth + 1):
        for c in range(width):
            delta = c - c0
            if not -t <= delta <= t:
                expected = 0
            elif (t + delta) % 2 == 0:
                expected = 1
            else:
                k = (t + delta - 1) // 2
                expected = 1 - (pascal_mod2(t, k) ^ pascal_mod2(t, k + 1))
            assert int(d.rows[t, c]) == expected, (t, c)


def test_rule_182_impulse_is_not_the_cone_complement_of_rule_90():
    # a tempting simplification that happens to be false: complementing
    # rule 90 inside the cone does not reproduce rule 182
    depth = 8
    width = 2 * depth + 1
    c0 = depth
    d90 = eca_evolve(impulse_row(width), 90, depth)
    d182 = eca_evolve(impulse_row(width), 182, depth)
    mismatches = 0
    for t in range(depth + 1):
        for c in range(c0 - t, c0 + t + 1):
            if int(d182.rows[t, c]) != 1 - int(d90.rows[t, c]):
                mismatches += 1
    assert mismatches > 0


@st.composite
def digit_or_full_range_rows(draw):
    n = draw(st.integers(1, 300))
    top = draw(st.sampled_from([9, MAX_CELL]))
    return draw(st.lists(st.integers(0, top), min_size=n, max_size=n))


@given(digit_or_full_range_rows())
# the packed rows of 63, 64, 65 and 129 cells end just before, on and past a 64-bit word
@example([(i * i + 3) % 10 for i in range(63)])
@example([(i * 7) % 10 for i in range(64)])
@example([MAX_CELL - i for i in range(65)])
@example([(MAX_CELL - 1) * (i % 3 == 0) + i % 2 for i in range(129)])
@settings(max_examples=60, deadline=None)
def test_the_mod_2_pyramid_is_rule_102(row):
    # |a - b| mod 2 is a xor b, the center XOR the right neighbor: rule 102, whose
    # zero boundary only reaches the cells the shrinking pyramid has dropped
    n = len(row)
    d = eca_evolve(np.array(row, dtype=np.uint64) % 2, 102, n - 1)
    for t, cells in enumerate(evolve(row).rows):
        assert np.array_equal(cells % 2, d.rows[t, : n - t]), t


# --------------------------------------------------------- agreement


def test_impulse_agreement_on_a_small_impulse():
    row = [0, 0, 0, 1, 0, 0, 0]
    p = evolve(row)
    ones = highlight_pyramid(p, [1])
    zeros = highlight_pyramid(p, [0])
    direct, complement = impulse_agreement(ones, 3)
    assert direct == 1.0 and complement == 0.0
    direct, complement = impulse_agreement(zeros, 3)
    assert direct == 0.0 and complement == 1.0


def test_impulse_agreement_fractions_sum_to_one():
    p = evolve([0, 1, 0, 0, 1, 1])
    mask = highlight_pyramid(p, [1])
    direct, complement = impulse_agreement(mask, 1)
    assert 0.0 <= direct <= 1.0
    assert direct + complement == pytest.approx(1.0)


def _agreement_by_cell(mask, j0):
    # the cone walked cell by cell against pascal_mod2; None when it is empty
    total = direct = complement = 0
    for t, row in enumerate(mask.rows):
        for k in range(t + 1):
            i = j0 - t + k
            if 0 <= i < row.size:
                total += 1
                if bool(row[i]) == bool(pascal_mod2(t, k)):
                    direct += 1
                else:
                    complement += 1
    if total == 0:
        return None
    return direct / total, complement / total


def _random_mask(n, seed):
    bits = np.random.default_rng(seed).integers(0, 2, n * (n + 1) // 2).astype(bool)
    return HighlightMask(tuple(np.split(bits, np.cumsum(np.arange(n, 1, -1)))))


@st.composite
def masks_and_origins(draw):
    # any boolean triangle, not only impulse pyramids, and an origin in -3 .. n+3
    n = draw(st.integers(1, 60))
    height = draw(st.integers(1, n))
    cells = height * (2 * n - height + 1) // 2
    raw = draw(st.binary(min_size=(cells + 7) // 8, max_size=(cells + 7) // 8))
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:cells].astype(bool)
    ends = np.cumsum([n - t for t in range(height)])
    return HighlightMask(tuple(np.split(bits, ends[:-1]))), draw(st.integers(-3, n + 3))


@given(masks_and_origins())
# width 701 needs several blocks of whole cone rows once j0 is away from both ends
@example((highlight_pyramid(evolve(impulse_row(701, 0)), [1]), 0))
@example((highlight_pyramid(evolve(impulse_row(701)), [1]), 350))
@example((highlight_pyramid(evolve(impulse_row(701, 700)), [0]), 700))
@example((highlight_pyramid(evolve(impulse_row(701, 300), max_generations=450), [1]), 300))
@example((_random_mask(701, 9), 467))
@settings(max_examples=300, deadline=None)
def test_impulse_agreement_matches_a_per_cell_reference(case):
    mask, j0 = case
    expected = _agreement_by_cell(mask, j0)
    if expected is None:
        with pytest.raises(ValueError):
            impulse_agreement(mask, j0)
    else:
        assert impulse_agreement(mask, j0) == expected


@pytest.mark.parametrize("index", [1.7, "1", None])
def test_impulse_agreement_names_an_index_that_is_not_an_integer(index):
    mask = highlight_pyramid(evolve([0, 1, 0]), [1])
    with pytest.raises(TypeError, match="impulse_index"):
        impulse_agreement(mask, index)
    assert impulse_agreement(mask, np.int64(1)) == (1.0, 0.0)


def test_impulse_agreement_needs_a_valid_origin():
    mask = highlight_pyramid(evolve([1, 0, 0]), [1])
    with pytest.raises(ValueError):
        impulse_agreement(mask, 7)
