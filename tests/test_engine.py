"""Core evolution rule, pyramid container, and binomial parity."""

import itertools
import math
import mmap
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffca.eca import eca_evolve
from diffca import engine
from diffca.engine import (
    CELL_DTYPE,
    MAX_CELL,
    MAX_PYRAMID_CELLS,
    IndexOutOfRange,
    Pyramid,
    TooLarge,
    Triangle,
    as_row,
    evolve,
    make_symmetric,
    pascal_mod2,
)
from diffca.expressions import parse_expression
from diffca.patterns import highlight_pyramid, match_row

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


@pytest.mark.parametrize("t, i, name", [(2.7, 1, "t"), (3, 1.0, "i"), ("3", 1, "t")])
def test_pascal_mod2_takes_integers_only(t, i, name):
    with pytest.raises(TypeError, match=f"^{name} is an integer"):
        pascal_mod2(t, i)
    assert pascal_mod2(np.int64(4), True) == 0  # numpy integers and bools are integers


# ------------------------------------------------------------- rows


def test_as_row_accepts_lists_arrays_and_expressions():
    expected = np.array([2, 0, 1], dtype=CELL_DTYPE)
    for source in ([2, 0, 1], np.array([2, 0, 1]), parse_expression("2-0-1")):
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


_KEPT_DTYPES = ("uint8", "uint16", "uint32", "uint64", ">u2")


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(st.integers(0, 127), min_size=1, max_size=12),
    form=st.sampled_from(_KEPT_DTYPES + ("int8", "int64", "bool", list, tuple)),
    binary=st.booleans(),
    rule=st.integers(0, 255),
)
def test_as_row_keeps_an_unsigned_array_and_converts_any_other_input(values, form, binary, rule):
    if binary or form == "bool":
        values = [v & 1 for v in values]
    source = form(values) if callable(form) else np.array(values, dtype=form)
    row = as_row(source)
    if form in _KEPT_DTYPES:
        assert row is source
    else:
        assert row is not source and row.dtype == CELL_DTYPE
    assert row.tolist() == values
    # every consumer of a row sees the same values as for the row as a list
    pattern = values[:2]
    assert evolve(source).to_lists() == evolve(values).to_lists()
    assert match_row(source, pattern).tolist() == match_row(values, pattern).tolist()
    assert make_symmetric(source).tolist() == make_symmetric(values).tolist()
    if max(values) <= 1:
        assert np.array_equal(eca_evolve(source, rule, 3).rows, eca_evolve(values, rule, 3).rows)


# ------------------------------------------------------- generation


def _generation(values) -> list[int]:
    """Generation 1 of ``values`` as Python ints, so no product below can wrap."""
    return evolve(values, max_generations=1).rows[1].tolist()

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
    assert _generation(row) == expected


# ----------------------------------------------------------- evolve


def test_evolve_contracts_to_a_single_cell():
    p = evolve([2, 0, 1, 4])
    assert isinstance(p, Pyramid)
    assert p.base_width == 4
    assert p.height == 4
    assert p.height == p.base_width
    assert p.to_lists() == [[2, 0, 1, 4], [2, 1, 3], [1, 2], [1]]


def test_evolve_single_cell_input():
    p = evolve([9])
    assert p.height == 1
    assert p.to_lists() == [[9]]


def test_evolve_respects_max_generations():
    p = evolve([2, 0, 1, 4], max_generations=2)
    assert p.height == 3
    assert p.height != p.base_width
    assert p.to_lists() == [[2, 0, 1, 4], [2, 1, 3], [1, 2]]
    assert evolve([2, 0, 1, 4], max_generations=0).height == 1
    p = evolve([2, 0, 1, 4], max_generations=99)
    assert p.height == p.base_width


def test_evolve_rejects_negative_generation_cap():
    with pytest.raises(ValueError):
        evolve([1, 2], max_generations=-1)


@pytest.mark.parametrize("cap", [1.5, "2", 2.0])
def test_evolve_rejects_a_non_integer_generation_cap_before_the_budget(cap):
    over_budget = np.zeros(10_000, dtype=CELL_DTYPE)
    with pytest.raises(TypeError, match="max_generations"):
        evolve([1, 2, 3], max_generations=cap)
    with pytest.raises(TypeError, match="max_generations"):
        evolve(over_budget, max_generations=cap)
    assert evolve([1, 2, 3], max_generations=np.int64(1)).height == 2


def test_evolve_peaks_at_the_pyramid_plus_a_few_rows():
    row = np.random.default_rng(5).integers(0, MAX_CELL, 2000, dtype=CELL_DTYPE, endpoint=True)
    tracemalloc.start()
    try:
        p = evolve(row)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells, starts = p.packed
    assert cells.size == starts[-1] == 2000 * 2001 // 2
    expected = _uint64_evolution(row.tolist())
    assert len(p) == len(expected)
    assert all(np.array_equal(got, want) for got, want in zip(p, expected))
    # a buffer numpy does not own (mapped straight from the OS) is not traced
    assert peak < (cells.nbytes if cells.flags.owndata else 0) + 8 * row.nbytes


def test_evolve_refuses_a_pyramid_over_the_cell_budget_before_allocating():
    n = next(n for n in itertools.count(1) if n * (n + 1) // 2 > MAX_PYRAMID_CELLS)
    row = np.zeros(n, dtype=CELL_DTYPE)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            evolve(row)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < row.nbytes  # not even generation 0 was copied
    assert evolve(row, max_generations=9).height == 10


def test_pyramid_rows_are_read_only():
    p = evolve([3, 1, 4])
    with pytest.raises((ValueError, RuntimeError)):
        p.rows[0][0] = 9


def test_pyramids_pack_loose_unsigned_rows_only():
    p = Pyramid((as_row([3, 1]), as_row([2])))
    assert p.packed[0].tolist() == [3, 1, 2] and p.packed[1].tolist() == [0, 2, 3]
    narrow = Pyramid((np.array([3, 1], dtype=np.uint8), np.array([2], dtype=np.uint8)))
    assert narrow.packed[0].dtype == np.uint8 and narrow.to_lists() == [[3, 1], [2]]
    with pytest.raises(ValueError):
        Pyramid((np.array([3, 1]), np.array([2])))  # int64
    with pytest.raises(ValueError):
        Pyramid((as_row([3, 1]), np.array([2])))  # would pack as float64
    with pytest.raises(ValueError):
        Pyramid((as_row([3, 1]), as_row([2, 2])))
    # mixed unsigned rows: np.concatenate would silently widen the uint8 row to uint64
    with pytest.raises(ValueError, match="share one dtype"):
        Pyramid((np.array([3, 1], dtype=np.uint8), as_row([2])))
    with pytest.raises(ValueError, match="share one dtype"):
        Pyramid((as_row([3, 1]), np.array([2], dtype=np.uint8)))


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
    assert make_symmetric(parse_expression("1-5")).tolist() == [1, 5, 5, 1]
    assert make_symmetric([2, 0, 1]).tolist() == [2, 0, 1, 1, 0, 2]
    assert make_symmetric([7]).dtype == CELL_DTYPE
    assert make_symmetric([MAX_CELL]).tolist() == [MAX_CELL, MAX_CELL]


# ------------------------------------------------------ invariants

rows_st = st.lists(st.integers(0, 10**6), min_size=2, max_size=64)


@given(rows_st)
@settings(max_examples=200, deadline=None)
def test_step_never_exceeds_the_previous_maximum(values):
    assert max(_generation(values)) <= max(values)


@given(rows_st, st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_step_ignores_a_constant_offset(values, c):
    assert _generation([v + c for v in values]) == _generation(values)


@given(rows_st, st.integers(1, 1000))
@settings(max_examples=200, deadline=None)
def test_step_scales_with_the_input(values, k):
    assert _generation([v * k for v in values]) == [d * k for d in _generation(values)]


@given(rows_st)
@settings(max_examples=200, deadline=None)
def test_step_commutes_with_reversal(values):
    assert _generation(values[::-1]) == _generation(values)[::-1]


@given(st.lists(st.integers(0, 1), min_size=2, max_size=64))
@settings(max_examples=200, deadline=None)
def test_step_on_binary_rows_is_xor(bits):
    assert _generation(bits) == [a ^ b for a, b in zip(bits, bits[1:])]


@given(st.lists(st.integers(0, MAX_CELL), min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_evolution_mod_2_is_the_xor_pyramid(values):
    # |a - b| and a + b have the same parity, so the parities evolve by XOR
    b = np.array([v % 2 for v in values], dtype=np.uint8)
    for row in evolve(values):
        assert np.array_equal(row % 2, b)
        b = b[:-1] ^ b[1:]
    assert b.size == 0


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


@given(
    st.lists(st.integers(0, MAX_CELL), min_size=1, max_size=200),
    st.none() | st.integers(0, 250),
)
@settings(max_examples=150, deadline=None)
def test_evolve_matches_repeated_steps(values, cap):
    p = evolve(values, max_generations=cap)
    assert p.height == (len(values) if cap is None else min(len(values), cap + 1))
    expected = values
    for t, row in enumerate(p):
        assert row.size == p.base_width - t
        assert row.tolist() == expected, t
        with pytest.raises(ValueError):
            row[0] = 0
        expected = [abs(a - b) for a, b in zip(expected, expected[1:])]  # Python ints: no kernel
    loose = Pyramid(tuple(row.copy() for row in p))
    assert loose.height == p.height
    assert all(np.array_equal(a, b) for a, b in zip(loose, p))
    with pytest.raises(ValueError):
        loose[-1][0] = 0


# maxima at each edge of an unsigned dtype: a pyramid's cells take the narrowest that holds it
_DTYPE_EDGES = (0, 255, 256, 2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**63, MAX_CELL)


@st.composite
def _rows_with_an_edge_maximum(draw):
    top = draw(st.sampled_from(_DTYPE_EDGES))
    values = draw(st.lists(st.integers(0, top), max_size=40))
    values.insert(draw(st.integers(0, len(values))), top)
    return values


def _uint64_evolution(values: list[int]) -> list[np.ndarray]:
    """Reference rows in uint64, each difference taken as the larger operand minus the smaller."""
    rows = [np.array(values, dtype=np.uint64)]
    while rows[-1].size > 1:
        a, b = rows[-1][:-1], rows[-1][1:]
        rows.append(np.where(a > b, a - b, b - a))
    return rows


@given(_rows_with_an_edge_maximum())
@settings(max_examples=300, deadline=None)
def test_evolve_stores_the_narrowest_dtype_that_holds_the_input(values):
    p = evolve(values)
    assert p.packed[0].dtype == np.min_scalar_type(max(values))
    expected = _uint64_evolution(values)
    assert len(p) == len(expected)
    for got, want in zip(p, expected):
        assert got.dtype == p.packed[0].dtype
        assert got.astype(np.uint64).tolist() == want.tolist()


# maxima on either side of each kernel's range: XOR up to 1, the signed view of the
# storage dtype below half its range, max - min above
_KERNEL_EDGES = (0, 1, 2, 127, 128, 255, 256, 2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**63 - 1, 2**63, MAX_CELL)


@pytest.mark.parametrize("top", _KERNEL_EDGES)
@given(st.data())
@settings(max_examples=25, deadline=None)
def test_evolve_is_exact_at_each_kernel_edge(top, data):
    # the row holds top and 0, so some generation takes |top - 0| and |0 - top|
    values = data.draw(st.lists(st.integers(0, top), max_size=30))
    for v in (top, 0):
        values.insert(data.draw(st.integers(0, len(values))), v)
    p = evolve(values)
    assert p.packed[0].dtype == np.min_scalar_type(top)
    expected = values
    for row in p:
        assert row.tolist() == expected
        expected = [abs(a - b) for a, b in zip(expected, expected[1:])]  # Python ints: no kernel
    assert expected == []


def _python_rows(values):
    """Every row of the pyramid of ``values``, by per-cell ``abs(a - b)`` on Python ints."""
    row = [int(v) for v in values]
    while row:
        yield row
        row = [abs(a - b) for a, b in zip(row, row[1:])]


# generations on either side of evolve's re-reads of the row's maximum (every 16)
_READ_EDGES = (15, 16, 17, 31, 32, 33)


@pytest.mark.parametrize("bits", [8, 16, 32, 64])
@pytest.mark.parametrize("g", _READ_EDGES)
def test_evolve_is_exact_where_the_range_falls_near_a_read(bits, g):
    dtype, half = np.dtype(f"u{bits // 8}"), 2 ** (bits - 1)
    # row t of [c(127 + g), c, 0, ...] is [c(127 + g - t), c, 0, ...]: below half from t = g on
    c = 2 ** (bits - 8)
    halving = [c * (127 + g), c] + [0] * 40
    # cell j of row 0 is C(k - j, g), so cell j of row t is C(k - j - t, g - t): at most 1 from t = g on
    k = next(k for k in itertools.count(g + 1) if np.min_scalar_type(math.comb(k, g)) == dtype)
    to_bits = [math.comb(k - j, g) for j in range(k + 1)] + [0] * 40
    for values, falls_at in ((halving, lambda top: top < half), (to_bits, lambda top: top <= 1)):
        p = evolve(values)
        assert p.packed[0].dtype == dtype and len(p) == len(values)
        tops = []
        for row, expected in zip(p, _python_rows(values)):
            assert row.tolist() == expected
            tops.append(max(expected))
        assert [falls_at(top) for top in tops].index(True) == g, tops


def _parity_by_jump_ahead(values: list[int], t: int) -> int:
    """Row ``t`` of the pyramid mod 2, cell i at bit i, by the Lucas jump-ahead.

    Row 2**k mod 2 is ``b[i] ^ b[i + 2**k]``, since C(2**k, j) is odd only at
    j = 0 and 2**k; a depth t is the product of its set bits. No evolve, no ECA.
    """
    x = sum((v & 1) << i for i, v in enumerate(values))
    k = 1
    while k <= t:
        if t & k:
            x ^= x >> k
        k <<= 1
    return x & ((1 << (len(values) - t)) - 1)


def _packed_parity(row: np.ndarray) -> int:
    return int.from_bytes(np.packbits(row % 2 == 1, bitorder="little").tobytes(), "little")


@given(
    st.sampled_from([1, 9, 200, 2**40, MAX_CELL]).flatmap(
        lambda top: st.lists(st.integers(0, top), min_size=1, max_size=80)
    ),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_evolve_mod_2_matches_the_parity_jump_ahead(values, data):
    t = data.draw(st.integers(0, len(values) - 1))
    assert _packed_parity(evolve(values).rows[t]) == _parity_by_jump_ahead(values, t)


@pytest.mark.parametrize("n", [367, 1435])
def test_wide_bit_rows_match_the_parity_jump_ahead_at_every_depth(n):
    rng = np.random.default_rng(n)
    impulse = [0] * n
    impulse[n // 2] = 1
    for values in (impulse, rng.integers(0, 2, n).tolist(), rng.integers(0, 10, n).tolist()):
        p = evolve(values)
        for t in range(n):
            assert _packed_parity(p.rows[t]) == _parity_by_jump_ahead(values, t), t



# ------------------------------------------------------ recycled maps


@pytest.fixture
def spares(monkeypatch):
    """A fresh, empty list of spare maps for the buffers the test allocates."""
    if not hasattr(mmap, "MADV_HUGEPAGE"):
        pytest.skip("buffers are memory maps on Linux only")
    fresh = engine._Spares()
    monkeypatch.setattr(Triangle, "_spares", fresh)
    return fresh


def _map_of(t: Triangle):
    base = t.packed[0].base
    return base.obj if isinstance(base, memoryview) else base


def test_recycled_maps_show_no_stale_cells(spares):
    rng = np.random.default_rng(21)
    old = evolve(rng.integers(0, MAX_CELL, 2000, dtype=CELL_DTYPE, endpoint=True))
    stale = _map_of(old)
    del old
    assert spares.maps == [stale]
    for n, top in ((1900, 9), (1700, 1), (1500, 9), (1800, 1)):
        values = rng.integers(0, top + 1, n).tolist()
        p = evolve(values)
        assert len(p) == n
        for row, expected in zip(p, _python_rows(values)):
            assert row.tolist() == expected
        a, b, c = values[n // 2 : n // 2 + 3]
        for pattern in ([a], [a, b], [a, b, c], [300]):  # 300 lies past the uint8 cells
            mask = highlight_pyramid(p, pattern)
            for t, row in enumerate(p):
                assert np.array_equal(mask[t], match_row(row, pattern)), (n, pattern, t)
            del mask
        del p
    assert any(m is stale for m in spares.maps)


@pytest.mark.parametrize(
    "keep",
    [lambda p: p.rows[3], lambda p: p.packed[0], lambda p: memoryview(p.packed[0])],
    ids=["row", "packed", "memoryview"],
)
def test_a_view_kept_past_its_pyramid_keeps_its_values(spares, keep):
    rng = np.random.default_rng(7)
    p = evolve(rng.integers(0, 10, 1500).tolist())
    kept = keep(p)
    want = np.array(kept)
    del p
    assert spares.maps == []  # the kept view holds the map
    for _ in range(3):  # each pyramid and mask is collected at once, and its map reused
        highlight_pyramid(evolve(rng.integers(0, 10, 1500).tolist()), [3])
    assert np.array_equal(np.asarray(kept), want)


def test_spares_keep_at_most_two_maps_and_serve_the_smallest_that_fits(spares):
    # uint8 digit pyramids of these widths fill maps of 1.1-1.6 MB, one each
    pyramids = [evolve(np.full(n, 9, np.uint8)) for n in (1500, 1600, 1700, 1800)]
    sizes = [p.packed[0].nbytes for p in pyramids]
    assert [len(_map_of(p)) for p in pyramids] == sizes and spares.maps == []
    for count, k in enumerate((0, 1, 3, 2), 1):
        pyramids[k] = None
        assert len(spares.maps) == min(count, 2)
    assert [len(m) for m in spares.maps] == [sizes[3], sizes[2]]  # the oldest spares went first
    fits = evolve(np.full(1550, 9, np.uint8))  # both spares fit; it takes the smaller
    assert len(_map_of(fits)) == sizes[2] and [len(m) for m in spares.maps] == [sizes[3]]
    wider = evolve(np.full(1900, 9, np.uint8))  # no spare fits: every spare is dropped first
    assert len(_map_of(wider)) == wider.packed[0].nbytes and spares.maps == []
    del fits, wider
    assert len(spares.maps) == 2


def test_two_threads_evolving_and_highlighting_at_once_match_the_oracle(spares):
    rng = np.random.default_rng(3)
    inputs = (
        [rng.integers(0, 10, 1500), rng.integers(0, 2, 1700)],
        [rng.integers(0, MAX_CELL, 1500, dtype=CELL_DTYPE, endpoint=True), rng.integers(0, 10, 1600)],
    )

    def case(row):
        rows = _uint64_evolution(row.tolist())
        v = int(row[row.size // 2])
        return row, v, np.concatenate(rows), np.concatenate([r == v for r in rows])

    cases = [[case(row) for row in rows] for rows in inputs]
    errors = []

    def work(own):
        try:
            for i in range(8):
                row, v, cells, hits = own[i % 2]
                p = evolve(row)
                mask = highlight_pyramid(p, [v])
                if not (np.array_equal(p.packed[0], cells) and np.array_equal(mask.packed[0], hits)):
                    errors.append(f"{row.size} cells, pass {i}: differs from the oracle")
                del p, mask
        except Exception as err:  # reported by the main thread
            errors.append(repr(err))

    threads = [threading.Thread(target=work, args=(own,)) for own in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(spares.maps) <= 2
