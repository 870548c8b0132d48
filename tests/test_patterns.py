"""Row matching and pyramid highlighting."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffca.engine import MAX_CELL, as_row, evolve
from diffca.patterns import HighlightMask, highlight_pyramid, match_row

# ------------------------------------------------------------ oracle


def naive_flags(row: list[int], pattern: list[int]) -> list[bool]:
    """Mark every cell covered by any window equal to the pattern."""
    out = [False] * len(row)
    m = len(pattern)
    for j in range(len(row) - m + 1):
        if row[j : j + m] == pattern:
            for k in range(j, j + m):
                out[k] = True
    return out


@pytest.mark.parametrize(
    "row, pattern, expected",
    [
        ([2, 0, 1, 0, 1], [0, 1], [False, True, True, True, True]),
        ([2, 0, 1, 0, 1], [9], [False] * 5),
        ([0, 0, 0], [0, 0], [True, True, True]),  # overlapping hits merge
        ([5], [5], [True]),
        ([5], [5, 5], [False]),  # pattern longer than the row
        ([1, 2, 1, 2, 1], [1, 2, 1], [True, True, True, True, True]),
        ([7, 7], [7, 8], [False, False]),
    ],
)
def test_match_row_examples(row, pattern, expected):
    got = match_row(as_row(row), as_row(pattern))
    assert got.dtype == np.bool_
    assert got.tolist() == expected
    assert got.tolist() == naive_flags(row, pattern)


def test_match_row_agrees_with_the_window_scan():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 33))
        m = int(rng.integers(1, 5))
        row = rng.integers(0, 4, size=n).tolist()
        pattern = rng.integers(0, 4, size=m).tolist()
        got = match_row(as_row(row), as_row(pattern))
        assert got.tolist() == naive_flags(row, pattern), (row, pattern)


def test_match_row_scans_a_narrow_row_in_its_own_dtype():
    rng = np.random.default_rng(11)
    for dtype in (np.uint8, np.uint16, np.uint32):
        row = rng.integers(0, 4, size=40).astype(dtype)
        for pattern in ([3], [1, 2], [0, 1, 2], [2**64 - 1], [1, 70_000]):
            got = match_row(row, pattern)
            assert got.tolist() == naive_flags(row.tolist(), pattern), (dtype, pattern)
    row = rng.integers(0, 10, 1_000_000).astype(np.uint8)
    tracemalloc.start()
    try:
        hits = match_row(row, [3, 4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits.any()
    # the 1 MB mask and one bool start flag a cell: the row is never widened to uint64
    assert peak < 3_000_000


def test_match_row_rejects_empty_operands():
    with pytest.raises(ValueError):
        match_row(as_row([1]), [])
    with pytest.raises(ValueError):
        match_row([], as_row([1]))


# --------------------------------------------------------- highlight


def test_highlight_pyramid_is_congruent_with_its_pyramid():
    p = evolve([2, 0, 1, 7, 0, 4])
    mask = highlight_pyramid(p, [0])
    assert isinstance(mask, HighlightMask)
    assert mask.congruent_with(p)
    assert mask.height == p.height
    assert mask.base_width == p.base_width
    for t, row in enumerate(mask):
        assert row.dtype == np.bool_
        assert row.tolist() == naive_flags(p.to_lists()[t], [0])


def test_highlight_counts_marked_cells():
    p = evolve([1, 1, 1])  # rows 1 1 1 / 0 0 / 0
    assert highlight_pyramid(p, [1]).count() == 3
    assert highlight_pyramid(p, [0]).count() == 3
    assert highlight_pyramid(p, [2]).count() == 0


def test_binary_masks_partition_binary_pyramids():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = evolve(rng.integers(0, 2, size=int(rng.integers(2, 20))))
        ones = highlight_pyramid(p, [1])
        zeros = highlight_pyramid(p, [0])
        for t in range(p.height):
            assert np.array_equal(ones[t], p[t] == 1)
            assert np.array_equal(ones[t], ~zeros[t])


def test_multicell_patterns_cover_whole_windows():
    p = evolve([5, 3, 2, 1, 1])  # row 1 is 2 1 1 0
    mask = highlight_pyramid(p, [1, 1])
    assert mask[1].tolist() == [False, True, True, False]
    assert mask[0].tolist() == [False, False, False, True, True]


def test_mask_shape_is_validated():
    with pytest.raises(ValueError):
        HighlightMask((np.zeros(3, dtype=bool), np.zeros(3, dtype=bool)))
    with pytest.raises(ValueError):
        HighlightMask((np.zeros(3, dtype=np.uint8),))  # bool rows only
    with pytest.raises(ValueError):
        HighlightMask(())


def test_single_cell_highlight_peaks_at_the_mask_plus_a_few_rows():
    row = np.random.default_rng(6).integers(0, 10, 2000, dtype=np.uint64)
    p = evolve(row)
    tracemalloc.start()
    try:
        mask = highlight_pyramid(p, [3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    hits = mask.packed[0]
    assert hits.nbytes == 2000 * 2001 // 2
    # a buffer numpy does not own (mapped straight from the OS) is not traced
    assert peak < (hits.nbytes if hits.flags.owndata else 0) + 8 * row.nbytes


def test_multi_cell_highlight_peaks_at_the_mask_plus_its_start_flags():
    row = np.random.default_rng(7).integers(0, 3, 2000, dtype=np.uint64)
    p = evolve(row)
    for pattern in ([1, 2], [0, 1, 2]):
        tracemalloc.start()
        try:
            mask = highlight_pyramid(p, pattern)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        hits = mask.packed[0]
        assert mask.count() > 0
        # one bool start flag per cell besides the mask; no integer cover arrays
        assert peak < (hits.nbytes if hits.flags.owndata else 0) + hits.nbytes + 8 * row.nbytes


def test_patterns_longer_than_a_row_skip_the_rows_that_cannot_hold_them():
    p = evolve(np.random.default_rng(9).integers(0, 2, 300, dtype=np.uint64))
    cells = p.packed[0]
    longer = np.zeros(40_000, dtype=np.uint64)  # longer than the base width, shorter than the buffer
    tracemalloc.start()
    try:
        mask = highlight_pyramid(p, longer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.count() == 0
    assert peak < mask.packed[0].nbytes + 8 * 300 * 8
    half = cells[301:451].tolist()  # 150 cells of row 1, from its second: rows 0-150 can hold it
    mask = highlight_pyramid(p, half)
    assert mask.count() >= 150
    for row, hits in zip(p, mask):
        assert np.array_equal(hits, match_row(row, half))
        assert row.size >= 150 or not hits.any()


def test_highlight_over_a_mapped_buffer_matches_every_row():
    n = 1500  # uint8 cells: from a width of 1448 on, the pyramid passes 1 MiB
    p = evolve(np.random.default_rng(8).integers(0, 3, n, dtype=np.uint64))
    cells = p.packed[0]
    assert cells.dtype == np.uint8 and cells.nbytes > 1 << 20  # big enough for a buffer of its own
    for k in (1, 2, 3, 5):
        for start in (0, n - 2, 2 * n - 3, cells.size - k):  # the later ones cross a row end
            pattern = cells[start : start + k].tolist()
            mask = highlight_pyramid(p, pattern)
            for row, hits in zip(p, mask):
                assert np.array_equal(hits, match_row(row, pattern))


def test_pattern_values_past_the_cells_dtype_match_nowhere():
    row = np.random.default_rng(10).integers(0, 10, 2000, dtype=np.uint64)
    row[6:9] = 5, 255, 5  # the largest uint8 value still matches; row 1 holds at most 250
    p = evolve(row)
    assert p.packed[0].dtype == np.uint8
    assert highlight_pyramid(p, [255]).count() == 1
    for pattern in ([256], [row[0], 2**64 - 1], [70_000, 1, 2]):
        tracemalloc.start()
        try:
            mask = highlight_pyramid(p, pattern)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        hits = mask.packed[0]
        assert mask.count() == 0
        # the mask and the cast pattern alone: the cells are never compared, widened or not
        assert peak < (hits.nbytes if hits.flags.owndata else 0) + 8 * 300
        for cells, hit in zip(p, mask):
            assert np.array_equal(hit, match_row(cells, pattern))


def test_congruence_notices_mismatched_pyramids():
    mask = highlight_pyramid(evolve([1, 2, 3]), [1])
    assert not mask.congruent_with(evolve([1, 2]))
    assert not mask.congruent_with(evolve([1, 2, 3], max_generations=1))


@st.composite
def _pyramid_and_pattern(draw):
    """A pyramid plus 1-8 cells read from its rows in packed (row-major) order.

    Half the draws straddle a row end, so a matcher that scans all rows as
    one sequence must not report the occurrence.
    """
    values = draw(st.lists(st.integers(0, 3) | st.integers(0, MAX_CELL), min_size=1, max_size=60))
    p = evolve(values)
    flat = [v for row in p.to_lists() for v in row]
    k = min(draw(st.integers(1, 8)), len(flat))
    if k > 1 and p.height > 1 and draw(st.booleans()):
        t = draw(st.integers(0, p.height - 2))
        row_end = sum(p.base_width - s for s in range(t + 1))
        start = row_end - draw(st.integers(1, min(k - 1, p.base_width - t)))
    else:
        start = draw(st.integers(0, len(flat) - k))
    return p, flat[start : start + k]


@given(_pyramid_and_pattern())
@settings(max_examples=200, deadline=None)
def test_highlight_matches_every_row_on_its_own(case):
    p, pattern = case
    mask = highlight_pyramid(p, pattern)
    assert mask.congruent_with(p)
    for row, hits in zip(p, mask):
        assert np.array_equal(hits, match_row(row, pattern))
        assert hits.tolist() == naive_flags(row.tolist(), pattern)
    assert mask.count() == sum(int(np.count_nonzero(hits)) for hits in mask)
