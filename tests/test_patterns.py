"""Row matching and pyramid highlighting."""

import mmap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffca import engine
from diffca.engine import MAX_CELL, Pyramid, Triangle, as_row, evolve
from diffca.patterns import HighlightMask, highlight_pyramid

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


def row_hits(row, pattern) -> np.ndarray:
    """The cells of ``row`` an occurrence covers: the highlight of its one-row pyramid."""
    return highlight_pyramid(evolve(row, max_generations=0), pattern)[0]


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
def test_row_hits_examples(row, pattern, expected):
    got = row_hits(as_row(row), as_row(pattern))
    assert got.dtype == np.bool_
    assert got.tolist() == expected
    assert got.tolist() == naive_flags(row, pattern)


def test_row_hits_agrees_with_the_window_scan():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 33))
        m = int(rng.integers(1, 5))
        row = rng.integers(0, 4, size=n).tolist()
        pattern = rng.integers(0, 4, size=m).tolist()
        got = row_hits(as_row(row), as_row(pattern))
        assert got.tolist() == naive_flags(row, pattern), (row, pattern)


def test_highlight_scans_a_narrow_row_in_its_own_dtype():
    rng = np.random.default_rng(11)
    for dtype in (np.uint8, np.uint16, np.uint32):
        row = rng.integers(0, 4, size=40).astype(dtype)
        row[-1] = np.iinfo(dtype).max  # so the one-row pyramid keeps the row's dtype
        assert evolve(row, max_generations=0).packed[0].dtype == dtype
        for pattern in ([3], [1, 2], [0, 1, 2], [2**64 - 1], [1, 70_000]):
            got = row_hits(row, pattern)
            assert got.tolist() == naive_flags(row.tolist(), pattern), (dtype, pattern)
    p = evolve(rng.integers(0, 10, 1_000_000).astype(np.uint8), max_generations=0)
    tracemalloc.start()
    try:
        hits = highlight_pyramid(p, [3, 4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits.count() > 0
    # the 1 MB mask and one bool start flag a cell: the row is never widened to uint64
    assert peak < 3_000_000


def test_row_hits_rejects_empty_operands():
    with pytest.raises(ValueError):
        row_hits(as_row([1]), [])
    with pytest.raises(ValueError):
        row_hits([], as_row([1]))


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
        assert hits.tolist() == naive_flags(row.tolist(), half)
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
                assert np.array_equal(hits, row_hits(row, pattern))


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
        del mask, hits  # so the next call may reuse their map, as it does after other tests


def _matches_the_window_scan(p, pattern) -> HighlightMask:
    mask = highlight_pyramid(p, pattern)
    expected = [naive_flags(row.tolist(), pattern) for row in p]
    assert [hits.tolist() for hits in mask] == expected
    assert mask.count() == sum(map(sum, expected))
    return mask


def test_highlight_skips_the_rows_below_a_read_maximum_under_the_pattern():
    p = evolve(np.random.default_rng(0).integers(0, 10, 300, dtype=np.uint64))
    # evolve read these maxima: no row holds more than 9, none from 16 on more than 2, none
    # from 32 on more than 1
    assert [p._rows_reaching(v) for v in (10, 3, 2, 1, 0)] == [0, 16, 32, 300, 300]
    assert _matches_the_window_scan(p, [5]).count() > 0  # between two read maxima: rows 0-15
    # equal to the read maximum at 16: the cut is at 32, and row 16 holds its maximum
    assert _matches_the_window_scan(p, [2])[16].any()
    assert _matches_the_window_scan(p, [10]).count() == 0  # above row 0's maximum: nothing
    # the largest value occurs only above the cut at 32, the others everywhere
    assert _matches_the_window_scan(p, [1, 2, 0]).count() > 0
    _matches_the_window_scan(p, [0, 1])  # no read maximum is below 1: every row


@pytest.mark.parametrize("pattern", [[3], [3, 1]], ids=["single", "multi"])
def test_a_cut_mask_in_a_recycled_map_is_false_below_the_cut(monkeypatch, pattern):
    if not hasattr(mmap, "MADV_HUGEPAGE"):
        pytest.skip("buffers are memory maps on Linux only")
    monkeypatch.setattr(Triangle, "_spares", spares := engine._Spares())
    p = evolve(np.random.default_rng(1).integers(0, 10, 1500, dtype=np.uint64))
    assert p._rows_reaching(2) < len(p) and p.packed[0].nbytes >= 1 << 20
    zeros = highlight_pyramid(p, [0])  # mostly True in the 0/1 rows below any cut
    del zeros
    assert len(spares.maps) == 1
    mask = _matches_the_window_scan(p, pattern)  # cut at the first read maximum under 3
    assert spares.maps == [] and mask.count() > 0  # the mask took the map of the one before


def test_cut_uncut_and_loose_masks_count_what_their_rows_hold():
    p = evolve(np.random.default_rng(2).integers(0, 10, 400, dtype=np.uint64))
    assert p._rows_reaching(3) < len(p)  # [3] is cut at a read maximum, [0, 1] is not
    cut, whole = highlight_pyramid(p, [3]), highlight_pyramid(p, [0, 1])
    # loose rows bound nothing: this mask's only hits lie in its last rows
    loose = HighlightMask([np.full(400 - t, t >= 390) for t in range(400)])
    for mask in (cut, whole, loose):
        assert mask.count() == sum(int(np.count_nonzero(row)) for row in mask) > 0


def test_a_pyramid_packed_from_loose_rows_is_scanned_whole():
    # no row of loose rows bounds the rows after it: here the last holds the largest value
    p = Pyramid([np.zeros(3, np.uint8), np.zeros(2, np.uint8), np.array([7], np.uint8)])
    assert _matches_the_window_scan(p, [7]).count() == 1


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
        assert hits.tolist() == naive_flags(row.tolist(), pattern)
    assert mask.count() == sum(int(np.count_nonzero(hits)) for hits in mask)
