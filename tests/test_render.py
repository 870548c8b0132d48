"""ascii, PBM/PGM, and SVG output."""

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diffca.render
from diffca.eca import eca_evolve, impulse_row
from diffca.engine import MAX_CELL, TooLarge, evolve
from diffca.patterns import highlight_pyramid
from diffca.render import (
    _PGM_BLOCK,
    ALIGNMENTS,
    FORMATS,
    PALETTES,
    RenderSpec,
    ShapeMismatch,
    iter_compare,
    iter_eca,
    iter_pyramid,
    render_ascii,
    render_compare,
    render_eca,
    render_pbm,
    render_pgm,
    render_pyramid,
    render_svg,
)

# ------------------------------------------------------------ oracle
#
# Minimal plain-PBM reader, kept independent of the writer.


def read_pbm(data: bytes) -> np.ndarray:
    text = data.decode("ascii")
    assert text.endswith("\n")
    fields = text.split()
    assert fields[0] == "P1"
    w, h = int(fields[1]), int(fields[2])
    bits = "".join(fields[3:])
    assert len(bits) == w * h
    grid = np.array([c == "1" for c in bits], dtype=bool)
    return grid.reshape(h, w)


def test_pbm_lines_stay_within_the_plain_format_cap():
    mask = highlight_pyramid(evolve([1, 0] * 60), [1])
    for line in render_pbm(mask).decode("ascii").splitlines():
        assert len(line) <= 70


# ------------------------------------------------------------- ascii


def test_ascii_centers_each_generation():
    assert render_ascii(evolve([2, 0])) == "2 0\n 2"
    assert render_ascii(evolve([2, 0, 1, 4])) == "2 0 1 4\n 2 1 3\n  1 2\n   1"


def test_ascii_left_alignment():
    spec = RenderSpec(alignment="left")
    assert render_ascii(evolve([2, 0]), spec=spec) == "2 0\n2"


def test_ascii_pads_wide_cells():
    out = render_ascii(evolve([10, 2]))
    assert out == "10  2\n   8"


def test_ascii_marks_matches():
    p = evolve([1, 1])
    mask = highlight_pyramid(p, [1])
    assert render_ascii(p, mask) == "# #\n 0"
    assert render_ascii(p, mask, RenderSpec(palette="mask")) == "# #\n ."


def _ascii_by_cell(p, mask, spec: RenderSpec) -> str:
    """Reference ascii triangle, one token per cell in a Python loop."""
    token_rows = []
    for t, row in enumerate(p.rows):
        tokens = []
        for i, v in enumerate(row):
            if mask is not None and mask.rows[t][i]:
                tokens.append("#")
            elif mask is not None and spec.palette == "mask":
                tokens.append(".")
            else:
                tokens.append(str(int(v)))
        token_rows.append(tokens)
    width = max(len(tok) for tokens in token_rows for tok in tokens)
    half = (width + 2) // 2
    lines = []
    for t, tokens in enumerate(token_rows):
        indent = " " * (t * half) if spec.alignment == "centered" else ""
        lines.append(indent + " ".join(tok.rjust(width) for tok in tokens))
    return "\n".join(lines)


@given(
    st.lists(st.integers(0, MAX_CELL), min_size=1, max_size=12),
    st.integers(0, 11),
    st.integers(1, 2),
)
@example([MAX_CELL, 0, 7], 0, 1)
@example([2**16 - 1, 3, 2**16 - 2], 1, 1)  # uint16 cells at their maximum
@example([255, 3, 254], 1, 1)  # uint8 cells at their maximum, peeled in uint8
@example([2**16, 3, 2**16 - 1], 1, 1)  # the smallest maximum held in uint32 cells
@example([MAX_CELL, 7, MAX_CELL, 0], 0, 2)  # full range, masked
@example([MAX_CELL, MAX_CELL], 0, 1)  # matched values wider than every printed one: cut, then overwritten
@example([60000, 60000], 0, 1)  # and in uint16 cells
@settings(max_examples=150, deadline=None)
def test_ascii_matches_a_per_cell_reference(values, start, k):
    p = evolve(values)
    start %= len(values)  # the pattern is the 1 or 2 cells of the row from here
    for mask in (None, highlight_pyramid(p, values[start : start + k])):
        for palette in ("values", "mask", "grayscale"):
            for alignment in ("centered", "left"):
                spec = RenderSpec(palette=palette, alignment=alignment)
                assert render_ascii(p, mask, spec) == _ascii_by_cell(p, mask, spec)


def test_ascii_peak_memory_stays_near_the_text():
    # 2.12x is the peak of the per-row astype(str) writer this one replaced
    p = evolve([(i * 7) % 10 for i in range(1000)])
    tracemalloc.start()
    try:
        text = render_ascii(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.12 * len(text)


def test_ascii_peak_memory_on_full_range_cells_stays_near_the_text():
    # 21 bytes a token: the text outweighs the uint64 cells, so no per-cell temporary may add much
    row = np.random.default_rng(4).integers(0, MAX_CELL, 400, dtype=np.uint64, endpoint=True)
    row[150] = MAX_CELL
    p = evolve(row)
    mask = highlight_pyramid(p, [MAX_CELL])
    assert mask.count() == 1
    for m in (None, mask):
        for alignment in ("centered", "left"):
            tracemalloc.start()
            try:
                text = render_ascii(p, m, RenderSpec(alignment=alignment))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.5 * len(text), (m is not None, alignment)


def test_ascii_rejects_foreign_masks():
    mask = highlight_pyramid(evolve([1, 2, 3]), [1])
    with pytest.raises(ShapeMismatch):
        render_ascii(evolve([1, 2]), mask)


# --------------------------------------------------------------- pbm


def test_pbm_single_cell_masks():
    on = highlight_pyramid(evolve([1]), [1])
    off = highlight_pyramid(evolve([1]), [2])
    assert render_pbm(on) == b"P1\n1 1\n1\n"
    assert render_pbm(off) == b"P1\n1 1\n0\n"


def test_pbm_reparses_to_the_mask():
    p = evolve([2, 0, 1, 7, 0, 4, 7])
    mask = highlight_pyramid(p, [0])
    grid = read_pbm(render_pbm(mask))
    assert grid.shape == (mask.height, mask.base_width)
    w = mask.base_width
    for t, row in enumerate(mask):
        x0 = (w - row.size) // 2
        assert np.array_equal(grid[t, x0 : x0 + row.size], row)
        assert not grid[t, :x0].any()
        assert not grid[t, x0 + row.size :].any()


def test_pbm_scales_by_cell_px():
    mask = highlight_pyramid(evolve([1, 0]), [1])
    grid = read_pbm(render_pbm(mask, RenderSpec(format="pbm", cell_px=3)))
    assert grid.shape == (6, 6)
    assert grid[0, :3].all() and not grid[0, 3:].any()


def test_pbm_left_alignment_starts_every_band_at_zero():
    mask = highlight_pyramid(evolve([1, 1, 1]), [1])
    grid = read_pbm(render_pbm(mask, RenderSpec(alignment="left")))
    assert grid[0].tolist() == [True, True, True]
    assert grid[1].tolist() == [False, False, False]
    assert grid[2].tolist() == [False, False, False]


def _pbm_by_row(panels, cp, centered=True):
    # plain PBM written pixel row by pixel row: the bool-row panels stack one
    # blank cell row apart, each centered on the widest, every row centered
    # in its panel (or flush with its left edge), and each pixel row breaks
    # into lines of 70 digits
    width = max(len(rows[0]) for rows in panels) * cp
    pixel_rows = []
    for i, rows in enumerate(panels):
        if i:
            pixel_rows += [[False] * width] * cp
        pw = len(rows[0]) * cp
        for row in rows:
            x = (width - pw) // 2 + ((pw - len(row) * cp) // 2 if centered else 0)
            pixels = [False] * x + [bool(b) for b in row for _ in range(cp)]
            pixel_rows += [pixels + [False] * (width - len(pixels))] * cp
    lines = [f"P1\n{width} {len(pixel_rows)}"]
    for pixels in pixel_rows:
        text = "".join("1" if b else "0" for b in pixels)
        lines += [text[i : i + 70] for i in range(0, width, 70)]
    return ("\n".join(lines) + "\n").encode("ascii")


@pytest.mark.parametrize("cp", [1, 3])
@pytest.mark.parametrize("n", [1, 69, 70, 71, 140, 141])
def test_pbm_lines_wrap_like_a_per_row_reference(n, cp):
    # canvas widths on, just under and just over multiples of the 70-digit line;
    # a capped pyramid's rows end short of one cell, beside a full-height diagram
    d = eca_evolve(impulse_row(n), 90, n - 1)
    for cap in (None, 4):
        p = evolve([(i * i + i // 3) % 3 for i in range(n)], max_generations=cap)
        mask = highlight_pyramid(p, [1])
        mask_rows = [row.tolist() for row in mask]
        for centered in (True, False):
            spec = RenderSpec(format="pbm", cell_px=cp, alignment="centered" if centered else "left")
            assert render_pbm(mask, spec) == _pbm_by_row([mask_rows], cp, centered)
            expected = _pbm_by_row([[row.tolist() for row in d.rows], mask_rows], cp, centered)
            assert render_compare(d, p, mask, spec) == expected


def test_pbm_peak_memory_stays_near_the_document():
    # 2.99x was the peak of the writer that painted int16 cells onto a gray canvas, and
    # 2.00x that of the one with a whole canvas, a line-split copy and its bytes
    n = 1435
    d = eca_evolve(impulse_row(n), 90, n - 1)
    p = evolve(impulse_row(n))
    mask = highlight_pyramid(p, [1])
    tracemalloc.start()
    try:
        doc = render_compare(d, p, mask, RenderSpec(format="pbm"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * len(doc)


# --------------------------------------------------------------- pgm


def test_pgm_shades_by_row_maximum():
    data = render_pgm(evolve([2, 1]))
    assert data == b"P2\n2 2\n255\n0 127\n0 255\n"


def test_pgm_renders_all_zero_rows_white():
    data = render_pgm(evolve([5, 5]))
    assert data.splitlines()[-1] == b"255 255"


def _python_grays(values: list[int], rows: int) -> list[list[int]]:
    """The first ``rows`` pyramid rows shaded as 255 * (m - v) // m, in Python integers."""
    out = []
    while values and len(out) < rows:
        m = max(values)
        out.append([255 * (m - v) // m if m else 255 for v in values])
        values = [abs(a - b) for a, b in zip(values, values[1:])]
    return out


@given(st.lists(st.integers(0, MAX_CELL), min_size=1, max_size=12), st.none() | st.integers(0, 12))
@example([10**17, 0, 5 * 10**16], None)
@example([MAX_CELL, 0], None)
@example([MAX_CELL, 0, 3, MAX_CELL // 255 + 1], 1)
@settings(max_examples=200, deadline=None)
def test_gray_shading_is_exact_over_the_full_cell_range(values, cap):
    p = evolve(values, max_generations=cap)
    expected = _python_grays(values, len(p))
    fields = render_pgm(p, RenderSpec(format="pgm", alignment="left")).split()
    pixels = np.array([int(v) for v in fields[4:]]).reshape(len(p), len(values))
    assert [pixels[t, : len(row)].tolist() for t, row in enumerate(expected)] == expected
    doc = render_svg(p, spec=RenderSpec(format="svg", palette="grayscale"))
    fills = [int(g, 16) for g in re.findall(r'fill="#([0-9a-f]{2})', doc)]
    assert fills == [g for row in expected for g in row]


@pytest.mark.parametrize("big", [0, 2**62])
def test_gray_shading_is_exact_across_blocks_of_rows(big):
    # 180 300 cells shade in three blocks of rows; with every other cell raised by 2**62,
    # 255 * (m - v) overflows uint64 in row 0, and rows 2 on hold digits again
    digits = np.random.default_rng(11).integers(0, 10, 600).tolist()
    values = [big * (i % 2) + v for i, v in enumerate(digits)]
    p = evolve(values)
    expected = _python_grays(values, len(p))
    fields = render_pgm(p, RenderSpec(format="pgm", alignment="left")).split()
    pixels = np.array(fields[4:]).astype(np.int64).reshape(len(p), len(values))
    assert [pixels[t, : len(row)].tolist() for t, row in enumerate(expected)] == expected


def _pgm_by_row(gray_rows: list[list[int]], cp: int, centered: bool) -> bytes:
    """Reference plain PGM, pixel row by pixel row, each wrapped greedily at 70 columns."""
    width = len(gray_rows[0]) * cp
    lines = [f"P2\n{width} {len(gray_rows) * cp}\n255"]
    for grays in gray_rows:
        x = (width - len(grays) * cp) // 2 if centered else 0
        pixels = [255] * x + [g for g in grays for _ in range(cp)]
        pixels += [255] * (width - len(pixels))
        for _ in range(cp):
            line = ""
            for token in map(str, pixels):  # a token joins the line if the line stays within 70
                if line and len(line) + 1 + len(token) <= 70:
                    line += " " + token
                else:
                    if line:
                        lines.append(line)
                    line = token
            lines.append(line)
    return ("\n".join(lines) + "\n").encode("ascii")


# canvas widths in pixels where a line of 3-, 2- and 1-digit tokens just fills or overflows
_PGM_FILLS = (17, 18, 23, 24, 35, 36)


@given(
    st.sampled_from(_PGM_FILLS),
    st.integers(1, 3),
    st.sampled_from([(0, 9), (10, 99), (100, 255), (0, 255)]),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_pgm_lines_wrap_like_a_per_row_reference(fill, cp, digits, data):
    # row 0 holds 255 - g for drawn grays g, so under a row maximum of 255 it shades to exactly g
    n = max(1, round(fill / cp))
    grays = data.draw(st.lists(st.integers(*digits), min_size=n, max_size=n))
    grays[data.draw(st.integers(0, n - 1))] = 0
    values = [255 - g for g in grays]
    cap = data.draw(st.none() | st.integers(0, 3))
    p = evolve(values, max_generations=cap)
    gray_rows = _python_grays(values, len(p))
    assert gray_rows[0] == grays
    for alignment in ("centered", "left"):
        spec = RenderSpec(format="pgm", cell_px=cp, alignment=alignment)
        assert render_pgm(p, spec) == _pgm_by_row(gray_rows, cp, alignment == "centered")


def test_pgm_peak_memory_stays_near_the_document():
    # 4.13x is the peak of the per-row str and rfind writer this one replaced
    p = evolve([(i * 7) % 10 for i in range(1000)])
    tracemalloc.start()
    try:
        doc = render_pgm(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.13 * len(doc)


def test_pgm_holds_no_int64_per_pixel_of_the_canvas():
    # a 2000 x 2000 canvas of gray 0: "0 " a pixel, so 8 B a pixel is twice the
    # document; the writer may hold the document twice, the uint8 canvas and
    # small blocks, but not an int64 per pixel of the whole canvas on top
    d = eca_evolve(np.ones(1000, dtype=np.uint8), 255, 999)
    spec = RenderSpec(format="pgm", cell_px=2)
    pixels = (1000 * 2) ** 2
    tracemalloc.start()
    try:
        doc = render_eca(d, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc.startswith(b"P2\n2000 2000\n255\n0 0 ")
    assert peak < 8 * pixels


# --------------------------------------------------------------- svg


def test_svg_emits_one_rect_per_cell():
    doc = render_svg(evolve([5]))
    assert doc.count("<rect") == 1
    assert 'xmlns="http://www.w3.org/2000/svg"' in doc
    doc = render_svg(evolve([2, 0, 1]))
    assert doc.count("<rect") == 3 + 2 + 1


def test_svg_highlights_masked_cells():
    p = evolve([1, 1])
    mask = highlight_pyramid(p, [1])
    doc = render_svg(p, mask, RenderSpec(format="svg"))
    assert doc.count('fill="#1a1a1a"') == 2
    assert doc.count("<rect") == 3


def test_svg_is_self_contained():
    doc = render_svg(evolve([3, 1, 4]))
    assert "http" not in doc.replace("http://www.w3.org/2000/svg", "")
    assert doc.startswith("<svg") and doc.endswith("</svg>")


def test_svg_viewbox_matches_the_cell_grid():
    doc = render_svg(evolve([1, 2, 3]), spec=RenderSpec(format="svg", cell_px=10))
    assert 'viewBox="0 0 30 30"' in doc


def test_svg_refuses_a_document_over_its_byte_budget_before_writing():
    spec = RenderSpec(format="svg", cell_px=12)  # about 100 bytes a rect
    p = evolve(np.zeros(2400, dtype=np.uint64))  # 2 881 200 rects
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            render_svg(p, spec=spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sum(row.nbytes for row in p)
    # diagrams and compare figures share the guard: this diagram alone is over it
    d = eca_evolve(impulse_row(1700), 90, 1699)
    small = evolve([0, 1, 0])
    with pytest.raises(TooLarge):
        render_eca(d, spec)
    with pytest.raises(TooLarge):
        render_compare(d, small, highlight_pyramid(small, [1]), spec)


def test_svg_peak_memory_is_about_twice_the_document():
    # rects are joined per row, so the parts list holds ~one document, not one string per rect
    p = evolve([(i * 7) % 10 for i in range(300)])
    tracemalloc.start()
    try:
        doc = render_svg(p, spec=RenderSpec(format="svg", cell_px=12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.3 * len(doc)


def test_svg_peak_memory_of_wide_diagram_rows_stays_near_the_document():
    # a 9000-rect row is one string of ~0.5 MB; the document and its parts are the peak
    d = eca_evolve(impulse_row(9000), 90, 40)
    tracemalloc.start()
    try:
        doc = render_eca(d, RenderSpec(format="svg"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc.count("<rect") == 9000 * 41
    assert peak < 2.5 * len(doc)


def test_svg_coordinates_are_exact_at_any_scale():
    doc = render_svg(evolve([1, 2, 3]), spec=RenderSpec(format="svg", cell_px=411523))
    assert 'width="1234569" height="1234569" viewBox="0 0 1234569 1234569"' in doc
    xs = re.findall(r'<rect x="([^"]*)" y="([^"]*)"', doc)
    assert xs == [
        ("0", "0"), ("411523", "0"), ("823046", "0"),
        ("205761.5", "411523"), ("617284.5", "411523"),
        ("411523", "823046"),
    ]


def _svg_by_rect(panels, spec: RenderSpec) -> str:
    """Reference SVG, one f-string per rect.

    ``panels`` is a list of row lists; a cell is a gray level 0..255 or None
    for ink. The panels stack one blank cell row apart, each centered on the
    widest, and x is written exactly, with ".5" on a half pixel.
    """
    cp = spec.cell_px
    width = max(len(rows[0]) for rows in panels) * cp
    height = (sum(len(rows) for rows in panels) + len(panels) - 1) * cp
    edge = ' stroke="#c8c8c8" stroke-width="1"' if cp >= 6 else ""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" shape-rendering="crispEdges">'
    ]
    y = 0
    for rows in panels:
        pw = len(rows[0]) * cp
        for row in rows:
            x2 = width - pw + (pw - len(row) * cp if spec.alignment == "centered" else 0)  # half pixels
            for i, gray in enumerate(row):
                x = f"{x2 // 2 + i * cp}" + (".5" if x2 % 2 else "")
                fill = "#1a1a1a" if gray is None else f"#{gray:02x}{gray:02x}{gray:02x}"
                parts.append(f'<rect x="{x}" y="{y}" width="{cp}" height="{cp}" fill="{fill}"{edge}/>')
            y += cp
        y += cp
    parts.append("</svg>")
    return "\n".join(parts)


def _painted(gray_rows, mask, shade: bool):
    """Pyramid cells as the reference paints them: None where matched, else gray or white."""
    return [
        [None if mask is not None and mask.rows[t][i] else g if shade else 255 for i, g in enumerate(grays)]
        for t, grays in enumerate(gray_rows)
    ]


@given(
    st.lists(st.integers(0, 12), min_size=1, max_size=9),
    st.none() | st.integers(0, 3),
    st.none() | st.tuples(st.integers(0, 8), st.integers(1, 2)),
    st.sampled_from([1, 2, 5, 6, 12]),
)
@example([MAX_CELL, 0, 3], None, (0, 1), 5)
@settings(max_examples=100, deadline=None)
def test_svg_matches_a_per_rect_reference(values, cap, pattern, cp):
    p = evolve(values, max_generations=cap)
    gray_rows = _python_grays(values, len(p))
    mask = None
    if pattern is not None:
        start = pattern[0] % len(values)
        mask = highlight_pyramid(p, values[start : start + pattern[1]])
    for palette in ("values", "mask", "grayscale"):
        for alignment in ("centered", "left"):
            spec = RenderSpec(format="svg", cell_px=cp, alignment=alignment, palette=palette)
            shade = palette == "grayscale" or (mask is None and palette == "values")
            assert render_svg(p, mask, spec) == _svg_by_rect([_painted(gray_rows, mask, shade)], spec)


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=9),
    st.integers(0, 4),
    st.lists(st.integers(0, 3), min_size=1, max_size=9),
    st.sampled_from([1, 2, 5, 6, 12]),
)
# a diagram row of more than 8192 rects, wider than any fixed join size a writer might cap at
@example([int(i == 4100) for i in range(8201)], 2, [1, 0, 2], 1)
@settings(max_examples=100, deadline=None)
def test_eca_and_compare_svg_match_a_per_rect_reference(bits, generations, values, cp):
    # diagrams and pyramids of unequal width, so either panel can be the narrower
    d = eca_evolve(bits, 90, generations)
    diagram = [[None if b else 255 for b in row.tolist()] for row in d.rows]
    p = evolve(values)
    mask = highlight_pyramid(p, values[:1])
    gray_rows = _python_grays(values, len(p))
    for palette in ("values", "grayscale"):
        for alignment in ("centered", "left"):
            spec = RenderSpec(format="svg", cell_px=cp, alignment=alignment, palette=palette)
            assert render_eca(d, spec) == _svg_by_rect([diagram], spec)
            pyramid = _painted(gray_rows, mask, palette == "grayscale")
            assert render_compare(d, p, mask, spec) == _svg_by_rect([diagram, pyramid], spec)


# --------------------------------------------------------------- eca


def test_eca_ascii_uses_ink_and_dots():
    d = eca_evolve([0, 0, 1, 0, 0], 90, 2)
    assert render_eca(d) == "..#..\n.#.#.\n#...#"


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=40),
    st.integers(0, 30),
    st.sampled_from([30, 90, 110, 255]),
)
@settings(max_examples=60, deadline=None)
def test_eca_ascii_matches_a_per_row_reference(bits, generations, rule):
    d = eca_evolve(bits, rule, generations)
    expected = "\n".join("".join("#" if cell else "." for cell in row) for row in d.rows.tolist())
    assert render_eca(d) == expected


def test_eca_pbm_matches_the_diagram():
    d = eca_evolve(impulse_row(7), 90, 3)
    grid = read_pbm(render_eca(d, RenderSpec(format="pbm")))
    assert np.array_equal(grid, d.rows != 0)


def test_eca_svg_covers_the_rectangle():
    d = eca_evolve(impulse_row(5), 90, 2)
    doc = render_eca(d, RenderSpec(format="svg"))
    assert doc.count("<rect") == 5 * 3


def test_eca_pgm_has_the_right_header():
    d = eca_evolve(impulse_row(3), 90, 1)
    assert render_eca(d, RenderSpec(format="pgm")).startswith(b"P2\n3 2\n255\n")


# ---------------------------------------------------------- dispatch


def test_render_pyramid_dispatches_on_format():
    p = evolve([2, 0, 1])
    mask = highlight_pyramid(p, [0])
    assert render_pyramid(p, spec=RenderSpec(format="ascii")) == render_ascii(p)
    assert render_pyramid(p, mask, RenderSpec(format="pbm")) == render_pbm(mask)
    assert render_pyramid(p, spec=RenderSpec(format="pgm")) == render_pgm(p)
    assert render_pyramid(p, mask, RenderSpec(format="svg")) == render_svg(p, mask)


def test_render_pyramid_needs_a_mask_for_pbm_only():
    p = evolve([2, 0, 1])
    with pytest.raises(ValueError):
        render_pyramid(p, spec=RenderSpec(format="pbm"))
    with pytest.raises(ValueError):
        render_pyramid(p, highlight_pyramid(p, [0]), RenderSpec(format="pgm"))


def test_render_spec_validates_fields():
    with pytest.raises(ValueError):
        RenderSpec(format="png")
    with pytest.raises(ValueError):
        RenderSpec(cell_px=0)
    with pytest.raises(ValueError):
        RenderSpec(alignment="right")
    with pytest.raises(ValueError):
        RenderSpec(palette="rainbow")


@pytest.mark.parametrize("cell_px", [1.5, 2.0, "3", None])
def test_render_spec_names_a_cell_px_that_is_not_an_integer(cell_px):
    with pytest.raises(TypeError, match="cell_px"):
        RenderSpec(format="svg", cell_px=cell_px)
    p = evolve([1, 0])
    assert render_svg(p, spec=RenderSpec(format="svg", cell_px=np.int64(2))) == (
        render_svg(p, spec=RenderSpec(format="svg", cell_px=2))
    )


@pytest.mark.parametrize("cell_px", [True, np.int64(2), np.uint8(3)])
def test_render_spec_keeps_cell_px_as_a_plain_int(cell_px):
    spec = RenderSpec(format="svg", cell_px=cell_px)
    assert type(spec.cell_px) is int and spec.cell_px == int(cell_px)
    p = evolve([1, 0])
    assert render_svg(p, spec=spec) == render_svg(p, spec=RenderSpec(format="svg", cell_px=int(cell_px)))


# ------------------------------------------------------------ compare


def _compare_inputs():
    row = [0, 0, 1, 0, 0]
    p = evolve(row)
    mask = highlight_pyramid(p, [1])
    d = eca_evolve(row, 90, len(row) - 1)
    return d, p, mask


def test_compare_ascii_contains_both_panels():
    d, p, mask = _compare_inputs()
    text = render_compare(d, p, mask, diagram_label="top", pyramid_label="bottom")
    assert "== top ==" in text
    assert "== bottom ==" in text
    assert render_eca(d) in text


def test_compare_pbm_stacks_the_grids_with_a_gap():
    d, p, mask = _compare_inputs()
    grid = read_pbm(render_compare(d, p, mask, RenderSpec(format="pbm")))
    assert grid.shape == (5 + 1 + 5, 5)
    assert np.array_equal(grid[:5], d.rows != 0)
    assert not grid[5].any()  # separator band


def test_compare_svg_counts_both_cell_grids():
    d, p, mask = _compare_inputs()
    doc = render_compare(d, p, mask, RenderSpec(format="svg"))
    assert doc.count("<rect") == 5 * 5 + (5 + 4 + 3 + 2 + 1)


def test_compare_rejects_pgm():
    d, p, mask = _compare_inputs()
    with pytest.raises(ValueError):
        render_compare(d, p, mask, RenderSpec(format="pgm"))


# --------------------------------------------------------------- parts


@given(
    st.lists(st.integers(0, 12), min_size=1, max_size=9),
    st.none() | st.integers(0, 12),
    st.lists(st.integers(0, 1), min_size=1, max_size=9),
    st.integers(0, 4),
    st.sampled_from(FORMATS),
    st.sampled_from(PALETTES),
    st.sampled_from(ALIGNMENTS),
    st.integers(1, 13),
)
@settings(max_examples=200, deadline=None)
def test_the_parts_of_every_figure_join_to_its_rendering(values, pattern, bits, generations, fmt, palette,
                                                         alignment, cp):
    spec = RenderSpec(format=fmt, cell_px=cp, alignment=alignment, palette=palette)
    kind = str if fmt in ("ascii", "svg") else bytes
    p = evolve(values)
    mask = None if pattern is None else highlight_pyramid(p, [pattern])
    d = eca_evolve(bits, 90, generations)
    figures = [  # each with its rows of cells
        (iter_pyramid, render_pyramid, (p, mask, spec), len(p)),
        (iter_eca, render_eca, (d, spec), len(d.rows)),
        (iter_compare, render_compare, (d, p, highlight_pyramid(p, values[:1]), spec, "top", "bottom"),
         len(d.rows) + len(p)),
    ]
    for iterate, render, args, rows in figures:
        try:
            figure = render(*args)
        except ValueError as err:  # pbm without a mask, pgm with one, and a pgm compare figure
            with pytest.raises(ValueError, match=re.escape(str(err))):
                iterate(*args)
            continue
        parts = list(iterate(*args))
        assert all(type(part) is kind for part in parts)
        assert kind().join(parts) == figure
        if fmt == "svg":  # the header, a part a row of cells, the end tag
            assert len(parts) == rows + 2 and parts[-1] == "</svg>"
        elif fmt == "pgm":  # the header, a part a block of pixel rows, the final newline
            assert parts[0].startswith(b"P2\n") and parts[-1] == b"\n" and len(parts) >= 3
        else:
            assert len(parts) == 1


def test_every_check_of_a_figure_runs_before_its_first_part(monkeypatch):
    # each call raises by itself: a figure is refused before anything asks for a part
    d, p, mask = _compare_inputs()
    foreign = highlight_pyramid(evolve([1, 2]), [1])
    svg, pgm, pbm = (RenderSpec(format=f) for f in ("svg", "pgm", "pbm"))
    with pytest.raises(ShapeMismatch):
        iter_pyramid(p, foreign, svg)
    with pytest.raises(ShapeMismatch):
        iter_compare(d, p, foreign, svg)
    with pytest.raises(ValueError, match="supply a pattern"):
        iter_pyramid(p, None, pbm)
    with pytest.raises(ValueError, match="drop the pattern"):
        iter_pyramid(p, mask, pgm)
    with pytest.raises(ValueError, match="ascii, pbm or svg"):
        iter_compare(d, p, mask, pgm)
    monkeypatch.setattr(diffca.render, "MAX_CANVAS_PIXELS", 10)  # below every 5-cell figure
    over = [
        (iter_pyramid, (p, mask, svg)),
        (iter_pyramid, (p, None, pgm)),
        (iter_pyramid, (p, mask, pbm)),
        (iter_eca, (d, svg)),
        (iter_eca, (d, pgm)),
        (iter_eca, (d, pbm)),
        (iter_compare, (d, p, mask, svg)),
        (iter_compare, (d, p, mask, pbm)),
    ]
    for iterate, args in over:
        with pytest.raises(TooLarge):
            iterate(*args)


@pytest.mark.parametrize("cp", [1, 2, 3])
@pytest.mark.parametrize("margin", [-3, -2, 2, 3])
def test_diagram_blocks_off_centre_match_per_row_references(margin, cp):
    # a diagram narrower or wider than the pyramid by an odd or even margin: the
    # diagram's block sits off the canvas origin, centered by the floor of half
    # the margin; from cp 3 on, a pixel row crosses the 70-digit PBM line
    n = 24
    d = eca_evolve(impulse_row(n + margin, 5), 30, 7)
    diagram = d.rows.tolist()
    p = evolve([(i * i + i // 3) % 3 for i in range(n)])
    mask = highlight_pyramid(p, [1])
    mask_rows = [row.tolist() for row in mask]
    gray_rows = [[0 if cell else 255 for cell in row] for row in diagram]
    for alignment in ("centered", "left"):
        centered = alignment == "centered"
        pbm, pgm, svg = (RenderSpec(format=f, cell_px=cp, alignment=alignment) for f in ("pbm", "pgm", "svg"))
        assert render_compare(d, p, mask, pbm) == _pbm_by_row([diagram, mask_rows], cp, centered)
        assert render_eca(d, pbm) == _pbm_by_row([diagram], cp, centered)
        assert render_eca(d, pgm) == _pgm_by_row(gray_rows, cp, centered)
        inked = [[[None if cell else 255 for cell in row] for row in rows] for rows in (diagram, mask_rows)]
        assert render_compare(d, p, mask, svg) == _svg_by_rect(inked, svg)


@pytest.mark.parametrize("cp", [1, 2, 3])
@pytest.mark.parametrize("band_rows", [0, 1, 2, 3, 4])
def test_rasters_written_in_small_bands_match_per_row_references(monkeypatch, band_rows, cp):
    # the raster block shrunk to band_rows cell rows of the compare canvas (0: a few
    # pixels, so one cell row a band): bands split the diagram's 7-row block, hold the
    # gap between the panels with a row on either side, or hold one cell row alone
    n = 9
    d = eca_evolve(impulse_row(n + 2, 4), 30, 6)
    diagram = d.rows.tolist()
    values = [(i * i + i // 3) % 3 for i in range(n)]
    p = evolve(values)
    mask = highlight_pyramid(p, [1])
    mask_rows = [row.tolist() for row in mask]
    monkeypatch.setattr("diffca.render._PGM_BLOCK", max(5, band_rows * (n + 2) * cp * cp))
    for alignment in ("centered", "left"):
        centered = alignment == "centered"
        pbm, pgm = (RenderSpec(format=f, cell_px=cp, alignment=alignment) for f in ("pbm", "pgm"))
        assert render_compare(d, p, mask, pbm) == _pbm_by_row([diagram, mask_rows], cp, centered)
        assert render_pbm(mask, pbm) == _pbm_by_row([mask_rows], cp, centered)
        assert render_eca(d, pbm) == _pbm_by_row([diagram], cp, centered)
        assert render_pgm(p, pgm) == _pgm_by_row(_python_grays(values, len(p)), cp, centered)
        gray_rows = [[0 if cell else 255 for cell in row] for row in diagram]
        assert render_eca(d, pgm) == _pgm_by_row(gray_rows, cp, centered)


@pytest.mark.parametrize("cp", [1, 2])
def test_rasters_wider_than_one_band_match_per_row_references(cp):
    # at the default band size the compare canvas of a 301-cell impulse is cut into bands
    # inside its pyramid panel, whose rows alternate odd and even centred offsets, so rows
    # of both kinds lie on both sides of a band edge; at cp 2 the pyramid's own raster is too
    n = 301
    row = impulse_row(n, 120)
    d = eca_evolve(row, 90, n - 1)
    diagram = d.rows.tolist()
    p = evolve(row)
    mask = highlight_pyramid(p, [1])
    mask_rows = [r.tolist() for r in mask]
    band_rows = _PGM_BLOCK // (n * cp * cp) * cp  # pixel rows a band of the compare canvas
    assert any(edge > (n + 1) * cp for edge in range(band_rows, (2 * n + 1) * cp, band_rows))
    for alignment in ("centered", "left"):
        centered = alignment == "centered"
        pbm, pgm = (RenderSpec(format=f, cell_px=cp, alignment=alignment) for f in ("pbm", "pgm"))
        assert render_compare(d, p, mask, pbm) == _pbm_by_row([diagram, mask_rows], cp, centered)
        assert render_pbm(mask, pbm) == _pbm_by_row([mask_rows], cp, centered)
        assert render_pgm(p, pgm) == _pgm_by_row(_python_grays(row.tolist(), n), cp, centered)


@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=24),
    st.lists(st.integers(0, 1), min_size=1, max_size=24),
    st.integers(0, 255),
    st.integers(0, 12),
    st.integers(1, 3),
    st.booleans(),
    st.integers(1, 4096),
)
@settings(max_examples=150, deadline=None)
def test_rasters_match_per_row_references_at_any_band_size(values, initial, rule, generations, cp, centered, block):
    # one block size cuts shading blocks, raster bands and PGM blocks, so a drawn one puts
    # band edges anywhere in either panel, beside diagrams wider or narrower than the pyramid
    p = evolve(values)
    mask = highlight_pyramid(p, values[-1:])
    mask_rows = [row.tolist() for row in mask]
    d = eca_evolve(initial, rule, generations)
    diagram = d.rows.tolist()
    alignment = "centered" if centered else "left"
    pbm, pgm = (RenderSpec(format=f, cell_px=cp, alignment=alignment) for f in ("pbm", "pgm"))
    with mock.patch.object(diffca.render, "_PGM_BLOCK", block):
        assert render_compare(d, p, mask, pbm) == _pbm_by_row([diagram, mask_rows], cp, centered)
        assert render_pbm(mask, pbm) == _pbm_by_row([mask_rows], cp, centered)
        assert render_pgm(p, pgm) == _pgm_by_row(_python_grays(values, len(p)), cp, centered)
        assert render_eca(d, pbm) == _pbm_by_row([diagram], cp, centered)
        gray_rows = [[0 if cell else 255 for cell in row] for row in diagram]
        assert render_eca(d, pgm) == _pgm_by_row(gray_rows, cp, centered)


def test_a_raster_over_its_canvas_budget_is_refused_before_any_panel_is_painted():
    # a 9000 x 9000 pyramid canvas: the int16 paints of its 4 501 500 cells alone would be 9 MB
    n = 3000
    p = evolve(np.zeros(n, dtype=np.uint64))
    mask = highlight_pyramid(p, [0])
    d = eca_evolve(impulse_row(n), 90, n - 1)
    pbm, pgm = RenderSpec(format="pbm", cell_px=3), RenderSpec(format="pgm", cell_px=3)
    for render in (lambda: render_pgm(p, pgm), lambda: render_pbm(mask, pbm), lambda: render_compare(d, p, mask, pbm)):
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                render()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(mask.packed[0])


def test_a_cell_size_past_int64_is_refused_by_the_canvas_budget():
    # the canvas is sized in Python ints; no offset array of such a cell size is made before the check
    d, p, mask = _compare_inputs()
    for fmt in ("pbm", "pgm"):
        spec = RenderSpec(format=fmt, cell_px=1 << 64, alignment="centered")
        with pytest.raises(TooLarge):
            render_compare(d, p, mask, spec) if fmt == "pbm" else render_pgm(p, spec)


def test_renders_are_deterministic():
    d, p, mask = _compare_inputs()
    for spec in (RenderSpec(), RenderSpec(format="pbm"), RenderSpec(format="svg")):
        assert render_compare(d, p, mask, spec) == render_compare(d, p, mask, spec)
    assert render_pgm(p) == render_pgm(p)
