"""ascii, PBM/PGM, and SVG output."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffca.eca import eca_evolve, impulse_row
from diffca.engine import MAX_CELL, evolve
from diffca.patterns import highlight_pyramid
from diffca.render import (
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


# --------------------------------------------------------------- pgm


def test_pgm_shades_by_row_maximum():
    data = render_pgm(evolve([2, 1]))
    assert data == b"P2\n2 2\n255\n0 127\n0 255\n"


def test_pgm_renders_all_zero_rows_white():
    data = render_pgm(evolve([5, 5]))
    assert data.splitlines()[-1] == b"255 255"


def _python_grays(values: list[int]) -> list[list[int]]:
    """Each pyramid row shaded as 255 * (m - v) // m, in Python integers."""
    out = []
    while values:
        m = max(values)
        out.append([255 * (m - v) // m if m else 255 for v in values])
        values = [abs(a - b) for a, b in zip(values, values[1:])]
    return out


@given(st.lists(st.integers(0, MAX_CELL), min_size=1, max_size=12))
@example([10**17, 0, 5 * 10**16])
@example([MAX_CELL, 0])
@settings(max_examples=200, deadline=None)
def test_gray_shading_is_exact_over_the_full_cell_range(values):
    expected = _python_grays(values)
    p = evolve(values)
    fields = render_pgm(p, RenderSpec(format="pgm", alignment="left")).split()
    pixels = np.array([int(v) for v in fields[4:]]).reshape(len(values), len(values))
    assert [pixels[t, : len(row)].tolist() for t, row in enumerate(expected)] == expected
    doc = render_svg(p, spec=RenderSpec(format="svg", palette="grayscale"))
    fills = [int(g, 16) for g in re.findall(r'fill="#([0-9a-f]{2})', doc)]
    assert fills == [g for row in expected for g in row]


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
    doc = render_svg(p, mask, RenderSpec(format="svg", highlight_color="#ff0000"))
    assert doc.count('fill="#ff0000"') == 2
    assert doc.count("<rect") == 3


def test_svg_is_self_contained():
    doc = render_svg(evolve([3, 1, 4]))
    assert "http" not in doc.replace("http://www.w3.org/2000/svg", "")
    assert doc.startswith("<svg") and doc.endswith("</svg>")


def test_svg_viewbox_matches_the_cell_grid():
    doc = render_svg(evolve([1, 2, 3]), spec=RenderSpec(format="svg", cell_px=10))
    assert 'viewBox="0 0 30 30"' in doc


def test_svg_coordinates_are_exact_at_any_scale():
    doc = render_svg(evolve([1, 2, 3]), spec=RenderSpec(format="svg", cell_px=411523))
    assert 'width="1234569" height="1234569" viewBox="0 0 1234569 1234569"' in doc
    xs = re.findall(r'<rect x="([^"]*)" y="([^"]*)"', doc)
    assert xs == [
        ("0", "0"), ("411523", "0"), ("823046", "0"),
        ("205761.5", "411523"), ("617284.5", "411523"),
        ("411523", "823046"),
    ]


# --------------------------------------------------------------- eca


def test_eca_ascii_uses_ink_and_dots():
    d = eca_evolve([0, 0, 1, 0, 0], 90, 2)
    assert render_eca(d) == "..#..\n.#.#.\n#...#"


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


def test_renders_are_deterministic():
    d, p, mask = _compare_inputs()
    for spec in (RenderSpec(), RenderSpec(format="pbm"), RenderSpec(format="svg")):
        assert render_compare(d, p, mask, spec) == render_compare(d, p, mask, spec)
    assert render_pgm(p) == render_pgm(p)
