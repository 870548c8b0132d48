"""Space-time figure emission: ascii text, plain PBM/PGM rasters, SVG.

The pyramid layout mirrors the hand-drawn style of difference triangles:
row t is one cell shorter than row t-1 and is centered beneath it, so each
child sits visually between its two parents. PBM, PGM and SVG figures all
come from one layout of paint rows (a pyramid or an elementary-CA diagram
is one panel, a comparison two); each format only serializes it. Raster
output uses the plain (ASCII) portable-bitmap and portable-graymap formats
so golden files stay diffable, and every writer here is deterministic:
identical inputs give byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .eca import EcaDiagram
from .engine import CELL_DTYPE, MAX_CELL, Pyramid, Triangle
from .patterns import HighlightMask

__all__ = [
    "ALIGNMENTS",
    "FORMATS",
    "PALETTES",
    "RenderSpec",
    "ShapeMismatch",
    "render_ascii",
    "render_compare",
    "render_eca",
    "render_pbm",
    "render_pgm",
    "render_pyramid",
    "render_svg",
]

FORMATS = ("ascii", "pbm", "pgm", "svg")
ALIGNMENTS = ("centered", "left")
PALETTES = ("values", "mask", "grayscale")

FILLED_GLYPH = "#"
EMPTY_GLYPH = "."
GRID_COLOR = "#c8c8c8"  # svg cell outlines, drawn from cell_px 6 up
_PNM_LINE = 70  # plain-format line length cap

# A paint is INK (highlighted, or 1 in a diagram) or a gray level from 0
# (black) to 255 (white); BLANK, the unpainted cell, is white.
INK = -1
BLANK = 255


class ShapeMismatch(ValueError):
    """Mask and pyramid shapes disagree."""


@dataclass(frozen=True)
class RenderSpec:
    """How to draw: output format, raster scale, layout and highlight color.

    ``palette`` picks what unhighlighted cells show: ``"values"`` keeps the
    digits (ascii) or flat fill (svg), ``"mask"`` blanks them to '.', and
    ``"grayscale"`` shades by value, darkest at each row's maximum.
    """

    format: str = "ascii"
    cell_px: int = 1
    alignment: str = "centered"
    palette: str = "values"
    highlight_color: str = "#1a1a1a"

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise ValueError(f"format is one of {FORMATS}, got {self.format!r}")
        if self.alignment not in ALIGNMENTS:
            raise ValueError(f"alignment is one of {ALIGNMENTS}, got {self.alignment!r}")
        if self.palette not in PALETTES:
            raise ValueError(f"palette is one of {PALETTES}, got {self.palette!r}")
        if self.cell_px < 1:
            raise ValueError("cell_px is at least 1")


def _check_congruent(p: Pyramid, mask: HighlightMask | None) -> None:
    if mask is not None and not mask.congruent_with(p):
        raise ShapeMismatch(
            f"mask {mask.height}x{mask.base_width} vs pyramid {p.height}x{p.base_width}"
        )


# ---------------------------------------------------------------- ascii


def render_ascii(
    p: Pyramid,
    mask: HighlightMask | None = None,
    spec: RenderSpec | None = None,
) -> str:
    """One text line per generation.

    Centered alignment indents row t by t half-cell widths so children sit
    between their parents. With a mask, matched cells become
    :data:`FILLED_GLYPH`; unmatched cells keep their digits under the
    ``"values"`` palette or turn into '.' under ``"mask"``.
    """
    spec = spec or RenderSpec()
    _check_congruent(p, mask)
    token_rows: list[list[str]] = []
    for t, row in enumerate(p.rows):
        tokens = []
        for i, v in enumerate(row):
            if mask is not None and mask.rows[t][i]:
                tokens.append(FILLED_GLYPH)
            elif mask is not None and spec.palette == "mask":
                tokens.append(EMPTY_GLYPH)
            else:
                tokens.append(str(int(v)))
        token_rows.append(tokens)
    width = max(len(tok) for tokens in token_rows for tok in tokens)
    half = (width + 2) // 2  # half the cell pitch (token + one space), rounded up
    lines = []
    for t, tokens in enumerate(token_rows):
        indent = " " * (t * half) if spec.alignment == "centered" else ""
        lines.append(indent + " ".join(tok.rjust(width) for tok in tokens))
    return "\n".join(lines)


# -------------------------------------------------------------- layout

# (width, height, paint rows) in cells; the rows are made one at a time
Panel = tuple[int, int, Iterable[np.ndarray]]


def _row_grays(row: np.ndarray) -> np.ndarray:
    """Per-row shading ``255 * (m - v) // m``: the row maximum m is black, zero white.

    Exact over the whole uint64 range: where ``255 * m`` would overflow 64
    bits, the arithmetic runs on Python integers.
    """
    m = int(row.max())
    if m == 0:
        return np.full(row.size, BLANK, dtype=np.int16)
    d = m - row.astype(object if m > MAX_CELL // 255 else CELL_DTYPE)
    return (255 * d // m).astype(np.int16)


def _triangle_panel(tri: Triangle, ink: HighlightMask | None, shade: bool) -> Panel:
    """One paint row per row of ``tri``: ink where ``ink`` is set, else gray or blank."""

    def paints() -> Iterator[np.ndarray]:
        for t, row in enumerate(tri):
            out = _row_grays(row) if shade else np.full(row.size, BLANK, dtype=np.int16)
            if ink is not None:
                out[ink[t]] = INK
            yield out

    return tri.base_width, tri.height, paints()


def _diagram_panel(d: EcaDiagram) -> Panel:
    return d.width, len(d), (np.where(row != 0, INK, BLANK) for row in d.rows)


def _layout(panels: list[Panel], spec: RenderSpec):
    """Stack the panels one blank cell row apart, each centered on the widest.

    Returns the canvas width and height in pixels and an iterator over the
    placed rows ``(y, xp, xr, paints)``: ``y`` is the top pixel row, ``xp``
    the panel's offset in the canvas and ``xr`` the row's offset in its
    panel, both in half pixels. Rasters floor the two offsets one by one;
    SVG writes their sum exactly.
    """
    cp = spec.cell_px
    w = max(width for width, _, _ in panels) * cp
    h = (sum(height for _, height, _ in panels) + len(panels) - 1) * cp

    def placed() -> Iterator[tuple[int, int, int, np.ndarray]]:
        y = 0
        for width, _, rows in panels:
            pw = width * cp
            for paints in rows:
                xr = pw - paints.size * cp if spec.alignment == "centered" else 0
                yield y, w - pw, xr, paints
                y += cp
            y += cp

    return w, h, placed()


# -------------------------------------------------------- serializers


def _raster(panels: list[Panel], spec: RenderSpec) -> np.ndarray:
    """The layout as a uint8 graymap: ink is black, unpainted pixels white."""
    cp = spec.cell_px
    w, h, rows = _layout(panels, spec)
    canvas = np.full((h, w), BLANK, dtype=np.uint8)
    for y, xp, xr, paints in rows:
        x = xp // 2 + xr // 2
        grays = np.where(paints == INK, 0, paints)
        canvas[y : y + cp, x : x + paints.size * cp] = np.repeat(grays, cp)
    return canvas


def _pbm(panels: list[Panel], spec: RenderSpec) -> bytes:
    """Plain portable bitmap: black pixels are 1, so its panels hold only ink and blank."""
    canvas = _raster(panels, spec)
    h, w = canvas.shape
    lines = [f"P1\n{w} {h}".encode("ascii")]
    for pixel_row in canvas:
        bits = np.where(pixel_row == 0, b"1", b"0").tobytes()
        lines.extend(bits[i : i + _PNM_LINE] for i in range(0, w, _PNM_LINE))
    return b"\n".join(lines) + b"\n"


def _pgm(panels: list[Panel], spec: RenderSpec) -> bytes:
    """Plain portable graymap with maxval 255."""
    canvas = _raster(panels, spec)
    h, w = canvas.shape
    lines = [f"P2\n{w} {h}\n255"]
    for pixel_row in canvas:
        # greedy fill: each line breaks at its last space within the cap
        text, start = " ".join(map(str, pixel_row.tolist())), 0
        while len(text) - start > _PNM_LINE:
            cut = text.rfind(" ", start, start + _PNM_LINE + 1)
            lines.append(text[start:cut])
            start = cut + 1
        lines.append(text[start:])
    return ("\n".join(lines) + "\n").encode("ascii")


def _svg(panels: list[Panel], spec: RenderSpec) -> str:
    """SVG 1.1 document with one square per cell, row-major, exact coordinates."""
    cp = spec.cell_px
    w, h, rows = _layout(panels, spec)
    fills = {g: f"#{g:02x}{g:02x}{g:02x}" for g in range(256)}
    fills[INK] = spec.highlight_color
    edge = f' stroke="{GRID_COLOR}" stroke-width="1"' if cp >= 6 else ""
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}" '
        'shape-rendering="crispEdges">'
    ]
    for y, xp, xr, paints in rows:
        x0, half = divmod(xp + xr, 2)
        frac = ".5" if half else ""
        parts.extend(
            f'<rect x="{x0 + i * cp}{frac}" y="{y}" width="{cp}" height="{cp}" '
            f'fill="{fills[paint]}"{edge}/>'
            for i, paint in enumerate(paints.tolist())
        )
    parts.append("</svg>")
    return "\n".join(parts)


_SERIALIZERS = {"pbm": _pbm, "pgm": _pgm, "svg": _svg}


def render_pbm(mask: HighlightMask, spec: RenderSpec | None = None) -> bytes:
    """Plain portable bitmap of a highlight mask; matched cells are black.

    Each cell becomes a ``cell_px`` square; row t occupies the t-th band,
    centered (or flush left). Output is bit-exact for identical inputs.
    """
    return _pbm([_triangle_panel(mask, mask, shade=False)], spec or RenderSpec())


def render_pgm(p: Pyramid, spec: RenderSpec | None = None) -> bytes:
    """Plain portable graymap of an unmasked pyramid, shaded by value."""
    return _pgm([_triangle_panel(p, None, shade=True)], spec or RenderSpec())


def render_svg(
    p: Pyramid,
    mask: HighlightMask | None = None,
    spec: RenderSpec | None = None,
) -> str:
    """SVG 1.1 document with one rectangle per cell, emitted row-major.

    Highlighted cells take the highlight color; without a mask the cells
    are shaded by value so the triangle stays readable.
    """
    spec = spec or RenderSpec()
    _check_congruent(p, mask)
    shade = spec.palette == "grayscale" or (mask is None and spec.palette == "values")
    return _svg([_triangle_panel(p, mask, shade)], spec)


# ----------------------------------------------------------------- eca


def render_eca(d: EcaDiagram, spec: RenderSpec | None = None) -> str | bytes:
    """Rectangular rendering of an elementary-CA diagram; 1 is ink.

    Dispatches on ``spec.format``: ascii ('#' and '.'), pbm, pgm or svg.
    """
    spec = spec or RenderSpec()
    if spec.format == "ascii":
        return "\n".join(
            "".join(FILLED_GLYPH if v else EMPTY_GLYPH for v in row) for row in d.rows
        )
    return _SERIALIZERS[spec.format]([_diagram_panel(d)], spec)


# ----------------------------------------------------------- dispatch


def render_pyramid(
    p: Pyramid,
    mask: HighlightMask | None = None,
    spec: RenderSpec | None = None,
) -> str | bytes:
    """Render a pyramid in ``spec.format``, with or without a mask."""
    spec = spec or RenderSpec()
    if spec.format == "ascii":
        return render_ascii(p, mask, spec)
    if spec.format == "svg":
        return render_svg(p, mask, spec)
    if spec.format == "pbm":
        if mask is None:
            raise ValueError("pbm renders a highlight mask; supply a pattern")
        _check_congruent(p, mask)
        return render_pbm(mask, spec)
    if mask is not None:
        raise ValueError("pgm renders the unmasked pyramid; drop the pattern")
    return render_pgm(p, spec)


def render_compare(
    d: EcaDiagram,
    p: Pyramid,
    mask: HighlightMask,
    spec: RenderSpec | None = None,
    diagram_label: str = "elementary rule",
    pyramid_label: str = "difference pyramid",
) -> str | bytes:
    """Both panels in one artifact, diagram above pyramid.

    ascii stacks labeled panels; pbm and svg stack the two panels one
    blank cell row apart, each centered on the wider. pgm has no sensible
    two-panel composition and is rejected.
    """
    spec = spec or RenderSpec()
    _check_congruent(p, mask)
    if spec.format == "ascii":
        panel_spec = replace(spec, palette="mask")
        return (
            f"== {diagram_label} ==\n"
            + render_eca(d, replace(spec, format="ascii"))
            + f"\n\n== {pyramid_label} ==\n"
            + render_ascii(p, mask, panel_spec)
        )
    if spec.format == "pgm":
        raise ValueError("compare artifacts support ascii, pbm or svg")
    shade = spec.format == "svg" and spec.palette == "grayscale"
    return _SERIALIZERS[spec.format]([_diagram_panel(d), _triangle_panel(p, mask, shade)], spec)
