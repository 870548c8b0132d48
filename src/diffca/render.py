"""Space-time figure emission: ascii text, plain PBM/PGM rasters, SVG.

The pyramid layout mirrors the hand-drawn style of difference triangles:
row t is one cell shorter than row t-1 and is centered beneath it, so each
child sits visually between its two parents. PBM, PGM and SVG figures all
come from one layout of paint rows (a pyramid or an elementary-CA diagram
is one panel, a comparison two); each format only serializes it. PGM and
SVG are serialized in parts, which ``iter_pyramid``, ``iter_eca`` and
``iter_compare`` hand out one by one and each ``render_*`` joins. Raster
output uses the plain (ASCII) portable-bitmap and portable-graymap formats
so golden files stay diffable, and every writer here is deterministic:
identical inputs give byte-identical output.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from itertools import pairwise
from typing import Callable, Iterator

import numpy as np

from .eca import EcaDiagram
from .engine import MAX_CELL, Pyramid, TooLarge, as_integer
from .patterns import HighlightMask

__all__ = [
    "ALIGNMENTS",
    "FORMATS",
    "MAX_CANVAS_PIXELS",
    "PALETTES",
    "RenderSpec",
    "ShapeMismatch",
    "iter_compare",
    "iter_eca",
    "iter_pyramid",
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
# an 8192 x 8192 raster: 64 MiB as uint8, before its plain-text serialization
MAX_CANVAS_PIXELS = 8192 * 8192
# cells a block of shaded rows, pixels a raster band of whole cell rows, or a PGM block of
# whole pixel rows (or one row): no temporary of a block passes 1 MB, and a row of the
# canvas budget at 4 bytes a pixel keeps its offsets within int32
_PGM_BLOCK = 1 << 17

# A paint is INK (highlighted, or 1 in a diagram) or a gray level from 0
# (black) to 255 (white); BLANK, the unpainted cell, is white.
INK = -1
BLANK = 255


class ShapeMismatch(ValueError):
    """Mask and pyramid shapes disagree."""


@dataclass(frozen=True)
class RenderSpec:
    """How to draw: output format, raster scale and layout.

    ``palette`` picks what unhighlighted cells show: ``"values"`` keeps the
    digits (ascii) or flat fill (svg), ``"mask"`` blanks them to '.', and
    ``"grayscale"`` shades by value, darkest at each row's maximum.
    """

    format: str = "ascii"
    cell_px: int = 1
    alignment: str = "centered"
    palette: str = "values"

    def __post_init__(self) -> None:
        for name, allowed in (("format", FORMATS), ("alignment", ALIGNMENTS), ("palette", PALETTES)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} is one of {allowed}, got {getattr(self, name)!r}")
        # stored as a plain int, whatever integer type came in
        object.__setattr__(self, "cell_px", as_integer(self.cell_px, "cell_px"))
        if self.cell_px < 1:
            raise ValueError("cell_px is at least 1")


def _check_congruent(p: Pyramid, mask: HighlightMask | None) -> None:
    if mask is not None and not mask.congruent_with(p):
        raise ShapeMismatch(f"mask {mask.height}x{mask.base_width} vs pyramid {p.height}x{p.base_width}")


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
    cells, starts = p.packed
    matched = None if mask is None else mask.packed[0]
    if matched is not None and spec.palette == "mask":
        width = 1
        tokens = np.full(cells.size, np.void(f"{EMPTY_GLYPH} ".encode()))
    else:
        # every token is padded to the longest: one glyph, or the largest printed value
        printed = True if matched is None else ~matched
        width = len(str(int(cells.max(initial=0, where=printed))))
        tokens = _tokens(cells, width)
    if matched is not None:
        tokens[matched] = np.void(f"{FILLED_GLYPH:>{width}} ".encode())
    half = (width + 2) // 2  # half the cell pitch (token + one space), rounded up
    lines = []
    for t, (a, b) in enumerate(pairwise(starts.tolist())):
        indent = b" " * (t * half) if spec.alignment == "centered" else b""
        lines.append(indent + tokens[a:b].tobytes()[:-1])  # drop the last token's space
    del tokens  # the lines and the text alone, not the tokens too, while they join
    text = b"\n".join(lines)
    del lines  # the text alone, not the lines too, while it decodes
    return text.decode("ascii")


def _tokens(cells: np.ndarray, width: int) -> np.ndarray:
    """One ``width + 1``-byte token a cell, each an element of the returned void array.

    Token k is ``cells[k]`` right-justified in ``width`` bytes, then a space
    (a value of more digits keeps its last ``width`` ones). The digits are
    peeled from a copy of the cells in their own dtype, units first.
    """
    tokens = np.empty((cells.size, width + 1), dtype=np.uint8)
    tokens[:, width] = ord(" ")
    rest = cells.copy()
    for col in range(width - 1, -1, -1):
        column = tokens[:, col]
        np.remainder(rest, 10, out=column, casting="unsafe")
        column += ord("0")
        if col < width - 1:
            column[rest == 0] = ord(" ")  # a leading zero
        rest //= 10
    return tokens.view(f"V{width + 1}").ravel()


# -------------------------------------------------------------- layout

# A panel is packed like a Triangle, (cells, starts, ink, shade): row t is
# cells[starts[t]:starts[t + 1]], ink is a bool per cell or None.
Panel = tuple[np.ndarray, np.ndarray, np.ndarray | None, bool]


def _diagram_panel(d: EcaDiagram) -> Panel:
    cells = d.rows.ravel()
    return cells, np.arange(d.rows.shape[0] + 1) * d.rows.shape[1], cells.view(bool), False


def _paints(panel: Panel, ink: int) -> np.ndarray:
    """One int16 paint per cell: ``ink`` where inked, else blank or, shaded, its row's gray.

    A row shades as ``255 * (m - v) // m``, black at its maximum m, exact over
    all of uint64: where ``255 * m`` would overflow, it runs on Python integers.
    Shading runs over blocks of whole rows, so no temporary grows with the panel.
    """
    cells, starts, inked, shade = panel
    paints = np.full(cells.size, BLANK, dtype=np.int16)
    if shade:
        tops = np.maximum.reduceat(cells, starts[:-1])  # each row's maximum
        work = np.min_scalar_type(min(255 * int(tops.max()), MAX_CELL))  # holds 255 * m
        s = starts.tolist()
        step = max(1, _PGM_BLOCK // s[1])  # whole rows a block: none is longer than the first
        for r in range(0, len(s) - 1, step):
            a, b = s[r], s[min(r + step, len(s) - 1)]
            # an all-zero row shades as 255 * (1 - 0) // 1, blank
            m = np.repeat(np.maximum(tops[r : r + step], 1).astype(work), np.diff(starts[r : r + step + 1]))
            grays = m - cells[a:b]
            grays *= 255
            grays //= m
            paints[a:b] = grays
        for t in np.flatnonzero(tops > MAX_CELL // 255).tolist():  # these rows wrapped above
            m = int(tops[t])
            paints[s[t] : s[t + 1]] = 255 * (m - cells[s[t] : s[t + 1]].astype(object)) // m
    if inked is not None:
        paints[inked] = ink
    return paints


def _layout(panels: list[Panel], spec: RenderSpec) -> tuple[int, int, list[tuple[int, int, np.ndarray, Panel]]]:
    """Stack the panels one blank cell row apart, each centered on the widest.

    Returns the canvas width and height in pixels and the placed panels
    ``(y, xp, xrs, panel)``: ``y`` is the panel's top pixel row, ``xp`` its
    offset in the canvas in half pixels and ``xrs[t]`` row t's offset in the
    panel in half cells, so that nothing here is an array of a huge
    ``cell_px``'s multiples before the callers' size checks. Rasters floor the
    two offsets one by one; SVG writes their sum exactly. Nothing is painted
    here: the callers paint each panel after their size checks.
    """
    cp = spec.cell_px
    w = max(int(starts[1]) for _, starts, _, _ in panels) * cp
    placed, y = [], 0
    for panel in panels:
        starts = panel[1]
        cells = int(starts[1])
        xrs = cells - np.diff(starts) if spec.alignment == "centered" else np.zeros(starts.size - 1, int)
        placed.append((y, w - cells * cp, xrs, panel))
        y += starts.size * cp  # its rows and one blank row
    return w, y - cp, placed


# -------------------------------------------------------- serializers


def _raster(
    panels: list[Panel], spec: RenderSpec, paint: Callable[[Panel], np.ndarray], blank: int
) -> tuple[int, int, Iterator[np.ndarray]]:
    """The layout as uint8 pixels of ``paint``'s values, ``blank`` where no cell lies.

    Returns the canvas width and height and an iterator over its bands, top
    to bottom: each band holds whole cell rows, about ``_PGM_BLOCK`` pixels,
    and is a view of one buffer that the next band overwrites. A panel is
    painted on its first band. A panel of equal rows (an elementary-CA
    diagram) is written through one ``(rows, cp, width)`` view of its pixels
    in the band; every pixel row of any other by one memoryview slice assignment.
    """
    cp = spec.cell_px
    w, h, placed = _layout(panels, spec)
    TooLarge.check(w * h, MAX_CANVAS_PIXELS, f"pixels of a {w}x{h} canvas")
    step = max(1, _PGM_BLOCK // (w * cp)) * cp  # pixel rows a band; every placed row starts at a multiple of cp

    def bands() -> Iterator[np.ndarray]:
        band = np.empty((min(step, h), w), dtype=np.uint8)
        out = memoryview(band.reshape(-1))
        made = {}  # by panel top, on its first band: its pixels, and its pixel rows' canvas offsets, starts and ends
        for top in range(0, h, step):
            band.fill(blank)
            for y, xp, xrs, panel in placed:
                rows, starts = xrs.size, panel[1]
                t, k = max(0, (top - y) // cp), min(rows, (top + step - y) // cp)  # its cell rows in the band
                if t >= k:
                    continue
                if not t:
                    pixels = paint(panel).astype(np.uint8, copy=False)
                    if cp > 1:
                        pixels = np.repeat(pixels, cp)  # each cell cp pixels wide
                    if starts[-1] == rows * starts[1]:  # no row is longer than the first, so all are equal
                        made[y] = pixels.reshape(rows, -1), None  # written as one block, not row by row
                    else:
                        at = ((y + np.arange(rows * cp)) * w + np.repeat(xp // 2 + xrs * cp // 2, cp)).tolist()
                        ends = np.repeat(starts * cp, cp)
                        made[y] = memoryview(pixels), (at, ends[:-cp].tolist(), ends[cp:].tolist())
                pixels, pixel_rows = made[y]
                if pixel_rows is None:  # every row cp pixel rows, through a view of the block's pixels
                    y0, x, pw = y + t * cp - top, xp // 2, pixels.shape[1]
                    band[y0 : y0 + (k - t) * cp, x : x + pw].reshape(k - t, cp, pw)[...] = pixels[t:k, None]
                else:
                    base, r = top * w, slice(t * cp, k * cp)  # the band's canvas offset, the panel's pixel rows in it
                    for o, a, b in zip(*(column[r] for column in pixel_rows)):
                        o -= base
                        out[o : o + b - a] = pixels[a:b]
            yield band[: h - top]

    return w, h, bands()


def _pbm(panels: list[Panel], spec: RenderSpec) -> Iterator[bytes]:
    """Plain portable bitmap of the panels' ink bits, as one part: 1 (black) where inked, else 0.

    Pixel rows are cut into lines of at most ``_PNM_LINE`` digits. Each band of
    the raster is written straight into the document, its bits turned into
    digits as they are copied in, next to the newlines; the document is one
    buffer of its known size, which becomes the one part without a copy.
    """
    w, h, bands = _raster(panels, spec, lambda panel: panel[2].view(np.uint8), blank=0)
    full, rest = divmod(w, _PNM_LINE)
    head = f"P1\n{w} {h}\n".encode("ascii")
    line = _PNM_LINE + 1
    row_bytes = full * line + (rest + 1 if rest else 0)
    doc = io.BytesIO()
    doc.seek(len(head) + h * row_bytes - 1)
    doc.write(b"\n")  # sizes the document once
    out = np.frombuffer(doc.getbuffer(), dtype=np.uint8)
    out[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    body = out[len(head) :].reshape(h, row_bytes)
    top = 0
    for bits in bands:
        rows = body[top : top + len(bits)]
        top += len(bits)
        lines = rows[:, : full * line].reshape(len(bits), full, line)  # a view: only splits an axis
        np.add(bits[:, : full * _PNM_LINE].reshape(len(bits), full, _PNM_LINE), ord("0"), out=lines[:, :, :-1])
        lines[:, :, -1] = ord("\n")
        np.add(bits[:, full * _PNM_LINE :], ord("0"), out=rows[:, full * line : full * line + rest])
        rows[:, -1] = ord("\n")
    del out, body, rows, lines  # every view of the buffer: while one is alive, getvalue copies it
    return iter((doc.getvalue(),))


# A gray's plain-PGM slot: a separator, its 1 to 3 digits and NUL padding, as
# one uint32; _PGM_WIDTH counts the bytes of a slot that are written.
_PGM_SLOTS = np.frombuffer(b"".join(f" {g}".encode().ljust(4, b"\0") for g in range(256)), dtype=np.uint32)
_PGM_WIDTH = np.array([len(f" {g}") for g in range(256)], dtype=np.uint8)
# an SVG fill per gray level, in paint order, then the highlight's, so a paint of INK takes the last
_SVG_FILLS = (*(f"#{g:02x}{g:02x}{g:02x}" for g in range(256)), "#1a1a1a")


def _pgm(panels: list[Panel], spec: RenderSpec) -> Iterator[bytes]:
    """Plain portable graymap with maxval 255 in parts: its header, one a block, the final newline.

    Each pixel row is filled greedily: a line takes tokens while it stays
    within ``_PNM_LINE`` bytes. The pixel rows are written in blocks of
    about ``_PGM_BLOCK`` pixels, each by table lookups alone. The canvas
    budget is checked before this returns.
    """
    w, h, bands = _raster(panels, spec, lambda panel: _paints(panel, 0), BLANK)
    step = max(1, _PGM_BLOCK // w)  # a band of huge cells is more than one block

    def parts() -> Iterator[bytes]:
        yield f"P2\n{w} {h}\n255".encode("ascii")
        for band in bands:
            for y in range(0, len(band), step):
                yield _pgm_lines(band[y : y + step].ravel(), w)
        yield b"\n"

    return parts()


def _pgm_lines(pixels: np.ndarray, w: int) -> bytes:
    """The lines of whole pixel rows, ``w`` pixels each, every line led by its newline."""
    slots = _PGM_SLOTS.take(pixels)
    seps = slots.view(np.uint8)[::4]  # each slot's first byte: a space until a line starts there
    before = np.zeros(pixels.size + 1, dtype=np.int32)  # bytes ahead of each token, separators included
    np.cumsum(_PGM_WIDTH.take(pixels), dtype=np.int32, out=before[1:])
    # a line from token s takes every token that ends within _PNM_LINE bytes of
    # s's separator; one search finds the next line of every unfinished row
    start = np.arange(0, pixels.size, w)
    stop = start + w
    while start.size:
        seps[start] = ord("\n")
        start = before[1:].searchsorted(before[start] + _PNM_LINE + 1, side="right")
        live = start < stop
        start, stop = start[live], stop[live]
    body = slots.view(np.uint8)
    return body[body != 0].tobytes()


def _svg(panels: list[Panel], spec: RenderSpec) -> Iterator[str]:
    """SVG 1.1 document in parts: its header, one a row of cells, then ``</svg>``.

    One square per cell, row-major, exact coordinates. A rect is three table
    lookups: a head by its x, its row's middle and a tail by its paint, the
    tails looked up once a panel. Each row of rects is one part, a join over
    the three, interleaved. The byte budget is checked before this returns.
    """
    cp = spec.cell_px
    w, h, placed = _layout(panels, spec)
    edge = f' stroke="{GRID_COLOR}" stroke-width="1"' if cp >= 6 else ""
    # no rect is longer than one at the canvas corner (every fill is #rrggbb);
    # the budget is the largest plain PGM the raster budget allows, "255 " a pixel
    rect = f'<rect x="{w}.5" y="{h}" width="{cp}" height="{cp}" fill="#rrggbb"{edge}/>\n'
    TooLarge.check(sum(c.size for c, *_ in panels) * len(rect), 4 * MAX_CANVAS_PIXELS, "SVG bytes")
    # every x in half pixels is j * cp, and a row's rects step j by 2: heads[j] is the head at j
    heads = np.array([f'<rect x="{x // 2}{".5" if x % 2 else ""}" y="' for x in range(0, 2 * w + 1, cp)], dtype=object)
    tails = np.array([f'" fill="{fill}"{edge}/>\n' for fill in _SVG_FILLS], dtype=object)
    header = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}" '
        'shape-rendering="crispEdges">\n'
    )

    def parts() -> Iterator[str]:
        yield header
        rects = np.empty(3 * (w // cp), dtype=object)  # the widest row's heads, middles and tails
        for y, xp, xrs, panel in placed:
            s, fills = panel[1].tolist(), tails[_paints(panel, INK)]  # painted after the budget check
            for xr, a, b in zip(xrs.tolist(), s, s[1:]):
                j = xp // cp + xr  # xp is a multiple of cp
                row = rects[: 3 * (b - a)]
                row[0::3] = heads[j : j + 2 * (b - a) : 2]
                row[1::3] = f'{y}" width="{cp}" height="{cp}'
                row[2::3] = fills[a:b]
                yield "".join(row.tolist())  # one string a row, not a rect: half the peak memory
                y += cp
        yield "</svg>"

    return parts()


_SERIALIZERS = {"pbm": _pbm, "pgm": _pgm, "svg": _svg}


def _joined(parts: Iterator[str] | Iterator[bytes], spec: RenderSpec) -> str | bytes:
    """The figure the parts make up: text for ascii and svg, bytes for pbm and pgm.

    A figure of one part is that part, not a copy.
    """
    return ("" if spec.format in ("ascii", "svg") else b"").join(parts)


def render_pbm(mask: HighlightMask, spec: RenderSpec | None = None) -> bytes:
    """Plain portable bitmap of a highlight mask; matched cells are black.

    Each cell becomes a ``cell_px`` square; row t occupies the t-th band,
    centered (or flush left). Output is bit-exact for identical inputs.
    """
    return b"".join(_pbm([(*mask.packed, mask.packed[0], False)], spec or RenderSpec()))


def render_pgm(p: Pyramid, spec: RenderSpec | None = None) -> bytes:
    """Plain portable graymap of an unmasked pyramid, shaded by value."""
    return b"".join(_pgm([(*p.packed, None, True)], spec or RenderSpec()))


def render_svg(
    p: Pyramid,
    mask: HighlightMask | None = None,
    spec: RenderSpec | None = None,
) -> str:
    """SVG 1.1 document with one rectangle per cell, emitted row-major.

    Highlighted cells are filled #1a1a1a; without a mask the cells
    are shaded by value so the triangle stays readable. Raises
    :class:`TooLarge`, before writing any rect, when cells × the longest
    rect would exceed ``4 * MAX_CANVAS_PIXELS`` bytes.
    """
    return "".join(_pyramid_svg(p, mask, spec or RenderSpec()))


def _pyramid_svg(p: Pyramid, mask: HighlightMask | None, spec: RenderSpec) -> Iterator[str]:
    _check_congruent(p, mask)
    shade = spec.palette == "grayscale" or (mask is None and spec.palette == "values")
    return _svg([(*p.packed, None if mask is None else mask.packed[0], shade)], spec)


# ----------------------------------------------------------------- eca


def render_eca(d: EcaDiagram, spec: RenderSpec | None = None) -> str | bytes:
    """Rectangular rendering of an elementary-CA diagram; 1 is ink.

    Dispatches on ``spec.format``: ascii ('#' and '.'), pbm, pgm or svg.
    """
    spec = spec or RenderSpec()
    return _joined(iter_eca(d, spec), spec)


def iter_eca(d: EcaDiagram, spec: RenderSpec | None = None) -> Iterator[str] | Iterator[bytes]:
    """:func:`render_eca`'s figure in parts, whose join is that figure.

    Every check runs before this returns. ascii and pbm are one part each;
    svg is its header, a part a row of cells and its end tag; pgm its
    header, a part a block of pixel rows and its final newline.
    """
    spec = spec or RenderSpec()
    if spec.format == "ascii":
        # one glyph per cell and a newline after each row, the last one dropped
        text = np.full((d.rows.shape[0], d.rows.shape[1] + 1), ord("\n"), dtype=np.uint8)
        glyphs = np.frombuffer((EMPTY_GLYPH + FILLED_GLYPH).encode(), np.uint8)
        np.take(glyphs, d.rows, out=text[:, :-1], mode="clip")  # cells are 0 or 1: no bounds check needed
        return iter((text.tobytes()[:-1].decode("ascii"),))
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


def iter_pyramid(
    p: Pyramid,
    mask: HighlightMask | None = None,
    spec: RenderSpec | None = None,
) -> Iterator[str] | Iterator[bytes]:
    """:func:`render_pyramid`'s figure in parts, whose join is that figure.

    Every check runs before this returns. svg and pgm come in parts as
    :func:`iter_eca` describes; ascii and pbm are the one part
    :func:`render_pyramid` returns.
    """
    spec = spec or RenderSpec()
    if spec.format == "svg":
        return _pyramid_svg(p, mask, spec)
    if spec.format == "pgm" and mask is None:
        return _pgm([(*p.packed, None, True)], spec)
    return iter((render_pyramid(p, mask, spec),))  # pgm with a mask raises there


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
    return _joined(iter_compare(d, p, mask, spec, diagram_label, pyramid_label), spec)


def iter_compare(
    d: EcaDiagram,
    p: Pyramid,
    mask: HighlightMask,
    spec: RenderSpec | None = None,
    diagram_label: str = "elementary rule",
    pyramid_label: str = "difference pyramid",
) -> Iterator[str] | Iterator[bytes]:
    """:func:`render_compare`'s figure in parts, whose join is that figure.

    Every check runs before this returns. ascii and pbm are one part each;
    svg comes in parts as :func:`iter_eca` describes.
    """
    spec = spec or RenderSpec()
    _check_congruent(p, mask)
    if spec.format == "ascii":
        diagram, pyramid = render_eca(d, spec), render_ascii(p, mask, replace(spec, palette="mask"))
        return iter((f"== {diagram_label} ==\n{diagram}\n\n== {pyramid_label} ==\n{pyramid}",))
    if spec.format == "pgm":
        raise ValueError("compare artifacts support ascii, pbm or svg")
    shade = spec.format == "svg" and spec.palette == "grayscale"
    return _SERIALIZERS[spec.format]([_diagram_panel(d), (*p.packed, mask.packed[0], shade)], spec)
