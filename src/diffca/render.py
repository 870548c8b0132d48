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

import io
from dataclasses import dataclass, replace
from itertools import pairwise
from typing import Callable, Iterator

import numpy as np

from .eca import EcaDiagram
from .engine import CELL_DTYPE, MAX_CELL, Pyramid, TooLarge, as_integer
from .patterns import HighlightMask

__all__ = [
    "ALIGNMENTS",
    "FORMATS",
    "MAX_CANVAS_PIXELS",
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
# an 8192 x 8192 raster: 64 MiB as uint8, before its plain-text serialization
MAX_CANVAS_PIXELS = 8192 * 8192
_ASCII_BY_VALUE = 1 << 16  # ascii tokens are tabulated by value below this maximum
_SHADE_BLOCK = 1 << 17  # cells a block of shaded rows holds at most: 1 MB a temporary at uint64

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
        # the mask itself picks '.' or '#'
        width, index, matched = 1, matched.view(np.uint8), None
        tokens = np.frombuffer(f"{EMPTY_GLYPH} {FILLED_GLYPH} ".encode(), dtype="V2")
    else:
        # every token is padded to the longest: one glyph, or the largest printed value
        printed = True if matched is None else ~matched
        width = len(str(int(cells.max(initial=0, where=printed))))
        # tokens by value while the table stays small; past that, only the values present
        if (top := int(cells.max())) < _ASCII_BY_VALUE:
            index, tokens = cells, _tokens(np.arange(top + 1, dtype=CELL_DTYPE), width)
        else:
            keys, index = np.unique(cells, return_inverse=True)
            tokens = _tokens(keys, width)
    half = (width + 2) // 2  # half the cell pitch (token + one space), rounded up
    # a typed index: np.where widens narrow cells to hold it, where 255 + 1 would wrap in uint8
    filled = np.min_scalar_type(len(tokens) - 1).type(len(tokens) - 1)
    lines = []
    for t, (a, b) in enumerate(pairwise(starts.tolist())):
        row = index[a:b] if matched is None else np.where(matched[a:b], filled, index[a:b])
        indent = b" " * (t * half) if spec.alignment == "centered" else b""
        lines.append(indent + tokens.take(row).tobytes()[:-1])  # drop the last token's space
    text = b"\n".join(lines)
    del lines  # the text alone, not the lines too, while it decodes
    return text.decode("ascii")


def _tokens(keys: np.ndarray, width: int) -> np.ndarray:
    """Text tokens, one ``width + 1``-byte element for each key and one more.

    Token k is ``keys[k]`` right-justified in ``width`` bytes, then a space
    (a key of more digits keeps its last ``width`` ones); the extra last
    token is :data:`FILLED_GLYPH`'s.
    """
    tokens = np.full((keys.size + 1, width + 1), ord(" "), dtype=np.uint8)
    tokens[-1, width - 1] = ord(FILLED_GLYPH)
    rest = keys.astype(CELL_DTYPE)
    for col in range(width - 1, -1, -1):  # units first; a leading zero stays a space
        digits = (rest % 10).astype(np.uint8) + ord("0")
        tokens[:-1, col] = digits if col == width - 1 else np.where(rest > 0, digits, ord(" "))
        rest //= 10
    return tokens.view(f"V{width + 1}").ravel()


# -------------------------------------------------------------- layout

# A panel is packed like a Triangle, (cells, starts, ink, shade): row t is
# cells[starts[t]:starts[t + 1]], ink is a bool per cell or None.
Panel = tuple[np.ndarray, np.ndarray, np.ndarray | None, bool]


def _diagram_panel(d: EcaDiagram) -> Panel:
    cells = d.rows.ravel()
    return cells, np.arange(len(d) + 1) * d.width, cells.view(bool), False


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
        step = max(1, _SHADE_BLOCK // s[1])  # whole rows a block: none is longer than the first
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


def _layout(panels: list[Panel], spec: RenderSpec, paint: Callable[[Panel], np.ndarray]):
    """Stack the panels one blank cell row apart, each centered on the widest.

    Returns the canvas width and height in pixels and an iterator over the
    placed paints ``(y, xp, xr, paints)``: ``y`` is the top pixel row, ``xp``
    the panel's offset in the canvas and ``xr`` the row's offset in its
    panel, both in half pixels. A panel of equal rows (an elementary-CA
    diagram) is placed as one ``(rows, cells)`` block of paints; any other
    row by row, with 1-D paints. Rasters floor the two offsets one by one;
    SVG writes their sum exactly. A panel's paints, ``paint(panel)``, are
    made when the iterator reaches it, after the callers' size checks.
    """
    cp = spec.cell_px
    w = max(int(starts[1]) for _, starts, _, _ in panels) * cp
    h = (sum(starts.size for _, starts, _, _ in panels) - 1) * cp

    def placed() -> Iterator[tuple[int, int, int, np.ndarray]]:
        y = 0
        for panel in panels:
            paints, s = paint(panel), panel[1].tolist()
            rows, pw = len(s) - 1, s[1] * cp
            if s[-1] == rows * s[1]:  # no row is longer than the first, so all are equal
                yield y, w - pw, 0, paints.reshape(rows, s[1])
                y += rows * cp
            else:
                for a, b in pairwise(s):
                    xr = pw - (b - a) * cp if spec.alignment == "centered" else 0
                    yield y, w - pw, xr, paints[a:b]
                    y += cp
            y += cp

    return w, h, placed()


# -------------------------------------------------------- serializers


def _raster(
    panels: list[Panel], spec: RenderSpec, paint: Callable[[Panel], np.ndarray], blank: int
) -> tuple[int, int, Iterator[np.ndarray]]:
    """The layout as uint8 pixels of ``paint``'s bytes, ``blank`` where no cell lies.

    Returns the canvas width and height and an iterator over its bands, top
    to bottom: each band holds whole cell rows, about ``_PGM_BLOCK`` pixels,
    and is a view of one buffer that the next band overwrites.
    """
    cp = spec.cell_px
    w, h, placed = _layout(panels, spec, paint)
    TooLarge.check(w * h, MAX_CANVAS_PIXELS, f"pixels of a {w}x{h} canvas")
    step = max(1, _PGM_BLOCK // (w * cp)) * cp  # pixel rows a band; every placed row starts at a multiple of cp

    def bands() -> Iterator[np.ndarray]:
        band = np.full((min(step, h), w), blank, dtype=np.uint8)
        top = 0  # the band's first pixel row
        for y, xp, xr, paints in placed:
            x = xp // 2 + xr // 2
            while True:
                while y >= top + step:  # the band is done: hand it out, then clear it for the next
                    yield band
                    top += step
                    band.fill(blank)
                y0 = y - top
                if paints.ndim == 1:  # one row: a plain slice costs half the 4-D view below
                    band[y0 : y0 + cp, x : x + paints.size * cp] = paints if cp == 1 else np.repeat(paints, cp)
                    break
                # every cell a cp x cp square, written through a view of the block's pixels in this band
                r, c = paints.shape
                k = min(r, (step - y0) // cp)
                band[y0 : y0 + k * cp, x : x + c * cp].reshape(k, cp, c, cp)[...] = paints[:k].reshape(k, 1, c, 1)
                if k == r:
                    break
                y, paints = y + k * cp, paints[k:]
        while top < h:
            yield band[: h - top]
            top += step
            band.fill(blank)

    return w, h, bands()


def _pbm(panels: list[Panel], spec: RenderSpec) -> bytes:
    """Plain portable bitmap of the panels' ink bits: 1 (black) where inked, else 0.

    Pixel rows are cut into lines of at most ``_PNM_LINE`` digits. Each band of
    the raster is written straight into the document, its bits turned into
    digits as they are copied in, next to the newlines; the document is one
    buffer of its known size, which becomes the returned bytes without a copy.
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
    return doc.getvalue()


# A gray's plain-PGM slot: a separator, its 1 to 3 digits and NUL padding, as
# one uint32; _PGM_WIDTH counts the bytes of a slot that are written.
_PGM_SLOTS = np.frombuffer(b"".join(f" {g}".encode().ljust(4, b"\0") for g in range(256)), dtype=np.uint32)
_PGM_WIDTH = np.array([len(f" {g}") for g in range(256)], dtype=np.uint8)
# pixels a raster band of whole cell rows, or a PGM block of whole pixel rows (or one
# row): its temporaries stay near 0.5 MB each, and a row of the canvas budget at 4 bytes
# a pixel keeps its offsets within int32
_PGM_BLOCK = 1 << 17
# an SVG fill per gray level, in paint order, then the highlight's, so a paint of INK takes the last
_SVG_FILLS = (*(f"#{g:02x}{g:02x}{g:02x}" for g in range(256)), "#1a1a1a")


def _pgm(panels: list[Panel], spec: RenderSpec) -> bytes:
    """Plain portable graymap with maxval 255.

    Each pixel row is filled greedily: a line takes tokens while it stays
    within ``_PNM_LINE`` bytes. The pixel rows are written in blocks of
    about ``_PGM_BLOCK`` pixels, each by table lookups alone.
    """
    w, h, bands = _raster(panels, spec, lambda panel: _paints(panel, 0), BLANK)
    step = max(1, _PGM_BLOCK // w)  # a band of huge cells is more than one block
    parts = [f"P2\n{w} {h}\n255".encode("ascii")]
    for band in bands:
        parts += [_pgm_lines(band[y : y + step].ravel(), w) for y in range(0, len(band), step)]
    parts.append(b"\n")
    return b"".join(parts)


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


def _svg(panels: list[Panel], spec: RenderSpec) -> str:
    """SVG 1.1 document with one square per cell, row-major, exact coordinates.

    A rect is three table lookups: a head by its x, its row's middle and a
    tail by its paint. A row of rects is one join over the three, interleaved.
    """
    cp = spec.cell_px
    w, h, rows = _layout(panels, spec, lambda panel: _paints(panel, INK))
    edge = f' stroke="{GRID_COLOR}" stroke-width="1"' if cp >= 6 else ""
    # no rect is longer than one at the canvas corner (every fill is #rrggbb);
    # the budget is the largest plain PGM the raster budget allows, "255 " a pixel
    rect = f'<rect x="{w}.5" y="{h}" width="{cp}" height="{cp}" fill="#rrggbb"{edge}/>\n'
    TooLarge.check(sum(c.size for c, *_ in panels) * len(rect), 4 * MAX_CANVAS_PIXELS, "SVG bytes")
    # every x in half pixels is j * cp, and a row's rects step j by 2: heads[j] is the head at j
    heads = np.array([f'<rect x="{x // 2}{".5" if x % 2 else ""}" y="' for x in range(0, 2 * w + 1, cp)], dtype=object)
    tails = np.array([f'" fill="{fill}"{edge}/>\n' for fill in _SVG_FILLS], dtype=object)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}" '
        'shape-rendering="crispEdges">\n'
    ]
    rects = np.empty(3 * (w // cp), dtype=object)  # the widest row's heads, middles and tails
    for y, xp, xr, block in rows:
        j = (xp + xr) // cp
        for paints in block if block.ndim == 2 else (block,):
            row = rects[: 3 * paints.size]
            row[0::3] = heads[j : j + 2 * paints.size : 2]
            row[1::3] = f'{y}" width="{cp}" height="{cp}'
            row[2::3] = tails[paints]
            parts.append("".join(row.tolist()))  # one string a row, not a rect: half the peak memory
            y += cp
    del heads, rects  # before the document is joined: its parts and itself are the peak
    parts.append("</svg>")
    return "".join(parts)


_SERIALIZERS = {"pbm": _pbm, "pgm": _pgm, "svg": _svg}


def render_pbm(mask: HighlightMask, spec: RenderSpec | None = None) -> bytes:
    """Plain portable bitmap of a highlight mask; matched cells are black.

    Each cell becomes a ``cell_px`` square; row t occupies the t-th band,
    centered (or flush left). Output is bit-exact for identical inputs.
    """
    return _pbm([(*mask.packed, mask.packed[0], False)], spec or RenderSpec())


def render_pgm(p: Pyramid, spec: RenderSpec | None = None) -> bytes:
    """Plain portable graymap of an unmasked pyramid, shaded by value."""
    return _pgm([(*p.packed, None, True)], spec or RenderSpec())


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
    spec = spec or RenderSpec()
    _check_congruent(p, mask)
    shade = spec.palette == "grayscale" or (mask is None and spec.palette == "values")
    return _svg([(*p.packed, None if mask is None else mask.packed[0], shade)], spec)


# ----------------------------------------------------------------- eca


def render_eca(d: EcaDiagram, spec: RenderSpec | None = None) -> str | bytes:
    """Rectangular rendering of an elementary-CA diagram; 1 is ink.

    Dispatches on ``spec.format``: ascii ('#' and '.'), pbm, pgm or svg.
    """
    spec = spec or RenderSpec()
    if spec.format == "ascii":
        # one glyph per cell and a newline after each row, the last one dropped
        text = np.full((len(d), d.width + 1), ord("\n"), dtype=np.uint8)
        glyphs = np.frombuffer((EMPTY_GLYPH + FILLED_GLYPH).encode(), np.uint8)
        np.take(glyphs, d.rows, out=text[:, :-1], mode="clip")  # cells are 0 or 1: no bounds check needed
        return text.tobytes()[:-1].decode("ascii")
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
        diagram, pyramid = render_eca(d, spec), render_ascii(p, mask, replace(spec, palette="mask"))
        return f"== {diagram_label} ==\n{diagram}\n\n== {pyramid_label} ==\n{pyramid}"
    if spec.format == "pgm":
        raise ValueError("compare artifacts support ascii, pbm or svg")
    shade = spec.format == "svg" and spec.palette == "grayscale"
    return _SERIALIZERS[spec.format]([_diagram_panel(d), (*p.packed, mask.packed[0], shade)], spec)
