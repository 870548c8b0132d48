"""Command-line front end.

Subcommands:

* ``run``       evolve a difference pyramid and render it
* ``eca``       evolve an elementary (Wolfram) rule and render it
* ``compare``   both renderings side by side, plus agreement ratios
                when the input is a single-impulse row
* ``selfcheck`` re-derive the built-in reference results
* ``fixtures``  list the built-in inputs

Each ``_cmd_*`` handler returns ``(parts, lines)`` and writes nothing: the
figure as the parts a renderer's ``iter_*`` hands out, after every check
of it has run, then its stdout lines. ``main`` alone writes stdout, stderr
and ``--out`` and sets the exit status: 0 on success, 1 for parse/value/IO
failures and a failing ``selfcheck`` (one stderr line names the failing
component), 2 for invalid flag combinations. A figure is written part by
part as it is made, never held whole; on stdout every byte of it is
written, or the run fails with ``error: io: …``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from .eca import (
    BOUNDARIES,
    NonBinaryCell,
    OutOfRange,
    eca_evolve,
    impulse_agreement,
    impulse_row,
    rule_table,
)
from .engine import MAX_PYRAMID_CELLS, TooLarge, evolve, make_symmetric
from .expressions import ExpressionError, parse_expression, serialize_expression
from .fixtures import DEFAULT_EVOLUTION, FIXTURE_IDS, UnknownFixture, load_fixture
from .patterns import highlight_pyramid
from .render import ALIGNMENTS, FORMATS, PALETTES, RenderSpec, iter_compare, iter_eca, iter_pyramid

__all__ = ["build_parser", "main"]


def _add_render_flags(sub: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    sub.add_argument("--format", choices=formats, default="ascii")
    sub.add_argument("--out", metavar="PATH", help="write the artifact here instead of stdout")
    sub.add_argument("--cell-px", type=int, default=None, metavar="N",
                     help="square size per cell in raster/svg output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffca",
        description="difference pyramids, elementary rules, and their renderings",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="evolve a difference pyramid")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="EXPR", help="dash expression, e.g. 2-0-1-4")
    source.add_argument("--file", metavar="PATH", help="read the dash expression from a file")
    source.add_argument("--fixture", metavar="ID", help="use a built-in input row")
    run.add_argument("--pattern", metavar="EXPR", help="highlight occurrences of this row")
    run.add_argument("--symmetric", action="store_true",
                     help="mirror the input into a palindrome before evolving")
    run.add_argument("--max-generations", type=int, default=None, metavar="N")
    run.add_argument("--align", choices=ALIGNMENTS, default="centered")
    run.add_argument("--palette", choices=PALETTES, default="values")
    _add_render_flags(run, FORMATS)
    run.set_defaults(handler=_cmd_run)

    eca = commands.add_parser("eca", help="evolve an elementary rule")
    eca.add_argument("--rule", type=int, required=True, metavar="N")
    eca.add_argument("--generations", type=int, required=True, metavar="T")
    eca.add_argument("--width", type=int, default=None, metavar="W",
                     help="row width; default 2T+1 with the impulse centered")
    eca.add_argument("--initial", metavar="EXPR",
                     help="binary dash expression for generation 0")
    eca.add_argument("--boundary", choices=BOUNDARIES, default="zero")
    _add_render_flags(eca, FORMATS)
    eca.set_defaults(handler=_cmd_eca)

    compare = commands.add_parser("compare", help="rule diagram above pyramid mask")
    compare.add_argument("--fixture", required=True, metavar="ID")
    compare.add_argument("--pattern", required=True, metavar="EXPR")
    compare.add_argument("--rule", type=int, required=True, metavar="N")
    compare.add_argument("--boundary", choices=BOUNDARIES, default="zero")
    _add_render_flags(compare, ("ascii", "pbm", "svg"))
    compare.set_defaults(handler=_cmd_compare)

    selfcheck = commands.add_parser("selfcheck", help="re-derive built-in reference results")
    selfcheck.set_defaults(handler=_cmd_selfcheck)
    commands.add_parser("fixtures", help="list built-in inputs").set_defaults(handler=_cmd_fixtures)
    return parser


_DEFAULT_CELL_PX = {"ascii": 1, "pbm": 1, "pgm": 1, "svg": 12}
# the figure's parts for --out or stdout, then stdout lines
_Output = tuple[Iterator[str] | Iterator[bytes] | None, list[str]]
# characters of text parts encoded and written at once: a small figure is one write, then its newline
_TEXT_GROUP = 1 << 18


def _render_spec(args: argparse.Namespace) -> RenderSpec:
    return RenderSpec(
        format=args.format,
        cell_px=args.cell_px if args.cell_px is not None else _DEFAULT_CELL_PX[args.format],
        alignment=getattr(args, "align", "centered"),
        palette=getattr(args, "palette", "values"),
    )


class _UsageError(Exception):
    """An invalid flag combination."""


class _SelfcheckFailed(Exception):
    """A built-in reference result no longer re-derives."""


def _cmd_run(args: argparse.Namespace) -> _Output:
    if args.format == "pbm" and not args.pattern:
        raise _UsageError("--format pbm needs --pattern")
    if args.format == "pgm" and args.pattern:
        raise _UsageError("--format pgm renders values, not matches; drop --pattern")
    if args.input is not None:
        row = parse_expression(args.input)
    elif args.file is not None:
        row = parse_expression(Path(args.file).read_text(encoding="utf-8"))
    else:
        row = load_fixture(args.fixture)
    if args.symmetric:
        row = make_symmetric(row)
    pyramid = evolve(row, max_generations=args.max_generations)
    mask = highlight_pyramid(pyramid, parse_expression(args.pattern)) if args.pattern else None
    return iter_pyramid(pyramid, mask, _render_spec(args)), []


def _cmd_eca(args: argparse.Namespace) -> _Output:
    rule = rule_table(args.rule)
    if args.generations < 0:
        raise ValueError("generations is non-negative")
    row = None
    if args.initial is not None:
        if args.width is not None:
            raise _UsageError("--initial already fixes the width; drop --width")
        row = parse_expression(args.initial)
        width = row.size
    else:
        width = args.width if args.width is not None else 2 * args.generations + 1
    # checked before the row exists: the default impulse row alone is 2T+1 cells
    TooLarge.check((args.generations + 1) * width, MAX_PYRAMID_CELLS, "diagram cells")
    initial = impulse_row(width) if row is None else row
    diagram = eca_evolve(initial, rule, args.generations, boundary=args.boundary)
    return iter_eca(diagram, _render_spec(args)), []


def _is_impulse(row: np.ndarray) -> int | None:
    """Index of the single nonzero cell, when there is exactly one and it is 1."""
    hot = np.flatnonzero(row)
    return int(hot[0]) if hot.size == 1 and row[hot[0]] == 1 else None


def _cmd_compare(args: argparse.Namespace) -> _Output:
    row = load_fixture(args.fixture)
    rule = rule_table(args.rule)
    pyramid = evolve(row)
    mask = highlight_pyramid(pyramid, parse_expression(args.pattern))
    initial = row if row.max() <= 1 else impulse_row(row.size)
    diagram = eca_evolve(initial, rule, row.size - 1, boundary=args.boundary)
    diagram_label = f"rule {rule.number}, {args.boundary} boundary"
    pyramid_label = f"difference pyramid: {args.fixture}, pattern {args.pattern}"
    lines = []
    if (j0 := _is_impulse(row)) is not None:
        direct, complement = impulse_agreement(mask, j0)
        lines = [f"in-cone agreement vs binomial parity: {direct:.6f}",
                 f"in-cone complement agreement: {complement:.6f}"]
    return iter_compare(diagram, pyramid, mask, _render_spec(args), diagram_label, pyramid_label), lines


def _cmd_selfcheck(args: argparse.Namespace) -> _Output:
    a1 = load_fixture("a1")
    j0, pyramid = _is_impulse(a1), evolve(a1)
    ones = highlight_pyramid(pyramid, parse_expression("1-"))
    zeros = highlight_pyramid(pyramid, parse_expression("0-"))
    checks = {
        "default-p evolution matches the stored reference triangle":
            evolve(load_fixture("default-p")).to_lists() == [list(row) for row in DEFAULT_EVOLUTION],
        "make_symmetric(p1) reproduces p1-new":
            np.array_equal(make_symmetric(load_fixture("p1")), load_fixture("p1-new")),
        "a1 ones-mask equals binomial parity in the cone": impulse_agreement(ones, j0)[0] == 1.0,
        "a1 zeros-mask equals its in-cone complement": impulse_agreement(zeros, j0)[1] == 1.0,
        "fixture expressions survive a parse round trip":
            all(np.array_equal(parse_expression(serialize_expression(load_fixture(f))), load_fixture(f))
                for f in FIXTURE_IDS),
    }
    if failed := [name for name, ok in checks.items() if not ok]:
        raise _SelfcheckFailed(f"{len(failed)} check(s) failed: {'; '.join(failed)}")
    return None, [*(f"ok   {name}" for name in checks), "all checks passed"]


def _cmd_fixtures(args: argparse.Namespace) -> _Output:
    rows = {fid: load_fixture(fid) for fid in FIXTURE_IDS}
    return None, [f"{fid:<10} {row.size:>4} cells  {serialize_expression(row)}" for fid, row in rows.items()]


_COMPONENTS: tuple[tuple[type[Exception], str], ...] = (
    (_UsageError, "usage error"),
    (_SelfcheckFailed, "error: selfcheck"),
    (ExpressionError, "error: expression"),
    (UnknownFixture, "error: fixture"),
    (OutOfRange, "error: rule"),
    (NonBinaryCell, "error: initial row"),
    (TooLarge, "error: size"),
    (OSError, "error: io"),
    (ValueError, "error: input"),
)


# One parser serves every main call in a process, built on the first call
# rather than at import. Reuse is safe: parse_args makes a new Namespace on
# every call, and no action in the tree has a mutable default to leak into it.
_parser = functools.cache(build_parser)


def _chunks(parts: Iterator[str] | Iterator[bytes]) -> Iterator[bytes]:
    """A figure's bytes, in order.

    bytes parts come as they are; text parts are encoded in groups of at
    least ``_TEXT_GROUP`` characters, and a text figure ends with a newline,
    a chunk of its own: joined to the last group it would copy a one-part figure.
    """
    group, size, text = [], 0, False
    for part in parts:
        if isinstance(part, bytes):
            yield part
            continue
        group.append(part)
        size += len(part)
        text = True
        if size >= _TEXT_GROUP:
            yield "".join(group).encode("utf-8")
            group, size = [], 0
    if group:
        yield "".join(group).encode("utf-8")
    if text:
        yield b"\n"


def _write(stream: BinaryIO, parts: Iterator[str] | Iterator[bytes]) -> None:
    for chunk in _chunks(parts):
        view = memoryview(chunk)
        while view:  # unbuffered, stdout is raw: one write may take only part of a chunk
            view = view[stream.write(view) :]


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        parts, lines = args.handler(args)
        if getattr(args, "out", None) is not None:  # selfcheck and fixtures have no --out
            with open(args.out, "wb") as f:  # opened only now: every check of the figure has passed
                _write(f, parts)
        elif parts is not None:
            sys.stdout.flush()  # whatever the caller printed comes first
            stdout = getattr(sys.stdout, "buffer", None)
            if stdout is None:  # a text-only stream, such as io.StringIO: every figure is ASCII
                sys.stdout.writelines(chunk.decode("ascii") for chunk in _chunks(parts))
            else:
                _write(stdout, parts)
                stdout.flush()
        for line in lines:
            print(line)
    except tuple(exc for exc, _ in _COMPONENTS) as err:
        prefix = next(name for exc, name in _COMPONENTS if isinstance(err, exc))
        print(f"{prefix}: {err}", file=sys.stderr)
        return 2 if isinstance(err, _UsageError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
