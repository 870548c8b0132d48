"""Command-line front end.

Subcommands:

* ``run``       evolve a difference pyramid and render it
* ``eca``       evolve an elementary (Wolfram) rule and render it
* ``compare``   both renderings side by side, plus agreement ratios
                when the input is a single-impulse row
* ``selfcheck`` re-derive the built-in reference results
* ``fixtures``  list the built-in inputs

Exit status: 0 on success, 1 for parse/value/IO failures (diagnostic on
stderr names the failing component), 2 for invalid flag combinations.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

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
from .engine import MAX_PYRAMID_CELLS, RowTooShort, TooLarge, evolve, make_symmetric
from .expressions import ExpressionError, parse_expression, serialize_expression
from .fixtures import DEFAULT_EVOLUTION, FIXTURE_IDS, UnknownFixture, load_fixture
from .patterns import highlight_pyramid
from .render import ALIGNMENTS, FORMATS, PALETTES, RenderSpec, render_compare, render_eca, render_pyramid

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


def _render_spec(args: argparse.Namespace) -> RenderSpec:
    return RenderSpec(
        format=args.format,
        cell_px=args.cell_px if args.cell_px is not None else _DEFAULT_CELL_PX[args.format],
        alignment=getattr(args, "align", "centered"),
        palette=getattr(args, "palette", "values"),
    )


def _emit(artifact: str | bytes, out: str | None) -> None:
    if out is not None:
        with open(out, "wb") as f:  # text and its newline written apart: no second copy of the text
            f.writelines([artifact] if isinstance(artifact, bytes) else [artifact.encode("utf-8"), b"\n"])
    elif isinstance(artifact, bytes):
        sys.stdout.buffer.write(artifact)
        sys.stdout.buffer.flush()
    else:
        print(artifact)


def _usage_error(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return 2


def _cmd_run(args: argparse.Namespace) -> int:
    if args.format == "pbm" and not args.pattern:
        return _usage_error("--format pbm needs --pattern")
    if args.format == "pgm" and args.pattern:
        return _usage_error("--format pgm renders values, not matches; drop --pattern")
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
    _emit(render_pyramid(pyramid, mask, _render_spec(args)), args.out)
    return 0


def _cmd_eca(args: argparse.Namespace) -> int:
    rule = rule_table(args.rule)
    if args.generations < 0:
        raise ValueError("generations is non-negative")
    row = None
    if args.initial is not None:
        if args.width is not None:
            return _usage_error("--initial already fixes the width; drop --width")
        row = parse_expression(args.initial)
        width = row.size
    else:
        width = args.width if args.width is not None else 2 * args.generations + 1
    # checked before the row exists: the default impulse row alone is 2T+1 cells
    TooLarge.check((args.generations + 1) * width, MAX_PYRAMID_CELLS, "diagram cells")
    initial = impulse_row(width) if row is None else row
    diagram = eca_evolve(initial, rule, args.generations, boundary=args.boundary)
    _emit(render_eca(diagram, _render_spec(args)), args.out)
    return 0


def _is_impulse(row: np.ndarray) -> int | None:
    """Index of the single nonzero cell, when there is exactly one and it is 1."""
    hot = np.flatnonzero(row)
    return int(hot[0]) if hot.size == 1 and row[hot[0]] == 1 else None


def _cmd_compare(args: argparse.Namespace) -> int:
    row = load_fixture(args.fixture)
    rule = rule_table(args.rule)
    pyramid = evolve(row)
    mask = highlight_pyramid(pyramid, parse_expression(args.pattern))
    initial = row if row.max() <= 1 else impulse_row(row.size)
    diagram = eca_evolve(initial, rule, row.size - 1, boundary=args.boundary)
    diagram_label = f"rule {rule.number}, {args.boundary} boundary"
    pyramid_label = f"difference pyramid: {args.fixture}, pattern {args.pattern}"
    _emit(render_compare(diagram, pyramid, mask, _render_spec(args), diagram_label, pyramid_label), args.out)
    if (j0 := _is_impulse(row)) is not None:
        direct, complement = impulse_agreement(mask, j0)
        print(f"in-cone agreement vs binomial parity: {direct:.6f}")
        print(f"in-cone complement agreement: {complement:.6f}")
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
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
    for name, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    failures = sum(not ok for ok in checks.values())
    print("all checks passed" if failures == 0 else f"{failures} check(s) failed")
    return 0 if failures == 0 else 1


def _cmd_fixtures(args: argparse.Namespace) -> int:
    for fid in FIXTURE_IDS:
        row = load_fixture(fid)
        print(f"{fid:<10} {row.size:>4} cells  {serialize_expression(row)}")
    return 0


_COMPONENTS: tuple[tuple[type[Exception], str], ...] = (
    (ExpressionError, "expression"),
    (UnknownFixture, "fixture"),
    (OutOfRange, "rule"),
    (NonBinaryCell, "initial row"),
    (RowTooShort, "input row"),
    (TooLarge, "size"),
    (OSError, "io"),
    (ValueError, "input"),
)


# One parser serves every main call in a process, built on the first call
# rather than at import. Reuse is safe: parse_args makes a new Namespace on
# every call, and no action in the tree has a mutable default to leak into it.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except tuple(exc for exc, _ in _COMPONENTS) as err:
        component = next(name for exc, name in _COMPONENTS if isinstance(err, exc))
        print(f"error: {component}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
