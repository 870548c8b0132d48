"""Seeded workloads: input generators, the timed calls and their oracles.

A run measures one deck of operations, made once from the seed and run
over and over in passes (see ``run.py``). Every seed gives a deck of the
same shape: the same widths, spread evenly over the workload's range, with
the same formats, flags, pattern kinds and value kinds. The seed draws the
cell values, the patterns, the impulse offsets within their strata and the
order. Runs with different seeds therefore do the same amount of work on
different data, and the spread between them comes from the program and the
machine rather than from the draw.

A workload has five parts:

* ``deck(seed)`` makes the inputs; the same seed gives the same cases.
* ``prepare(case, workdir, slot)`` writes what a case needs to disk.
* ``run(case)`` makes the program calls of one operation; only this is
  timed.
* ``check(case, out)`` re-derives the result without the package and
  returns a list of problems (empty when correct).
* ``digest(h, case, out)`` feeds the operation's outputs to a hash.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from diffca import cli, eca, engine, expressions, patterns, render

MAX_U64 = 2**64 - 1


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def spread(lo: int, hi: int, strata: int, k: int, lane: int = 0, lanes: int = 1) -> int:
    """Width of stratum ``k`` of ``strata`` equal strata of [lo, hi).

    ``lanes`` interleaved series (formats, value kinds) share the strata,
    each at its own fixed point inside every stratum.
    """
    return lo + int((k + (lane + 0.5) / lanes) * (hi - lo) / strata)


# ------------------------------------------------------------- oracles
# These use numpy or plain Python only, never diffca.


def diff_rows(row) -> list[np.ndarray]:
    """Every row of the absolute-difference pyramid of ``row``."""
    r = np.asarray(row, dtype=np.uint64)
    rows = [r]
    while r.size > 1:
        a, b = r[:-1], r[1:]
        r = np.maximum(a, b) - np.minimum(a, b)
        rows.append(r)
    return rows


def xor_rows(bits: np.ndarray):
    """Rows of the XOR pyramid of a 0/1 row, one at a time."""
    b = np.asarray(bits, dtype=np.uint8)
    while True:
        yield b
        if b.size == 1:
            return
        b = b[:-1] ^ b[1:]


def coverage(row: np.ndarray, pattern: tuple[int, ...]) -> np.ndarray:
    """Cells covered by an occurrence of ``pattern``, via a cumulative sum of starts."""
    n, k = row.size, len(pattern)
    if k > n:
        return np.zeros(n, dtype=bool)
    starts = np.ones(n - k + 1, dtype=bool)
    for j, v in enumerate(pattern):
        starts &= row[j : n - k + 1 + j] == v
    delta = np.zeros(n + 1, dtype=np.int64)
    delta[: n - k + 1] += starts
    delta[k : n + 1] -= starts
    return np.cumsum(delta[:n]) > 0


def rule90_rows(initial: np.ndarray, generations: int) -> np.ndarray:
    """Rule 90 (left XOR right) with zero cells beyond both edges."""
    rows = np.zeros((generations + 1, initial.size), dtype=np.uint8)
    rows[0] = initial
    for t in range(generations):
        prev = rows[t]
        rows[t + 1, 1:] ^= prev[:-1]
        rows[t + 1, :-1] ^= prev[1:]
    return rows


def parse_pnm_header(data: bytes, magic: bytes, fields: int) -> tuple[list[int], bytes]:
    """Numbers after the magic line of a plain PNM file, and the body after them."""
    tokens = data.split(None, fields + 1)
    if len(tokens) < fields + 1 or tokens[0] != magic:
        raise ValueError(f"not a plain {magic.decode()} file")
    body = tokens[fields + 1] if len(tokens) > fields + 1 else b""
    return [int(t) for t in tokens[1 : fields + 1]], body


# ------------------------------------------------------- figure-digits

FIGURE_FORMATS = ("ascii", "pbm", "pgm", "svg")
FIGURE_PALETTES = ("values", "mask", "grayscale")
FIGURE_ALIGNS = ("centered", "left")
# pattern kind of stratum k of each format, taken as KINDS[fmt][k % 4]
FIGURE_KINDS = {
    "ascii": ("multi", "multi", "multi", None),
    "pbm": ("multi", "multi", "multi", "single"),
    "pgm": (None, None, None, None),
    "svg": ("multi", "multi", "multi", "single"),
}
SVG_CELL_PX = 12  # the CLI's default for svg


@dataclass
class FigureCase:
    width: int  # cells in the evolved row (after --symmetric)
    digits: list[int]  # the row written to the input file
    fmt: str
    palette: str
    align: str
    symmetric: bool
    pattern: tuple[int, ...] | None
    argv: list[str] = field(default_factory=list)

    def props(self) -> dict:
        return {
            "width": self.width,
            "values": (min(self.digits), max(self.digits)),
            "mix": f"{self.fmt}/{self.palette}/{self.align}"
            + ("/symmetric" if self.symmetric else ""),
            "pattern": None if self.pattern is None else
            ("multi" if len(self.pattern) > 1 else "single"),
        }


class FigureDigits:
    name = "figure-digits"
    lo, hi = 200, 401
    strata = 8  # widths per format; the deck holds strata * len(FIGURE_FORMATS) cases

    def deck(self, seed: int) -> list[FigureCase]:
        rng = _rng(self.name, seed)
        cases = []
        for k in range(self.strata):
            for lane, fmt in enumerate(FIGURE_FORMATS):
                # even, so that a --symmetric row has the same width
                width = spread(self.lo, self.hi, self.strata, k, lane, len(FIGURE_FORMATS)) & ~1
                symmetric = k % 4 == 1
                digits = [rng.randrange(10) for _ in range(width // 2 if symmetric else width)]
                kind = FIGURE_KINDS[fmt][k % 4]
                if kind == "multi":
                    pattern = tuple(rng.randrange(6) for _ in range(3 if k % 3 == 2 else 2))
                elif kind == "single":
                    pattern = (rng.randrange(10),)
                else:
                    pattern = None
                cases.append(FigureCase(
                    width=width,
                    digits=digits,
                    fmt=fmt,
                    # flags by stratum, not by seed: the grayscale palette
                    # makes an svg figure of the same width 1.7x as slow, so
                    # a seeded palette moved the latency tail between seeds
                    palette=FIGURE_PALETTES[k % 3],
                    align=FIGURE_ALIGNS[k // 2 % 2],
                    symmetric=symmetric,
                    pattern=pattern,
                ))
        rng.shuffle(cases)
        return cases

    def prepare(self, case: FigureCase, workdir: Path, slot: int) -> None:
        source = workdir / f"row-{slot}.txt"
        source.write_text("-".join(map(str, case.digits)) + "\n", encoding="utf-8")
        case.argv = [
            "run", "--file", str(source), "--out", str(workdir / f"out-{slot}.{case.fmt}"),
            "--format", case.fmt, "--palette", case.palette, "--align", case.align,
        ]
        if case.symmetric:
            case.argv.append("--symmetric")
        if case.pattern is not None:
            case.argv += ["--pattern", "-".join(map(str, case.pattern)) + "-"]

    def run(self, case: FigureCase) -> int:
        return cli.main(case.argv)

    @staticmethod
    def _artifact(case: FigureCase) -> bytes:
        return Path(case.argv[case.argv.index("--out") + 1]).read_bytes()

    def check(self, case: FigureCase, status: int) -> list[str]:
        if status != 0:
            return [f"cli exit status {status}"]
        data = self._artifact(case)
        row = case.digits + case.digits[::-1] if case.symmetric else case.digits
        n = len(row)
        hits = None
        if case.pattern is not None:
            hits = sum(int(coverage(r, case.pattern).sum()) for r in diff_rows(row))
        problems = []
        if case.fmt == "ascii":
            text = data.decode("ascii")
            if not text.endswith("\n") or text.count("\n") != n:
                problems.append(f"ascii has {text.count(chr(10))} lines, expected {n}")
            if hits is not None and text.count("#") != hits:
                problems.append(f"ascii marks {text.count('#')} cells, expected {hits}")
        elif case.fmt == "pbm":
            (w, h), body = parse_pnm_header(data, b"P1", 2)
            bits = body.replace(b"\n", b"")
            if (w, h) != (n, n) or len(bits) != w * h:
                problems.append(f"pbm is {w}x{h} with {len(bits)} bits, expected {n}x{n}")
            if bits.count(b"1") != hits:
                problems.append(f"pbm has {bits.count(b'1')} ink pixels, expected {hits}")
        elif case.fmt == "pgm":
            (w, h, maxval), body = parse_pnm_header(data, b"P2", 3)
            if (w, h, maxval) != (n, n, 255) or len(body.split()) != w * h:
                problems.append(f"pgm is {w}x{h}/{maxval}, expected {n}x{n}/255")
        else:
            side = n * SVG_CELL_PX
            if f'width="{side}" height="{side}"'.encode() not in data[:300]:
                problems.append(f"svg header does not give {side}x{side}")
            rects = data.count(b"<rect")
            if rects != n * (n + 1) // 2:
                problems.append(f"svg has {rects} rects, expected {n * (n + 1) // 2}")
        return problems

    def cells(self, case: FigureCase) -> int:
        return case.width * (case.width + 1) // 2

    def digest(self, h, case: FigureCase, status: int) -> None:
        """Hash the status and the artifact, and remove the artifact, so that
        a later pass cannot match on a file an earlier pass wrote."""
        h.update(str(status).encode())
        h.update(self._artifact(case))
        Path(case.argv[case.argv.index("--out") + 1]).unlink()


# ----------------------------------------------------- impulse-compare


@dataclass
class ImpulseCase:
    width: int
    offset: int  # index of the lone 1
    row: np.ndarray = field(repr=False)

    def props(self) -> dict:
        return {"width": self.width, "values": (0, 1), "mix": "compare/pbm/rule90",
                "pattern": "single"}


class ImpulseCompare:
    name = "impulse-compare"
    lo, hi = 301, 1502
    # cases in the deck; an odd number, so that the median operation is one
    # case rather than the gap between two widths
    strata = 9
    rule = 90
    parity_rows = 8  # in-cone rule-90 rows checked against math.comb per operation

    def deck(self, seed: int) -> list[ImpulseCase]:
        rng = _rng(self.name, seed)
        cases = []
        for k in range(self.strata):
            width = spread(self.lo, self.hi, self.strata, k) | 1
            # the offsets are strata of 10%..90% of the width too, dealt to the
            # widths in a fixed order; the seed moves each within its stratum
            place = 4 * k % self.strata + rng.uniform(0.25, 0.75)
            offset = int(width * (0.1 + 0.8 * place / self.strata))
            row = np.zeros(width, dtype=np.uint64)
            row[offset] = 1
            cases.append(ImpulseCase(width, offset, row))
        rng.shuffle(cases)
        return cases

    def prepare(self, case: ImpulseCase, workdir: Path, slot: int) -> None:
        pass

    def run(self, case: ImpulseCase) -> dict:
        pyramid = engine.evolve(case.row)
        ones = patterns.highlight_pyramid(pyramid, expressions.parse_expression("1-"))
        zeros = patterns.highlight_pyramid(pyramid, expressions.parse_expression("0-"))
        rule = eca.rule_table(self.rule)
        diagram = eca.eca_evolve(case.row, rule, case.width - 1, boundary="zero")
        agree_ones = eca.impulse_agreement(ones, case.offset)
        agree_zeros = eca.impulse_agreement(zeros, case.offset)
        artifact = render.render_compare(
            diagram, pyramid, ones, render.RenderSpec(format="pbm"),
            diagram_label=f"rule {rule.number}, zero boundary",
            pyramid_label="difference pyramid, pattern 1-",
        )
        return {"pyramid": pyramid, "ones": ones, "zeros": zeros, "diagram": diagram,
                "agree_ones": agree_ones, "agree_zeros": agree_zeros, "artifact": artifact}

    def check(self, case: ImpulseCase, out: dict) -> list[str]:
        problems = []
        n, j0 = case.width, case.offset
        if out["agree_ones"][0] != 1.0:
            problems.append(f"1- mask agrees with binomial parity on {out['agree_ones'][0]!r}")
        if out["agree_zeros"][1] != 1.0:
            problems.append(f"0- mask agrees with the complement on {out['agree_zeros'][1]!r}")
        pyramid_ink = 0
        rows = list(out["pyramid"])
        ones, zeros = list(out["ones"]), list(out["zeros"])
        if not len(rows) == len(ones) == len(zeros) == n:
            return problems + [f"pyramid/masks have {len(rows)}/{len(ones)}/{len(zeros)} rows"]
        for t, bits in enumerate(xor_rows(case.row.astype(np.uint8))):
            expect = bits.astype(bool)
            pyramid_ink += int(expect.sum())
            if not np.array_equal(rows[t], bits):
                problems.append(f"pyramid row {t} differs from the XOR pyramid")
            if not (np.array_equal(ones[t], expect) and np.array_equal(zeros[t], ~expect)):
                problems.append(f"mask row {t} differs from the XOR pyramid")
            if problems:
                break
        expect_diagram = rule90_rows(case.row.astype(np.uint8), n - 1)
        diagram = np.asarray(out["diagram"].rows)
        if not np.array_equal(diagram, expect_diagram):
            problems.append("rule-90 diagram differs from the XOR recurrence")
        # before the cone reaches an edge, row t holds C(t, k) mod 2 at j0 - t + 2k
        reach = min(j0, n - 1 - j0)
        rng = random.Random(f"{n}:{j0}")
        for t in sorted({0, reach} | {rng.randrange(reach + 1) for _ in range(self.parity_rows)}):
            expect = np.zeros(n, dtype=np.uint8)
            expect[j0 - t : j0 + t + 1 : 2] = [math.comb(t, k) % 2 for k in range(t + 1)]
            if not np.array_equal(diagram[t], expect):
                problems.append(f"rule-90 row {t} differs from math.comb parity")
                break
        try:
            (w, h), body = parse_pnm_header(out["artifact"], b"P1", 2)
        except ValueError as err:
            return problems + [f"compare pbm: {err}"]
        bits = body.replace(b"\n", b"")
        if (w, h) != (n, 2 * n + 1) or len(bits) != w * h:
            problems.append(f"compare pbm is {w}x{h}, expected {n}x{2 * n + 1}")
        ink = int(expect_diagram.sum()) + pyramid_ink
        if bits.count(b"1") != ink:
            problems.append(f"compare pbm has {bits.count(b'1')} ink pixels, expected {ink}")
        return problems

    def cells(self, case: ImpulseCase) -> int:
        n = case.width
        return n * (n + 1) // 2 + n * n

    def digest(self, h, case: ImpulseCase, out: dict) -> None:
        h.update(out["artifact"])
        h.update(repr((out["agree_ones"], out["agree_zeros"])).encode())
        for row, ones, zeros in zip(out["pyramid"], out["ones"], out["zeros"]):
            h.update(np.ascontiguousarray(row, dtype="<u8").tobytes())
            h.update(np.packbits(ones).tobytes() + np.packbits(zeros).tobytes())
        h.update(np.ascontiguousarray(out["diagram"].rows, dtype=np.uint8).tobytes())


# -------------------------------------------------------- analyze-wide


@dataclass
class AnalyzeCase:
    width: int
    kind: str  # "digits" or "full" (cells anywhere in 0..2**64-1)
    row: np.ndarray = field(repr=False)
    pattern: int
    samples: list[tuple[int, int]]  # (t, i) cells re-derived in pure Python

    def props(self) -> dict:
        return {"width": self.width, "values": (int(self.row.min()), int(self.row.max())),
                "mix": self.kind, "pattern": "single"}


class AnalyzeWide:
    name = "analyze-wide"
    lo, hi = 2000, 4001
    kinds = ("digits", "full")
    strata = 8  # widths per kind; the deck holds strata * len(kinds) cases
    samples, sample_depth = 6, 160

    def deck(self, seed: int) -> list[AnalyzeCase]:
        rng = _rng(self.name, seed)
        cases = []
        for k in range(self.strata):
            for lane, kind in enumerate(self.kinds):
                width = spread(self.lo, self.hi, self.strata, k, lane, len(self.kinds))
                if kind == "digits":
                    values = [rng.randrange(10) for _ in range(width)]
                    pattern = rng.randrange(10)
                else:
                    values = [rng.getrandbits(64) for _ in range(width)]
                    lo_at, hi_at = rng.sample(range(width), 2)
                    values[lo_at], values[hi_at] = 0, MAX_U64
                    pattern = values[rng.randrange(width)]
                samples = []
                for _ in range(self.samples):
                    t = rng.randrange(self.sample_depth)
                    samples.append((t, rng.randrange(width - t)))
                cases.append(AnalyzeCase(width, kind, np.array(values, dtype=np.uint64),
                                         pattern, samples))
        rng.shuffle(cases)
        return cases

    def prepare(self, case: AnalyzeCase, workdir: Path, slot: int) -> None:
        pass

    def run(self, case: AnalyzeCase) -> dict:
        pyramid = engine.evolve(case.row)
        mask = patterns.highlight_pyramid(pyramid, [case.pattern])
        return {"pyramid": pyramid, "mask": mask, "count": mask.count()}

    def check(self, case: AnalyzeCase, out: dict) -> list[str]:
        rows, mask = list(out["pyramid"]), list(out["mask"])
        if not len(rows) == len(mask) == case.width:
            return [f"pyramid/mask have {len(rows)}/{len(mask)} rows, expected {case.width}"]
        hits = 0
        v = np.uint64(case.pattern)
        for t, bits in enumerate(xor_rows(case.row & np.uint64(1))):
            row = rows[t]
            if row.size != bits.size or not np.array_equal(row & np.uint64(1), bits):
                return [f"row {t} parity differs from the XOR pyramid of row % 2"]
            expect = row == v
            if not np.array_equal(mask[t], expect):
                return [f"mask row {t} differs from row == {case.pattern}"]
            hits += int(expect.sum())
        if out["count"] != hits:
            return [f"mask.count() is {out['count']}, expected {hits}"]
        for t, i in case.samples:
            window = [int(x) for x in case.row[i : i + t + 1]]
            for _ in range(t):
                window = [abs(a - b) for a, b in zip(window, window[1:])]
            if int(rows[t][i]) != window[0]:
                return [f"cell ({t}, {i}) is {int(rows[t][i])}, expected {window[0]}"]
        return []

    def cells(self, case: AnalyzeCase) -> int:
        return case.width * (case.width + 1) // 2

    def digest(self, h, case: AnalyzeCase, out: dict) -> None:
        for row, hits in zip(out["pyramid"], out["mask"]):
            h.update(np.ascontiguousarray(row, dtype="<u8").tobytes())
            h.update(np.packbits(hits).tobytes())
        h.update(str(out["count"]).encode())


WORKLOADS = {w.name: w for w in (FigureDigits(), ImpulseCompare(), AnalyzeWide())}
