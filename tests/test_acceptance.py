"""Acceptance gate: one test per shipping criterion.

Each test prints a PASS/FAIL line with the criterion number and its
tolerance, visible even under captured output. Oracles here are kept
independent of the package: binomial parity comes from ``math.comb``,
window matching from a quadratic scan, and the reference triangle is
embedded below rather than imported.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from diffca.cli import main
from diffca.eca import eca_evolve, impulse_row, rule_table
from diffca.engine import as_row, evolve, make_symmetric
from diffca.expressions import ExpressionError, parse_expression, serialize_expression
from diffca.fixtures import load_fixture
from diffca.patterns import highlight_pyramid
from diffca.render import render_pbm

GOLDEN_DIR = Path(__file__).parent / "golden"

# Reference triangle for the default input row, transcribed by hand and
# kept separate from the package's own copy.
REFERENCE_TRIANGLE = [
    [2, 0, 1, 7, 0, 4, 7, 8, 9, 0, 9, 8, 7, 4, 0, 7, 1, 0, 2],
    [2, 1, 6, 7, 4, 3, 1, 1, 9, 9, 1, 1, 3, 4, 7, 6, 1, 2],
    [1, 5, 1, 3, 1, 2, 0, 8, 0, 8, 0, 2, 1, 3, 1, 5, 1],
    [4, 4, 2, 2, 1, 2, 8, 8, 8, 8, 2, 1, 2, 2, 4, 4],
    [0, 2, 0, 1, 1, 6, 0, 0, 0, 6, 1, 1, 0, 2, 0],
    [2, 2, 1, 0, 5, 6, 0, 0, 6, 5, 0, 1, 2, 2],
    [0, 1, 1, 5, 1, 6, 0, 6, 1, 5, 1, 1, 0],
    [1, 0, 4, 4, 5, 6, 6, 5, 4, 4, 0, 1],
    [1, 4, 0, 1, 1, 0, 1, 1, 0, 4, 1],
    [3, 4, 1, 0, 1, 1, 0, 1, 4, 3],
    [1, 3, 1, 1, 0, 1, 1, 3, 1],
    [2, 2, 0, 1, 1, 0, 2, 2],
    [0, 2, 1, 0, 1, 2, 0],
    [2, 1, 1, 1, 1, 2],
    [1, 0, 0, 0, 1],
    [1, 0, 0, 1],
    [1, 0, 1],
    [1, 1],
    [0],
]


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def _criterion(number: int, label: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\nFAIL  criterion {number}: {label}", flush=True)
            raise
        with capsys.disabled():
            print(f"\nPASS  criterion {number}: {label}", flush=True)

    return _criterion


def parity(t: int, k: int) -> int:
    return math.comb(t, k) & 1


def best_of(fn, repeats: int = 20) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def naive_flags(row: list[int], pattern: list[int]) -> list[bool]:
    out = [False] * len(row)
    m = len(pattern)
    for j in range(len(row) - m + 1):
        if row[j : j + m] == pattern:
            for k in range(j, j + m):
                out[k] = True
    return out


def read_pbm(data: bytes) -> np.ndarray:
    fields = data.decode("ascii").split()
    assert fields[0] == "P1"
    w, h = int(fields[1]), int(fields[2])
    bits = "".join(fields[3:])
    assert len(bits) == w * h
    return np.array([c == "1" for c in bits], dtype=bool).reshape(h, w)


def test_reference_triangle(criterion):
    with criterion(1, "default row reproduces the reference triangle exactly, < 1 ms"):
        fixture = load_fixture("default-p")
        assert evolve(fixture).to_lists() == REFERENCE_TRIANGLE
        assert best_of(lambda: evolve(fixture)) < 1e-3


def test_symmetric_construction(criterion):
    with criterion(2, "mirrored inputs evolve to palindromic rows, 1000 cases < 1 s"):
        assert make_symmetric([1, 5]).tolist() == [1, 5, 5, 1]
        assert np.array_equal(make_symmetric(load_fixture("p1")), load_fixture("p1-new"))
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        for case in range(1000):
            half = rng.integers(0, 10**6 + 1, size=int(rng.integers(1, 33)))
            row = np.concatenate([half, half[::-1]])
            if case % 2:
                row = np.concatenate([half, [int(rng.integers(0, 10**6 + 1))], half[::-1]])
            assert row.size <= 64 + 1
            for r in evolve(row):
                assert np.array_equal(r, r[::-1])
        assert time.perf_counter() - t0 < 1.0


def test_impulse_matches_rule_90_and_binomial_parity(criterion):
    with criterion(3, "impulse masks equal the rule-90 diagram and binomial parity, exact < 1 s"):
        t0 = time.perf_counter()
        a1 = load_fixture("a1")
        j0 = int(np.flatnonzero(a1)[0])
        width = len(a1)
        pyramid = evolve(a1)
        ones = highlight_pyramid(pyramid, parse_expression("1-"))
        zeros = highlight_pyramid(pyramid, parse_expression("0-"))

        # every pyramid cell, every generation: 1 exactly on the parity cone
        for t in range(pyramid.height):
            for i in range(width - t):
                k = j0 - i
                expected = parity(t, k) if 0 <= k <= t else 0
                assert int(ones[t][i]) == expected, (t, i)
                assert int(zeros[t][i]) == 1 - expected, (t, i)

        # rule-90 side: same cone, two columns per step, valid while the
        # light cone stays inside the finite row
        diagram = eca_evolve(a1, 90, width - 1)
        free = min(j0, width - 1 - j0)
        for t in range(free + 1):
            for k in range(t + 1):
                assert int(diagram.rows[t, j0 - t + 2 * k]) == int(ones[t][j0 - t + k]), (t, k)
            for k in range(t):
                assert int(diagram.rows[t, j0 - t + 2 * k + 1]) == 0, (t, k)
        assert time.perf_counter() - t0 < 1.0


def test_compare_artifact_is_stable(criterion, tmp_path, capsys):
    with criterion(4, "compare emits both panels, byte-stable across runs"):
        argv = ["compare", "--fixture", "a2", "--pattern", "1-", "--rule", "110"]
        first = tmp_path / "first.txt"
        second = tmp_path / "second.txt"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        top, bottom = first.read_text(encoding="utf-8").split("\n\n")
        height = len(load_fixture("a2"))
        assert top.splitlines()[0].startswith("== rule 110")
        assert len(top.splitlines()) == 1 + height
        assert len(bottom.splitlines()) == 1 + height


def test_engine_properties(criterion):
    with criterion(5, "contraction, monotone max, invariances: 1000 random rows < 5 s"):
        rng = np.random.default_rng(4096)
        t0 = time.perf_counter()
        for _ in range(1000):
            n = int(rng.integers(2, 129))
            row = as_row(rng.integers(0, 10**9, size=n))
            p = evolve(row)
            sizes = [r.size for r in p]
            assert sizes == list(range(n, 0, -1))
            maxima = [int(r.max()) for r in p]
            assert all(a >= b for a, b in zip(maxima, maxima[1:]))
            # generation 1 as Python ints: evolve's narrow dtype would wrap out * k
            out = p.rows[1].tolist()
            c = np.uint64(int(rng.integers(0, 10**9)))
            k = int(rng.integers(1, 1000))
            assert evolve(row + c, max_generations=1).rows[1].tolist() == out
            assert evolve(row * np.uint64(k), max_generations=1).rows[1].tolist() == [d * k for d in out]
            assert evolve(row[::-1], max_generations=1).rows[1].tolist() == out[::-1]
            bits = row % np.uint64(2)
            assert evolve(bits, max_generations=1).rows[1].tolist() == (bits[:-1] ^ bits[1:]).tolist()
        assert time.perf_counter() - t0 < 5.0


def test_expression_round_trip_and_fuzz(criterion):
    with criterion(6, "round trip exact; 100000 fuzz strings raise only defined errors, < 10 s"):
        assert parse_expression("2-0-1-7-").tolist() == [2, 0, 1, 7]
        for fid in ("default-p", "p1", "p1-new", "a1", "a2"):
            row = load_fixture(fid)
            assert np.array_equal(parse_expression(serialize_expression(row)), row)
        rng = np.random.default_rng(77)
        for _ in range(200):
            size = int(rng.integers(1, 24))
            terms = [int(v) for v in rng.integers(0, 2**64, size=size, dtype=np.uint64)]
            text = "-".join(str(v) for v in terms)
            assert parse_expression(text).tolist() == terms

        alphabet = np.array(list("0123456789-[]() \t.xyzZ?"))
        t0 = time.perf_counter()
        parsed = errors = 0
        for _ in range(100_000):
            text = "".join(rng.choice(alphabet, size=int(rng.integers(0, 17))))
            try:
                parse_expression(text)
                parsed += 1
            except ExpressionError:
                errors += 1
        assert parsed + errors == 100_000
        assert parsed > 0 and errors > 0
        assert time.perf_counter() - t0 < 10.0


def test_highlight_pyramid_against_window_scan(criterion):
    with criterion(7, "highlight_pyramid on one row equals the quadratic window scan, 1000 cases < 1 s"):
        rng = np.random.default_rng(303)
        t0 = time.perf_counter()
        for _ in range(1000):
            n = int(rng.integers(1, 33))
            m = int(rng.integers(1, 5))
            row = rng.integers(0, 4, size=n).tolist()
            pattern = rng.integers(0, 4, size=m).tolist()
            got = highlight_pyramid(evolve(row, max_generations=0), pattern)[0].tolist()
            assert got == naive_flags(row, pattern), (row, pattern)
        assert time.perf_counter() - t0 < 1.0


def test_pbm_round_trip_and_golden(criterion):
    with criterion(8, "PBM re-parses to the exact mask; golden bitmap byte-identical"):
        pyramid = evolve(load_fixture("default-p"))
        mask = highlight_pyramid(pyramid, parse_expression("1-"))
        grid = read_pbm(render_pbm(mask))
        w = mask.base_width
        for t, row in enumerate(mask):
            x0 = (w - row.size) // 2
            assert np.array_equal(grid[t, x0 : x0 + row.size], row)
            assert not grid[t, :x0].any()
            assert not grid[t, x0 + row.size :].any()

        impulse = evolve(load_fixture("a1"), max_generations=32)
        ones = highlight_pyramid(impulse, parse_expression("1-"))
        golden = (GOLDEN_DIR / "a1_ones_32.pbm").read_bytes()
        assert render_pbm(ones) == golden


def test_rule_tables_and_rule_90_closed_form(criterion):
    with criterion(9, "rule tables match binary expansions; rule-90 impulse exact to depth 32, < 1 s"):
        t0 = time.perf_counter()
        for number in (90, 110, 182):
            rule = rule_table(number)
            assert rule.table == tuple((number >> k) & 1 for k in range(8))
        depth = 32
        width = 2 * depth + 1
        diagram = eca_evolve(impulse_row(width), 90, depth)
        for t in range(depth + 1):
            for c in range(width):
                d = c - depth
                if (t + d) % 2 == 0 and -t <= d <= t:
                    expected = parity(t, (t + d) // 2)
                else:
                    expected = 0
                assert int(diagram.rows[t, c]) == expected, (t, c)
        assert time.perf_counter() - t0 < 1.0
