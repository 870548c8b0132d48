"""Self-tests of the benchmark: generators, span arithmetic and oracles.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import run  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from diffca import cli, engine, patterns  # noqa: E402
from workloads import WORKLOADS, AnalyzeCase, FigureCase, ImpulseCase  # noqa: E402


def _fingerprint(case) -> tuple:
    data = getattr(case, "row", None)
    cells = tuple(int(v) for v in data) if data is not None else tuple(case.digits)
    return (repr(case), cells)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    w = WORKLOADS[name]
    first = [_fingerprint(c) for c in w.deck(7)]
    assert first == [_fingerprint(c) for c in w.deck(7)]
    assert first != [_fingerprint(c) for c in w.deck(8)]


def _shape(case) -> tuple:
    props = case.props()
    return (case.width, props["pattern"], props["mix"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_seed_gets_the_same_deck_shape(name):
    w = WORKLOADS[name]
    shapes = sorted(_shape(c) for c in w.deck(1))
    for seed in (2, 3):
        assert sorted(_shape(c) for c in w.deck(seed)) == shapes
    widths = sorted(width for width, _, _ in shapes)
    assert w.lo <= widths[0] and widths[-1] < w.hi
    # the widths are spread evenly: no gap wider than two even steps
    even = (w.hi - w.lo) / len(widths)
    assert max(b - a for a, b in zip(widths, widths[1:])) < 2 * even + 2


def test_workloads_match_the_spec():
    assert sorted(WORKLOADS) == sorted(name for name, _ in spec.WORKLOADS)
    manifest = spec.manifest()
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert any(m["name"] == "setup_s" for m in manifest["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])


def _span(sid, parent, start, end, name="m.f"):
    return tracing.Span(sid, parent, 0, name, start, end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, None, 0.0, 10.0, "op"),
        _span(1, 0, 1.0, 4.0, "engine.evolve"),
        _span(2, 1, 2.0, 3.0, "patterns.highlight_pyramid"),
        _span(3, 0, 3.5, 6.0, "render.render_svg"),  # overlaps its sibling by 0.5
        _span(4, 0, 9.5, 11.0, "render.render_pbm"),  # runs past its parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 5 - 0.5, 2.0, 1.0, 2.5, 1.5])


def test_layer_metrics_shares_and_per_op_values():
    spans = [
        _span(0, None, 0.0, 4.0, "op"),
        _span(1, 0, 0.0, 3.0, "cli.main"),
        _span(2, 1, 1.0, 3.0, "render.render_svg"),
        _span(3, None, 4.0, 8.0, "op"),
        _span(4, 3, 4.0, 8.0, "engine.evolve"),
    ]
    spans[4].counts = {"cells": 10}
    m = tracing.layer_metrics(spans, ops=2, overhead=0.01)
    assert m["cli.main.self_time_s"] == pytest.approx(0.5)
    assert m["render.render_svg.time_s"] == pytest.approx(1.0)
    assert m["engine.evolve.cells"] == pytest.approx(5.0)
    assert m["render.self_share"] == pytest.approx(2 / 8)
    assert m["engine.self_share"] == pytest.approx(4 / 8)
    assert m["untraced.self_share"] == pytest.approx(1 / 8)
    assert m["trace.spans_per_op"] == pytest.approx(1.5)


def test_tail_keeps_ten_samples_beyond():
    value, percentile, beyond = run.tail([float(i) for i in range(100)])
    assert (value, percentile, beyond) == (89.0, 90.0, 10)


def test_a_later_pass_must_repeat_the_checked_output():
    w, case = WORKLOADS["analyze-wide"], _analyze_case("digits")
    tally = run.Tally()
    _, reference = run.attempt(w, case, tally, None)
    assert reference is not None
    assert run.attempt(w, case, tally, reference)[1] == reference
    assert (tally.attempted, tally.failed) == (2, 0)
    assert run.attempt(w, case, tally, b"another digest")[1] is None
    assert (tally.attempted, tally.failed) == (3, 1)


def test_a_figure_digest_consumes_its_artifact(tmp_path):
    w = WORKLOADS["figure-digits"]
    case = FigureCase(width=6, digits=[1, 4, 0, 2, 2, 5], fmt="pbm", palette="mask",
                      align="left", symmetric=False, pattern=(1,))
    w.prepare(case, tmp_path, 0)
    tally = run.Tally()
    _, reference = run.attempt(w, case, tally, None)
    assert reference is not None and not list(tmp_path.glob("out-*"))
    # a run that writes nothing cannot pass on the file of an earlier pass
    case.argv[case.argv.index("--out") + 1] = str(tmp_path / "missing" / "out.pbm")
    assert run.attempt(w, case, tally, reference)[1] is None
    assert tally.failed == 1


def test_install_traces_nested_calls_and_restore_undoes_it(tmp_path):
    original = engine.evolve
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        assert cli.evolve is not original and engine.evolve is not original
        out = tmp_path / "a.pbm"
        assert cli.main(["run", "--input", "1-0-0-1", "--pattern", "1-",
                         "--format", "pbm", "--out", str(out)]) == 0
        tracer.settle()
    finally:
        tracing.restore(patched)
    assert cli.evolve is original and engine.evolve is original
    names = {s.name: s for s in tracer.spans}
    main = names["cli.main"]
    assert names["engine.evolve"].parent == main.id
    assert names["render.render_pbm"].parent == names["render.render_pyramid"].id
    assert names["patterns.highlight_pyramid"].variant == "single"
    assert main.counts["bytes_written"] == out.stat().st_size


# ------------------------------------------------------------------ oracles


def _analyze_case(kind: str) -> AnalyzeCase:
    rng = np.random.default_rng(3)
    if kind == "digits":
        row = rng.integers(0, 10, 40, dtype=np.uint64)
    else:
        row = rng.integers(0, 2**64 - 1, 40, dtype=np.uint64, endpoint=True)
    return AnalyzeCase(40, kind, row, int(row[5]), [(0, 3), (7, 11), (20, 2)])


@pytest.mark.parametrize("kind", ["digits", "full"])
def test_analyze_oracle_catches_a_flipped_cell_and_a_wrong_count(kind):
    w, case = WORKLOADS["analyze-wide"], _analyze_case(kind)
    out = w.run(case)
    assert w.check(case, out) == []
    rows = [r.copy() for r in out["pyramid"]]
    rows[9][4] ^= np.uint64(1)
    assert w.check(case, dict(out, pyramid=engine.Pyramid(tuple(rows))))
    assert w.check(case, dict(out, count=out["count"] + 1))


def test_analyze_samples_catch_a_change_that_keeps_parity():
    w, case = WORKLOADS["analyze-wide"], _analyze_case("full")
    out = w.run(case)
    rows = [r.copy() for r in out["pyramid"]]
    t, i = case.samples[1]
    rows[t][i] ^= np.uint64(2)
    pyramid = engine.Pyramid(tuple(rows))
    mask = patterns.highlight_pyramid(pyramid, [case.pattern])
    assert w.check(case, {"pyramid": pyramid, "mask": mask, "count": mask.count()})


def _impulse_case(width: int = 41, offset: int = 13) -> ImpulseCase:
    row = np.zeros(width, dtype=np.uint64)
    row[offset] = 1
    return ImpulseCase(width, offset, row)


def test_impulse_oracle_catches_a_wrong_ratio_and_a_flipped_cell():
    w, case = WORKLOADS["impulse-compare"], _impulse_case()
    out = w.run(case)
    assert w.check(case, out) == []
    assert w.check(case, dict(out, agree_ones=(0.99, 0.01)))
    assert w.check(case, dict(out, agree_zeros=(1.0, 0.0)))
    rows = np.array(out["diagram"].rows)
    rows[5, 13] ^= 1
    assert w.check(case, dict(out, diagram=type(out["diagram"])(rows, out["diagram"].rule, "zero")))
    art = bytearray(out["artifact"])
    art[art.rindex(b"0")] = ord("1")
    assert w.check(case, dict(out, artifact=bytes(art)))


def test_rule90_oracle_matches_binomial_parity_away_from_the_edges():
    case = _impulse_case(61, 30)
    rows = workloads.rule90_rows(case.row.astype(np.uint8), 30)
    for t in range(31):
        expect = [0] * 61
        for k in range(t + 1):
            expect[30 - t + 2 * k] = math.comb(t, k) % 2
        assert rows[t].tolist() == expect


@pytest.mark.parametrize("fmt,pattern,palette", [
    ("pbm", (1, 2), "values"), ("ascii", (1, 0), "mask"), ("svg", (3,), "grayscale"),
    ("pgm", None, "values"),
])
def test_figure_oracle_accepts_the_artifact_and_catches_corruption(tmp_path, fmt, pattern, palette):
    w = WORKLOADS["figure-digits"]
    digits = [2, 0, 1, 7, 0, 4, 7, 8, 9, 0, 9, 8, 7, 4, 0, 7, 1, 0, 2, 1, 2, 0]
    case = FigureCase(width=2 * len(digits), digits=digits, fmt=fmt, palette=palette,
                      align="left", symmetric=True, pattern=pattern)
    w.prepare(case, tmp_path, 0)
    assert w.run(case) == 0
    assert w.check(case, 0) == []
    out = Path(case.argv[case.argv.index("--out") + 1])
    data = out.read_bytes()
    if fmt == "pbm":
        corrupt = data[:-2] + (b"1" if data[-2:-1] == b"0" else b"0") + data[-1:]
    elif fmt == "ascii":
        corrupt = data.replace(b"#", b"1", 1)
    elif fmt == "svg":
        corrupt = data.replace(b"<rect", b"<!--", 1)
    else:
        corrupt = data.replace(b"P2\n44 44", b"P2\n44 43", 1)
    assert corrupt != data
    out.write_bytes(corrupt)
    assert w.check(case, 0)
    assert w.check(case, 1)
