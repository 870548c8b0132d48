"""What the benchmark measures: workloads, metrics, units and bounds.

This file is the single source of ``BENCHMARK.json`` (written by
``baseline.py``) and of the metric names ``run.py`` prints, so the two
cannot drift apart.
"""

from __future__ import annotations

COMMAND = ["python3", "benchmarks/run.py"]
PATHS = ["benchmarks"]
RUN_SECONDS = 40

# name, why it was chosen
WORKLOADS = [
    ("figure-digits",
     "cli run on 200-400 cell digit rows, mixed formats and mostly multi-cell patterns: "
     "rendering is ~80% of each figure, evolve ~3%"),
    ("impulse-compare",
     "the compare calls on lone-1 rows 367-1435 wide: eca (impulse_agreement, eca_evolve) "
     "is ~70% of each operation, render_compare ~25%, evolve ~1%"),
    ("analyze-wide",
     "evolve + single-cell highlight + count on 2000-4000 cell digit and full-uint64 rows, "
     "no rendering: engine ~60%, patterns ~40%, the O(n^2) pyramid sets peak memory"),
]

# name, unit, better, bound (share of the parent's median it may worsen by).
# The time bounds are wide because the CPU speed of a small shared VM drifts
# over minutes: one fixed operation repeated for four minutes ran at 65 ms
# in some stretches and 135 ms in others, with CPU time tracking wall time.
# Every seed runs a deck of the same shape, so the spread between runs is
# the machine's, not the draw's.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_latency_p50_s", "s", "lower", 0.25),
    ("op_latency_tail_s", "s", "lower", 0.25),
    ("cells_per_s", "cells/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

# failed_ratio is printed with the metrics above but is not a bounded metric:
# it is 0 on a correct program, and the result line already carries
# ``attempted`` and ``failed``.

# name, unit, better, the end-to-end metric and workload it should move.
# Times and counts are per traced operation unless the unit says otherwise.
PER_LAYER = [
    ("expressions.parse_expression.time_s", "s/op", "lower",
     "op_latency_p50_s on figure-digits (a small share)"),
    ("expressions.parse_expression.terms", "count/op", "lower",
     "none: input size"),
    ("engine.evolve.time_s", "s/op", "lower",
     "cells_per_s on analyze-wide"),
    ("engine.evolve.cells", "count/op", "lower",
     "none: input size"),
    ("engine.evolve.bytes_computed", "B/op", "lower",
     "peak_rss_mb and cells_per_s on analyze-wide"),
    ("patterns.highlight_pyramid.single.time_s", "s/op", "lower",
     "cells_per_s on analyze-wide"),
    ("patterns.highlight_pyramid.multi.time_s", "s/op", "lower",
     "op_latency_p50_s on figure-digits"),
    ("patterns.highlight_pyramid.cells_scanned", "count/op", "lower",
     "op_latency_p50_s on figure-digits, cells_per_s on analyze-wide"),
    ("patterns.highlight_pyramid.hits", "count/op", "higher",
     "none: fixed by the inputs"),
    ("patterns.highlight_pyramid.hit_ratio", "ratio", "higher",
     "none: fixed by the inputs"),
    ("render.render_ascii.time_s", "s/op", "lower",
     "op_latency_p50_s and op_latency_tail_s on figure-digits"),
    ("render.render_ascii.bytes_out", "B/op", "lower", "none: output size"),
    ("render.render_pgm.time_s", "s/op", "lower",
     "op_latency_p50_s and op_latency_tail_s on figure-digits"),
    ("render.render_pgm.bytes_out", "B/op", "lower", "none: output size"),
    ("render.render_pbm.time_s", "s/op", "lower",
     "op_latency_p50_s and op_latency_tail_s on figure-digits"),
    ("render.render_pbm.bytes_out", "B/op", "lower", "none: output size"),
    ("render.render_svg.time_s", "s/op", "lower",
     "op_latency_p50_s and op_latency_tail_s on figure-digits"),
    ("render.render_svg.bytes_out", "B/op", "lower", "none: output size"),
    ("render.render_compare.time_s", "s/op", "lower",
     "op_latency_p50_s on impulse-compare"),
    ("render.render_compare.bytes_out", "B/op", "lower", "none: output size"),
    ("eca.eca_evolve.time_s", "s/op", "lower",
     "op_latency_p50_s on impulse-compare"),
    ("eca.eca_evolve.cell_updates", "count/op", "lower", "none: input size"),
    ("eca.impulse_agreement.time_s", "s/op", "lower",
     "op_latency_p50_s on impulse-compare"),
    ("eca.impulse_agreement.cone_cells", "count/op", "lower", "none: input size"),
    ("cli.main.self_time_s", "s/op", "lower",
     "op_latency_p50_s on figure-digits"),
    ("cli.main.bytes_written", "B/op", "lower", "none: output size"),
    # self time of each module as a share of operation wall time; "untraced"
    # is the time inside an operation that no traced call covers
    ("expressions.self_share", "ratio", "lower", "op_latency_p50_s on figure-digits"),
    ("engine.self_share", "ratio", "lower", "cells_per_s on analyze-wide"),
    ("patterns.self_share", "ratio", "lower", "cells_per_s on analyze-wide"),
    ("eca.self_share", "ratio", "lower", "op_latency_p50_s on impulse-compare"),
    ("render.self_share", "ratio", "lower", "op_latency_p50_s on figure-digits"),
    ("cli.self_share", "ratio", "lower", "op_latency_p50_s on figure-digits"),
    ("untraced.self_share", "ratio", "lower", "none"),
    # traced over untraced wall time of the same operations, minus one
    ("trace.overhead_ratio", "ratio", "lower", "none: cost of the tracing itself"),
    ("trace.spans_per_op", "count/op", "lower", "none"),
    ("trace.ops", "count", "higher", "none: traced operations in the run"),
]


def manifest() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }
