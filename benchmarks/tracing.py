"""Spans around calls into diffca's public functions, kept in memory.

``install`` replaces each traced function on every ``diffca`` module that
holds it (and on the class, for a method), so spans cover the calls the
CLI makes internally as well as the benchmark's own. ``restore`` puts the
originals back. Nothing under ``src/`` changes.

Counts are taken after an operation ends (``Tracer.settle``), so counting
adds nothing to any span's time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    variant: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans; one operation at a time, one thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._deferred: list = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, self.op, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counter is not None:
                self._deferred.append((counter, span, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def settle(self) -> None:
        """Fill in the counts of the spans recorded since the last call."""
        for counter, span, args, kwargs, result in self._deferred:
            counter(span, args, kwargs, result)
        self._deferred.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


# ---------------------------------------------------------------- layers


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_terms(span, args, kwargs, result):
    span.counts["terms"] = len(result)


def _count_evolve(span, args, kwargs, result):
    rows = list(result)
    span.counts["cells"] = sum(r.size for r in rows)
    span.counts["bytes_computed"] = sum(r.nbytes for r in rows)


def _count_highlight(span, args, kwargs, result):
    span.variant = "multi" if len(_arg(args, kwargs, 1, "pattern")) > 1 else "single"
    rows = list(result)
    span.counts["cells_scanned"] = sum(r.size for r in rows)
    span.counts["hits"] = sum(int(np.count_nonzero(r)) for r in rows)


def _count_eca(span, args, kwargs, result):
    width = len(_arg(args, kwargs, 0, "initial"))
    span.counts["cell_updates"] = width * _arg(args, kwargs, 2, "generations")


def _count_cone(span, args, kwargs, result):
    sizes = [len(r) for r in _arg(args, kwargs, 0, "mask")]
    j0 = int(_arg(args, kwargs, 1, "impulse_index"))
    span.counts["cone_cells"] = sum(
        max(0, min(j0, s - 1) - max(0, j0 - t) + 1) for t, s in enumerate(sizes)
    )


def _count_bytes(span, args, kwargs, result):
    span.counts["bytes_out"] = len(result if isinstance(result, bytes) else result.encode())


def _count_written(span, args, kwargs, result):
    argv = list(_arg(args, kwargs, 0, "argv") or ())
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        span.counts["bytes_written"] = out.stat().st_size if out.exists() else 0


# (module, attribute, counter); an attribute "Class.method" traces a method
LAYERS = [
    ("expressions", "parse_expression", _count_terms),
    ("engine", "evolve", _count_evolve),
    ("engine", "make_symmetric", None),
    ("patterns", "highlight_pyramid", _count_highlight),
    ("patterns", "HighlightMask.count", None),
    ("eca", "rule_table", None),
    ("eca", "eca_evolve", _count_eca),
    ("eca", "impulse_agreement", _count_cone),
    ("render", "render_pyramid", None),
    ("render", "render_eca", None),
    ("render", "render_ascii", _count_bytes),
    ("render", "render_pgm", _count_bytes),
    ("render", "render_pbm", _count_bytes),
    ("render", "render_svg", _count_bytes),
    ("render", "render_compare", _count_bytes),
    ("cli", "main", _count_written),
]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced function; returns what ``restore`` needs to undo it."""
    package = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "diffca" or name.startswith("diffca."))]
    patched = []
    for module, attr, counter in LAYERS:
        owner = sys.modules[f"diffca.{module}"]
        name = f"{module}.{attr}"
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            holders = [owner]
        else:
            original = getattr(owner, attr)
            holders = [m for m in package if getattr(m, attr, None) is original]
        wrapper = tracer.wrap(name, original, counter)
        for holder in holders:
            setattr(holder, attr, wrapper)
            patched.append((holder, attr, original))
    return patched


def restore(patched: list[tuple[object, str, object]]) -> None:
    for holder, attr, original in reversed(patched):
        setattr(holder, attr, original)


# ------------------------------------------------------------ aggregation


def layer_metrics(spans: list[Span], ops: int, overhead: float) -> dict[str, float]:
    """Per-layer values over ``ops`` traced operations; keys match spec.PER_LAYER.

    Root spans (no parent) are the operations themselves; their self time is
    the part of an operation that no traced call covers.
    """
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    op_time = 0.0
    for s, own in zip(spans, selfs):
        if s.parent is None:
            op_time += s.end - s.start
            out["untraced.self_share"] += own
            continue
        out[f"{s.module}.self_share"] += own
        out[f"{s.name}.time_s"] += s.end - s.start
        out[f"{s.name}.self_time_s"] += own
        if s.variant:
            out[f"{s.name}.{s.variant}.time_s"] += s.end - s.start
        for key, value in s.counts.items():
            out[f"{s.name}.{key}"] += value
        out["trace.spans_per_op"] += 1
    per_op = max(ops, 1)
    result = {key: value / per_op for key, value in out.items()}
    for key, value in out.items():
        if key.endswith(".self_share"):
            result[key] = value / op_time if op_time else 0.0
    scanned = out.get("patterns.highlight_pyramid.cells_scanned", 0)
    hits = out.get("patterns.highlight_pyramid.hits", 0)
    result["patterns.highlight_pyramid.hit_ratio"] = hits / scanned if scanned else 0.0
    result["trace.overhead_ratio"] = overhead
    result["trace.ops"] = ops
    return result
