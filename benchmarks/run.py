"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload figure-digits --seed 1 --seconds 40 --trace 0

Run it from the repository root: the package is imported from ``./src``.
One process drives a closed loop with one caller and no extra threads: the
next operation starts when the previous one and its check have finished.

The seed makes one deck of operations (see ``workloads.py``), and the run
goes through the whole deck in passes until ``--seconds`` have passed.
Pass 0 warms up and is not timed; the package-independent oracles check
each of its results, and its digest is kept. Every result of a later pass
must have the same digest, so every operation is checked.

The timed operations of all passes after pass 0 give the latency median
and tail and the throughput. Each pass runs the same operations, so every
run measures the same mix however many passes fit.

``setup_s`` is the median of several fresh processes that each import
diffca and build the CLI parser. They run between operations, outside every
timed one, at evenly spaced times through the run, so they do not all
report the machine's speed of one moment.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` runs every
timed operation twice, back to back and in alternating order: once with
spans around the calls into each diffca module and once without. It
reports the per-layer metrics from the spans and the tracing overhead from
the two wall times, and writes the spans to ``.bench_work/``. The last line
of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import spec

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_RUNS = 7  # fresh processes per run; their median is setup_s
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
SHOWN_FAILURES = 5

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import diffca, diffca.cli
diffca.cli.build_parser()
print(repr(time.perf_counter() - t0))
"""


def measure_setup() -> float:
    """Wall time of ``import diffca`` plus ``build_parser()`` in a fresh process."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile with ``beyond`` samples above it: (value, percentile, above)."""
    ordered = sorted(samples)
    k = max(len(ordered) - beyond - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    samples: list[list[float]] = field(default_factory=list)  # timed, untraced, per case
    traced: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)


def attempt(workload, case, tally: Tally, reference: bytes | None,
            tracer=None) -> tuple[float, bytes | None]:
    """One operation: the timed program calls, then the check.

    With no ``reference`` the oracles check the result; otherwise its digest
    must equal ``reference``. Returns the latency and, when the result is
    correct, its digest.
    """
    if tracer:
        tracer.op += 1
        root = tracer.begin("op")
    t0 = time.perf_counter()
    try:
        out, error = workload.run(case), None
    except Exception as err:  # a failing operation is counted, not fatal
        out, error = None, err
    latency = time.perf_counter() - t0
    if tracer:
        tracer.end(root)
        tracer.settle()
    digest = None
    if error is None:
        try:
            problems = workload.check(case, out) if reference is None else []
            h = hashlib.sha256()
            workload.digest(h, case, out)
            digest = h.digest()
            if reference is not None and digest != reference:
                problems = ["output differs from the checked output of pass 0"]
        except Exception as err:  # an unreadable result is a failed check
            problems = [f"check raised {type(err).__name__}: {err}"]
    else:
        problems = [f"raised {type(error).__name__}: {error}"]
    tally.attempted += 1
    if problems:
        tally.failed += 1
        if len(tally.failures) < SHOWN_FAILURES:
            tally.failures.append(f"{case!r:.160}: {'; '.join(problems)}")
        return latency, None
    return latency, digest


def measure(workload, deck: list, seconds: float, trace: bool):
    import tracing

    tally = Tally(samples=[[] for _ in deck])
    setup_runs = 0 if trace else SETUP_RUNS
    if setup_runs:
        measure_setup()  # writes the byte-code cache; not counted
    tracer = tracing.Tracer() if trace else None
    reference: list[bytes | None] = [None] * len(deck)
    start = time.perf_counter()
    passes = 0
    while True:
        began = time.perf_counter()
        for i, case in enumerate(deck):
            while (len(tally.setup) < setup_runs
                   and time.perf_counter() - start >= len(tally.setup) * seconds / setup_runs):
                tally.setup.append(measure_setup())
            if passes == 0:
                reference[i] = attempt(workload, case, tally, None)[1]
                continue
            # a traced run times each operation with and without spans, back to
            # back, in an order that alternates
            modes = ((True, False) if (passes + i) % 2 else (False, True)) if trace else (False,)
            for traced in modes:
                patched = tracing.install(tracer) if traced else []
                try:
                    latency = attempt(workload, case, tally, reference[i],
                                      tracer if traced else None)[0]
                finally:
                    tracing.restore(patched)
                (tally.traced if traced else tally.samples[i]).append(latency)
        passes += 1
        now = time.perf_counter()
        # stop at the pass boundary nearest to the deadline
        if passes >= 2 and now - start + (now - began) / 2 >= seconds:
            break
    while len(tally.setup) < setup_runs:
        tally.setup.append(measure_setup())
    artifacts = hashlib.sha256(b"".join(d or b"" for d in reference)).hexdigest()
    return tally, tracer, artifacts, passes, time.perf_counter() - start


def describe_inputs(deck: list) -> dict:
    props = [case.props() for case in deck]
    widths = [p["width"] for p in props]
    kinds = Counter(p["pattern"] for p in props)
    return {
        "operations_per_pass": len(props),
        "width_range": [min(widths), max(widths)],
        "value_range": [min(p["values"][0] for p in props), max(p["values"][1] for p in props)],
        "mix": dict(sorted(Counter(p["mix"] for p in props).items())),
        "pattern_share": 1 - kinds[None] / len(props),
        "multi_cell_pattern_share": kinds["multi"] / len(props),
    }


def main(argv: list[str] | None = None) -> int:
    names = [name for name, _ in spec.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "diffca" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'diffca'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    deck = workload.deck(args.seed)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        for slot, case in enumerate(deck):
            workload.prepare(case, workdir, slot)
        tally, tracer, artifacts, passes, elapsed = measure(
            workload, deck, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = [x for samples in tally.samples for x in samples]
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "loop": "closed, 1 caller", "passes": passes, "elapsed_s": elapsed,
        "inputs": describe_inputs(deck), "sha256": artifacts,
        "failed_ratio": tally.failed / tally.attempted, "failures": tally.failures,
    }
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}: {tally.attempted} operations "
          f"({passes} passes of {len(deck)}) in {elapsed:.1f} s, closed loop, 1 caller")
    if args.trace:
        untraced, traced = sum(timed), sum(tally.traced)
        values = tracing.layer_metrics(tracer.spans, len(tally.traced), traced / untraced - 1)
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit, _, _ in spec.PER_LAYER}
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps([
            {"id": s.id, "parent": s.parent, "op": s.op, "name": s.name, "variant": s.variant,
             "start": s.start, "end": s.end, "counts": s.counts} for s in tracer.spans]))
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        cells = sum(workload.cells(case) for case in deck) * (passes - 1)
        tail_value, percentile, above = tail(timed)
        values = {
            "setup_s": statistics.median(tally.setup),
            "op_latency_p50_s": statistics.median(timed),
            "op_latency_tail_s": tail_value,
            "cells_per_s": cells / sum(timed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in spec.END_TO_END}
        report["tail"] = {"percentile": percentile, "samples": len(timed), "beyond": above}
        report["setup_samples_s"] = tally.setup
        notes = {
            "setup_s": f"median of {len(tally.setup)} fresh processes spread over the run",
            "op_latency_p50_s": f"median of {len(timed)} operations, {passes - 1} passes "
                                f"of {len(deck)}",
            "op_latency_tail_s": f"p{percentile:.2f} of {len(timed)} operations, {above} beyond",
            "cells_per_s": "pyramid + ECA cells over the summed operation wall time",
        }
        for name, m in metrics.items():
            print(f"  {name:<18} {m['value']:>14.6g} {m['unit']:<8} {notes.get(name, '')}")
    print(f"  {'failed_ratio':<18} {report['failed_ratio']:>14.6g} {'ratio':<8} "
          f"{tally.failed} of {tally.attempted} operations")
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("report " + json.dumps(report))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
