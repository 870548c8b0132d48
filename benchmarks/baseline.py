"""Write BENCHMARK.json and benchmarks/baseline.json by running the harness.

    python3 benchmarks/baseline.py [--seed 1] [--seconds 40]

BENCHMARK.json comes from spec.py. Then every workload runs once with
``--trace 0`` (end-to-end metrics, input properties, artifact digest) and
once with ``--trace 1`` (per-layer metrics and tracing overhead), one run at
a time, and baseline.json records the results with the commit and machine
they were measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("report "))


def git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    args = parser.parse_args()

    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n")
    import numpy

    baseline = {
        "commit": git("rev-parse", "HEAD"),
        "src_unmodified": git("status", "--porcelain", "--", "src") == "",
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "layer_moves": {name: moves for name, _, _, moves in spec.PER_LAYER},
        "workloads": {},
    }
    for name, why in spec.WORKLOADS:
        untraced, report = run_once(name, args.seed, args.seconds, 0)
        traced, trace_report = run_once(name, args.seed, args.seconds, 1)
        baseline["workloads"][name] = {
            "why": why,
            "correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"],
            "failed": untraced["failed"],
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
            "report": report,
            "trace_report": trace_report,
        }
        print(f"{name}: " + ", ".join(
            f"{k} {v['value']:.6g} {v['unit']}" for k, v in untraced["metrics"].items()))
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
