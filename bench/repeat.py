"""Run one workload on several seeds and print each metric's median and spread.

    python3 bench/repeat.py --workload connected --seeds 1-10 [--trace 1]

The spread is the distance between the first and third quartiles as a
share of the median, which is what the bounds in BENCHMARK.json are
compared against.  timed_s is the time spent inside operations; the ratio
of its traced and untraced medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", default="12")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
        summary, result = lines[-2], json.loads(lines[-1])
        print(summary, f"correct={result['correct']}", flush=True)
        for key in ("timed_s", "timed_wall_s", "slowdown"):
            values.setdefault(key, []).append(float(summary.split(f" {key}=")[1].split()[0]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:44s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
