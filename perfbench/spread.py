"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload rw-mix --seeds 1-10

For every metric it prints the median, the quartiles (``statistics.quantiles``
with ``n=4``) and the inter-quartile distance as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  Runs are sequential, one
``run.py`` process each, with the benchmark's own ``run_seconds`` unless
``--seconds`` overrides it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or declared["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}
    samples: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        completed = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if completed.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed (exit {completed.returncode})\n"
                  f"{completed.stdout}{completed.stderr}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
        host = json.loads(next(line for line in lines if line.startswith("# host "))[7:])
        print(f"seed {seed}: " + ", ".join(f"{name}={metric['value']:.4g}"
                                           for name, metric in result["metrics"].items())
              + f" (calibration {host['calibration_s']:.3f} s)", flush=True)
    for name, values in samples.items():
        middle = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = middle
        share = (q3 - q1) / middle if middle else 0.0
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f" bound {bound:.2f} " + ("ok" if share < bound / 3 else
                                      "within bound" if share <= bound else "TOO WIDE"))
        print(f"{name}: median {middle:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {share:.3f}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
