"""Steadiness check: run one workload repeatedly and compare the spread of
every end-to-end metric with its bound in ``BENCHMARK.json``.

    python3 perfbench/steady.py --workload study --runs 10

Each run is ``perfbench/run.py --trace 0`` for ``run_seconds`` (from
``BENCHMARK.json``) with its own ``--seed`` (1, 2, ...).  For each metric
it prints the median, the quartiles (``statistics.quantiles(values,
n=4)``), the spread ``(q3 - q1) / median`` and the metric's bound, and
suggests a bound of three times the spread (at most 0.25), the margin the
bounds were set with.  Raw values go to
``.perfbench/steady-<workload>.json``.  Exits 1 when a run fails or is
incorrect, the share of failed operations differs between runs, or a
spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, size: str) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
               "--size", size]
    done = subprocess.run(command, check=True, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["log"] = [line for line in lines[:-1]
                     if line.startswith(("host speed", "checks:"))]
    return result


def summarize(values: List[float], bound: float) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound,
            "suggested": min(0.25, math.ceil(300 * spread) / 100)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("study", "tune", "variants"))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    for seed in range(1, args.runs + 1):
        result = run_once(args.workload, seed, spec["run_seconds"], args.size)
        results.append(result)
        shown = ", ".join(f"{name}={metric['value']:.4g}"
                          for name, metric in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {shown}; "
              + "; ".join(result["log"]), flush=True)

    out = Path.cwd() / ".perfbench" / f"steady-{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")

    ok = all(r["correct"] for r in results)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{args.workload}: {args.runs} runs, correct={ok}, "
          f"failed shares {sorted(shares)}")
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}{'suggest':>9}")
    for name, bound in bounds.items():
        row = summarize([r["metrics"][name]["value"] for r in results], bound)
        print(f"{name:<14}{row['median']:>12.5g}{row['q1']:>12.5g}"
              f"{row['q3']:>12.5g}{row['spread']:>9.4f}{bound:>8.2f}"
              f"{row['suggested']:>9.2f}")
        if row["spread"] > bound:
            ok = False
    return 0 if ok and len(shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
