"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload study --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the program is imported from
``./src``, and scratch files go under ``./.perfbench``.  Workloads are
``study``, ``tune`` and ``variants`` (see ``perfbench/README.md``).

``--trace 0`` measures the end-to-end metrics: the set-up time (median of
several fresh interpreters that import the program and build the
workload's inputs), the timed phase, the warm replays, peak memory and
the on-disk store size.  Times are rescaled to the reference host's speed
(see ``hostspeed.py``).  ``--trace 1`` runs the timed phase with every
layer boundary traced, prints the per-layer table, writes the spans as
Chrome trace-event JSON to ``.perfbench/trace-<workload>.json`` and
reports the per-layer metrics.
Both modes check the outputs afterwards; the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 5
#: Environment switches that select non-default program paths; the
#: benchmark measures the defaults.
_MODE_VARIABLES = ("REPRO_COMPILE", "REPRO_MEASURE", "REPRO_JOBS")
#: Names, units and bounds of the metrics.
SPEC = HERE.parent / "BENCHMARK.json"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("study", "tune", "variants"))
    parser.add_argument("--seed", type=int, required=True,
                        help="picks the sampled correctness checks")
    parser.add_argument("--seconds", type=int, required=True,
                        help="measure whole rounds for about this long "
                             "(at least one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the benchmark's tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_workloads():
    """Import the program from ``./src`` (and nothing else) and the
    workloads module; exit 2 when the checkout has no program."""
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program at {src / 'repro'}; run from the root of "
              "a checkout", file=sys.stderr)
        raise SystemExit(2)
    for variable in _MODE_VARIABLES:
        os.environ.pop(variable, None)
    sys.path[:0] = [str(src), str(HERE)]
    import workloads
    return workloads


def time_setups(args: argparse.Namespace) -> List[float]:
    """:data:`SETUP_PROBES` set-ups, each in a fresh interpreter, timed
    from outside and rescaled to the reference host.

    The probes keep their bytecode in ``.perfbench/pycache``, filled by one
    untimed probe first, so that they import the program the same way
    whether or not the environment lets Python write bytecode next to the
    sources, and whatever stale bytecode sits there."""
    from hostspeed import kernel, rescale

    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", args.workload, "--size", args.size,
               "--seed", "0", "--seconds", "0"]
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(
        Path.cwd() / ".perfbench" / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL, env=env)
    setups = []
    for _ in range(SETUP_PROBES):
        before = kernel()
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL,
                       env=env)
        seconds = time.perf_counter() - start
        setups.append(rescale(seconds, before, kernel()))
    return setups


def measured_run(args, workloads, workload,
                 scratch: Path) -> Tuple[Dict[str, float], int]:
    from hostspeed import HostClock

    setups = time_setups(args)
    rounds = max(1, args.seconds // workloads.ROUND_SECONDS)
    results = []
    start = time.perf_counter()
    with HostClock() as host:
        for index in range(rounds):
            workloads.cold_start()
            results.append(workload.run(scratch / f"round-{index}",
                                        clock=host.now))
    print(f"host speed {host.speed():.3f} x reference "
          f"({len(host.samples)} samples over "
          f"{time.perf_counter() - start:.1f} s of wall time)")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "run_s": statistics.fmean(r["run_s"] for r in results),
        "replay_s": statistics.median(r["replay_s"] for r in results),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "cache_mb": results[-1]["cache_mb"],
    }, rounds


def traced_run(args, workloads, workload,
               scratch: Path) -> Tuple[Dict[str, float], int]:
    from hostspeed import HostClock
    from spans import Tracer, span_cost

    workloads.cold_start()
    with Tracer() as tracer:
        traced = workload.run(scratch / "traced", tracer=tracer)
    print(tracer.table())
    trace_path = Path.cwd() / ".perfbench" / f"trace-{args.workload}.json"
    tracer.write_chrome_trace(trace_path)
    print(f"trace: {trace_path} ({len(tracer)} spans)")
    metrics = tracer.metrics()
    metrics["trace.coverage"] = traced["covered_s"] / traced["run_s"]
    # The cold phase's spans times the cost of one, in reference-host
    # seconds: a second, untraced cold phase would differ from the traced
    # one by more through the host's speed than through the tracer.
    with HostClock() as host:
        cost = span_cost(host.now)
    metrics["trace.overhead_s"] = traced["spans"] * cost
    print(f"tracer: {1e6 * cost:.2f} us per span, {traced['spans']} spans "
          "in the cold phase")
    return metrics, 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    workloads = import_workloads()
    workload = workloads.WORKLOADS[args.workload](args.size)
    if args.setup_probe:
        return 0
    scratch = Path.cwd() / ".perfbench" / f"work-{os.getpid()}"
    try:
        run = traced_run if args.trace else measured_run
        values, rounds = run(args, workloads, workload, scratch)
        for line in workload.notes():
            print(line)
        start = time.perf_counter()
        errors = workload.check(random.Random(args.seed))
        print(f"checks: {len(errors)} failed, "
              f"{time.perf_counter() - start:.1f} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for error in errors:
        print(f"CHECK FAILED: {error}")
    declared = json.loads(SPEC.read_text())[
        "per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": not errors,
                      "attempted": rounds * workload.operations,
                      "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
