"""Tests of the benchmark itself, on the tiny inputs: each workload runs
its timed phases and every correctness check end to end, traced and
untraced, in a few seconds.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(script: str, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    done = _run("perfbench/run.py", "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    result = _result(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    values = {name: metric["value"]
              for name, metric in result["metrics"].items()}
    if trace:
        assert 0.0 < values["trace.coverage"] <= 1.0
        trace_file = ROOT / ".perfbench" / f"trace-{workload}.json"
        events = json.loads(trace_file.read_text())["traceEvents"]
        assert len(events) == sum(
            value for name, value in values.items() if name.endswith(".calls"))
    else:
        assert all(value > 0 for value in values.values()), values


def test_run_without_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("perfbench/run.py", "--workload", "study", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_steady_prints_every_metric_against_its_bound():
    done = _run("perfbench/steady.py", "--workload", "variants", "--runs",
                "2", "--size", "tiny")
    assert "correct=True" in done.stdout, done.stdout + done.stderr
    table = done.stdout.split("metric", 1)[1]
    for metric in SPEC["end_to_end"]:
        assert f"\n{metric['name']} " in table


def test_tracer_self_times_add_up_and_aliases_restore():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import repro.gpu.jit as jit
        from repro.core.pipeline import ShaderCompiler
        from repro.corpus.generator import default_corpus
        from spans import Tracer
    finally:
        del sys.path[:2]

    original = jit.run_cleanup
    source = default_corpus(max_shaders=1)[0].source
    with Tracer() as tracer:
        assert jit.run_cleanup is not original
        ShaderCompiler(source).all_variants()
        jit.VendorJIT("probe").compile(source)
    assert jit.run_cleanup is original
    # The cleanup JIT steps reached through repro.gpu.jit's alias count.
    assert tracer.calls["passes.cleanup"] > tracer.calls["passes.flag_pass"]
    roots = sum(end - start for _, start, end, parent in tracer.spans()
                if parent == -1)
    assert sum(tracer.self_s.values()) == pytest.approx(roots, rel=1e-6)
    assert tracer.root_s == pytest.approx(roots, rel=1e-9)


def test_span_cost_is_a_small_positive_time():
    sys.path.insert(0, str(BENCH))
    try:
        from spans import span_cost
    finally:
        del sys.path[0]

    cost = span_cost(time.perf_counter, calls=2000)
    assert 0.0 < cost < 1e-3
