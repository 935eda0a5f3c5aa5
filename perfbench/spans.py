"""Span tracing of the program's layer boundaries, applied from outside.

The tracer wraps the public functions and methods listed in
:data:`BOUNDARIES` for the duration of a traced phase.  A function that
other modules imported by name (``from repro.passes.manager import
run_cleanup`` in ``repro.gpu.jit``, ``repro.core.trie``, ...) is replaced
in every loaded ``repro`` module that holds it, so calls through those
aliases are traced too.  The program's own files are never edited.

Each call becomes one span (name, start, end, parent) kept in memory.
Self time is a span's duration minus the time its child spans cover; the
program runs serially, so children never overlap and the subtraction is
exact.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

#: (span name, defining module, function or ``Class.method``).  Two entries
#: may share a name: both interpreters' ``run`` are ``ir.interp``.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("glsl.preprocess", "repro.glsl.preprocessor", "preprocess"),
    ("glsl.parse", "repro.glsl.parser", "parse_shader"),
    ("ir.lower", "repro.ir.lowering", "lower_shader"),
    ("ir.mem2reg", "repro.ir.mem2reg", "promote_to_ssa"),
    ("ir.clone", "repro.ir.clone", "clone_module"),
    ("ir.emit", "repro.ir.glsl_backend", "emit_glsl"),
    ("ir.interp", "repro.ir.interp", "Interpreter.run"),
    ("ir.interp", "repro.ir.interp_batch", "BatchedInterpreter.run"),
    ("passes.cleanup", "repro.passes.manager", "run_cleanup"),
    ("passes.flag_pass", "repro.passes.manager", "apply_flag_pass"),
    ("passes.pipeline", "repro.passes.manager", "run_passes"),
    ("core.frontend", "repro.core.pipeline", "ShaderCompiler.__init__"),
    ("core.walk", "repro.core.pipeline", "ShaderCompiler.all_variants"),
    ("core.compile", "repro.core.pipeline", "ShaderCompiler.compile"),
    ("gpu.frontend", "repro.gpu.jit", "shared_frontend"),
    ("gpu.jit", "repro.gpu.jit", "VendorJIT.compile"),
    ("gpu.jit_cached", "repro.gpu.jit", "VendorJIT.compile_cached"),
    ("gpu.cost", "repro.gpu.cost", "estimate_kernel"),
    ("analysis.static_cycles", "repro.analysis.cycle_analyzer",
     "arm_static_cycles"),
    ("harness.profile", "repro.harness.environment",
     "ShaderExecutionEnvironment.profile"),
    ("harness.protocol", "repro.harness.protocol", "run_protocol"),
    ("search.variants", "repro.search.engine",
     "EvaluationEngine.variants_for"),
    ("search.measure", "repro.search.engine", "EvaluationEngine.measure_many"),
    ("search.evaluate", "repro.search.engine", "EvaluationEngine.evaluate"),
    ("search.strategy", "repro.search.strategies", "SearchStrategy.search"),
    ("search.cache_get", "repro.search.cache", "ResultCache.get"),
    ("search.cache_get", "repro.search.cache", "ResultCache.get_variants"),
    ("search.cache_put", "repro.search.cache", "ResultCache.put"),
    ("search.cache_put", "repro.search.cache", "ResultCache.put_variants"),
    ("search.cache_save", "repro.search.cache", "ResultCache.save"),
    ("search.cache_load", "repro.search.cache", "ResultCache.__init__"),
    ("reporting.build", "repro.reporting.report", "ReportBuilder.build"),
)

#: Span names in table order, each once.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(n for n, _, _ in BOUNDARIES))

#: Per-call outcomes summed from return values: cache lookups that hit,
#: and unique variants per walk.
_OUTCOMES: Dict[str, Callable[[object], float]] = {
    "search.cache_get": lambda result: result is not None,
    "core.walk": lambda result: result.unique_count,
}


class Tracer:
    """In-memory span recorder around the functions in :data:`BOUNDARIES`.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original functions everywhere they were replaced.
    """

    def __init__(self) -> None:
        # One span per call, in call order, as parallel arrays (a traced
        # tune keeps ~0.5 M spans): name index into SPAN_NAMES, start and
        # end in perf_counter seconds, index of the parent span or -1.
        self._names = array("H")
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("l")
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: calls that made no traced call of their own (memo hits).
        self.leaf_calls: Dict[str, int] = defaultdict(int)
        self.outcomes: Dict[str, float] = defaultdict(float)
        #: summed duration of spans with no traced parent.
        self.root_s = 0.0
        # Open spans: [span index, seconds covered by children].
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation --------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, module_name, qualname in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._patch(owner, attr, self._wrap(name, original))
            if not path:
                self._patch_aliases(original, owner.__dict__[attr])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_aliases(self, original: object, wrapper: object) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        outcome = _OUTCOMES.get(name)
        code = SPAN_NAMES.index(name)
        starts, ends, stack = self._starts, self._ends, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            self._names.append(code)
            self._parents.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            start = clock()
            starts.append(start)
            stack.append([index, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                _, covered = stack.pop()
                duration = end - start
                ends[index] = end
                self.calls[name] += 1
                self.self_s[name] += duration - covered
                if stack:
                    stack[-1][1] += duration
                else:
                    self.root_s += duration
                if index == len(starts) - 1:
                    self.leaf_calls[name] += 1
            if outcome is not None:
                self.outcomes[name] += outcome(result)
            return result

        return traced

    # -- results -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._starts)

    def spans(self) -> Iterator[Tuple[str, float, float, int]]:
        """Every span as (name, start, end, parent index or -1)."""
        for code, start, end, parent in zip(self._names, self._starts,
                                            self._ends, self._parents):
            yield SPAN_NAMES[code], start, end, parent

    def metrics(self) -> Dict[str, float]:
        """``<span>.calls`` and ``<span>.self_s`` for every boundary, plus
        the hit and uniqueness ratios (0 where the layer made no call)."""
        out: Dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        out["gpu.frontend.hit_ratio"] = ratio(
            self.leaf_calls["gpu.frontend"], self.calls["gpu.frontend"])
        out["gpu.jit_cached.hit_ratio"] = ratio(
            self.leaf_calls["gpu.jit_cached"], self.calls["gpu.jit_cached"])
        out["search.cache.hit_ratio"] = ratio(
            self.outcomes["search.cache_get"], self.calls["search.cache_get"])
        out["core.walk.unique_ratio"] = ratio(
            self.outcomes["core.walk"], 256 * self.calls["core.walk"])
        return out

    def table(self) -> str:
        """The flat per-layer table: calls, self seconds, share of self."""
        total = sum(self.self_s.values()) or 1.0
        rows = [f"{'layer':<24}{'calls':>10}{'self s':>10}{'share':>8}"]
        for name in sorted(SPAN_NAMES, key=lambda n: -self.self_s[n]):
            rows.append(f"{name:<24}{self.calls[name]:>10}"
                        f"{self.self_s[name]:>10.3f}"
                        f"{100.0 * self.self_s[name] / total:>7.1f}%")
        return "\n".join(rows)

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto,
        about:tracing): one complete ("X") event per span, in microseconds
        from the first span's start."""
        origin = self._starts[0] if self._starts else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            # Formatted by hand (span names need no escaping): json.dumps
            # per event takes seconds on a traced tune's ~0.5 M spans.
            for index, (name, start, end, parent) in enumerate(self.spans()):
                handle.write(
                    f'{"," if index else ""}{{"name": "{name}", '
                    f'"cat": "{name.split(".")[0]}", "ph": "X", '
                    f'"ts": {round((start - origin) * 1e6, 3)}, '
                    f'"dur": {round((end - start) * 1e6, 3)}, '
                    f'"pid": 1, "tid": 1, '
                    f'"args": {{"id": {index}, "parent": {parent}}}}}\n')
            handle.write("]}\n")


def span_cost(clock: Callable[[], float], calls: int = 100_000,
              repeats: int = 5) -> float:
    """Seconds on *clock* that tracing adds to one call: a call of an empty
    function through a tracer's wrapper against a bare call, each timed
    over *calls* calls, the median of *repeats* differences."""

    def empty(value):
        return value

    traced = Tracer()._wrap("ir.emit", empty)
    costs = []
    for _ in range(repeats):
        start = clock()
        for value in range(calls):
            empty(value)
        middle = clock()
        for value in range(calls):
            traced(value)
        costs.append(((clock() - middle) - (middle - start)) / calls)
    return statistics.median(costs)
