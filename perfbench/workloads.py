"""The benchmark's three workloads: ``study``, ``tune`` and ``variants``.

Each workload builds its inputs in ``__init__`` (the set-up).  Its
:meth:`run` times a cold phase through the program's public calls
(``run_s``), stores the results on disk (``cache_mb``) and times warm
replays from that store (``replay_s``).
:meth:`check` then checks the outputs of the last :meth:`run`, outside
the timed phases.  The timed work is fixed: corpora, synth seed, study
seed and search seed are constants, so every run times the same work.
The benchmark's ``--seed`` picks which outputs the sampled checks
recompute.
"""

from __future__ import annotations

import gc
import hashlib
import random
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.analysis.speedups import average_speedups
from repro.core.pipeline import ShaderCompiler, optimize_source
from repro.corpus.generator import default_corpus
from repro.gpu.jit import clear_frontend_memo
from repro.gpu.platform import all_platforms, platform_by_name
from repro.harness.environment import ShaderExecutionEnvironment
from repro.harness.study import StudyConfig, run_study
from repro.ir.fingerprint import clear_fingerprint_cache
from repro.passes import ALL_FLAG_NAMES, DEFAULT_LUNARGLASS, OptimizationFlags
from repro.reporting.report import ReportBuilder, all_artifacts
from repro.reporting.textfmt import render_spec_text
from repro.search.cache import ResultCache, source_digest
from repro.search.engine import EvaluationEngine
from repro.search.strategies import make_strategy

#: The paper study's measurement seed and the synth seed of the variants
#: corpus (the CLI defaults), and the tune search and measurement seed.
STUDY_SEED = 2018
SYNTH_SEED = 2018
SEARCH_SEED = 7

#: Input sizes.  ``full`` is what the benchmark measures; ``tiny`` runs the
#: same code paths and checks in seconds, for the benchmark's own tests.
SIZES: Dict[str, Dict[str, Dict[str, Optional[int]]]] = {
    "full": {
        # 50 shaders x 5 platforms.
        "study": {"max_shaders": None, "replays": 4},
        # With search seed 7 at budget 32, each platform's pass sends
        # 277-286 distinct texts to the JIT, more than the 256 its
        # front-end memo holds by 8% or more, as the CLI's default budget
        # of 64 does.
        "tune": {"max_shaders": None, "budget": 32, "replays": 10},
        # 50 corpus shaders + 40 synth families (164 shaders).
        "variants": {"max_shaders": None, "synth_count": 40, "replays": 10},
    },
    "tiny": {
        "study": {"max_shaders": 3, "replays": 2},
        "tune": {"max_shaders": 3, "budget": 4, "replays": 2},
        "variants": {"max_shaders": 4, "synth_count": 1, "replays": 2},
    },
}

#: Nominal length of one full-size round; ``--seconds`` buys as many whole
#: rounds as fit, and at least one.
ROUND_SECONDS = 30

_ADCE_BIT = 1 << ALL_FLAG_NAMES.index("adce")


def cold_start() -> None:
    """Drop the process-wide memos, as a fresh process starts: the JIT
    front-end and compiled-module memos, the fingerprint LRU and the
    source-digest memo."""
    clear_frontend_memo()
    clear_fingerprint_cache()
    source_digest.cache_clear()
    gc.collect()


class _Window:
    """Duration of a timed phase on *clock*, and the seconds of it the
    tracer's top-level spans cover and the spans it made."""

    def __init__(self, clock: Callable[[], float], tracer=None):
        self.clock = clock
        self.tracer = tracer

    def __enter__(self) -> "_Window":
        self._root, self._spans = self._traced()
        self._start = self.clock()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = self.clock() - self._start
        root, spans = self._traced()
        self.covered = root - self._root
        self.spans = spans - self._spans

    def _traced(self):
        if self.tracer is None:
            return 0.0, 0
        return self.tracer.root_s, len(self.tracer)


def _sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class _Workload:
    """The shared shape: a timed cold phase (``_cold``) that leaves a store
    on disk (``_store``), then timed warm replays from it (``_replay``).
    Each replay is checked as soon as its time is taken and then dropped,
    so peak memory is the program's, not the replays' kept together."""

    name = ""
    store_name = ""

    def run(self, workdir: Path, clock: Callable[[], float] = time.perf_counter,
            tracer=None) -> Dict[str, float]:
        """``run_s``, ``cache_mb`` and the median ``replay_s``; when traced,
        ``covered_s`` is the traced share of ``run_s`` and ``spans`` the
        spans the cold phase made."""
        with _Window(clock, tracer) as window:
            self._cold(workdir)
        store = self._store(workdir)
        metrics = {"run_s": window.seconds, "covered_s": window.covered,
                   "spans": window.spans,
                   "cache_mb": store.stat().st_size / 1e6}
        self.replay_errors: List[str] = []
        times = []
        for index in range(self.replay_count):
            cold_start()
            start = clock()
            replay = self._replay(workdir, index)
            times.append(clock() - start)
            self.replay_errors += [f"replay {index}: {error}" for error
                                   in self._check_replay(replay)]
        metrics["replay_s"] = statistics.median(times)
        return metrics

    def _store(self, workdir: Path) -> Path:
        return workdir / self.store_name

    def notes(self) -> List[str]:
        """Lines on the last :meth:`run`'s inputs, printed with the result."""
        return []


class StudyWorkload(_Workload):
    """The paper's exhaustive study, cold into an on-disk result cache,
    then ``repro report`` replayed warm from that cache."""

    name = "study"
    store_name = "cache.json"

    def __init__(self, size: str):
        params = SIZES[size][self.name]
        self.corpus = default_corpus(max_shaders=params["max_shaders"])
        self.replay_count = params["replays"]
        self.operations = len(self.corpus)

    def _cold(self, workdir: Path) -> None:
        self.config = StudyConfig(seed=STUDY_SEED, max_workers=1,
                                  cache_path=str(self._store(workdir)))
        self.cold = run_study(self.corpus, self.config)

    def _replay(self, workdir: Path, index: int):
        builder = ReportBuilder(config=self.config)
        study = builder.run_study(self.corpus)
        report = builder.build(study)
        return builder.engine, study, report, report.write(
            workdir / f"report-{index}")

    def _check_replay(self, replay) -> List[str]:
        engine, study, report, paths = replay
        errors: List[str] = []
        if study.to_json() != self.cold.to_json():
            errors.append("StudyResult JSON differs from the cold study")
        work = (engine.frontend_count, engine.compile_count,
                engine.measure_count)
        if work != (0, 0, 0):
            errors.append(f"engine did {work} front-ends/compiles/measures "
                          "(want 0)")
        names = [artifact.name for artifact in all_artifacts()]
        if [s.artifact.name for s in report.sections] != names:
            errors.append("not every artifact built")
        for section in report.sections:
            if not section.specs or not all(
                    render_spec_text(spec).strip() for spec in section.specs):
                errors.append(f"artifact {section.artifact.name} renders "
                              "empty")
        for path in paths.values():
            text = path.read_text(encoding="utf-8")
            missing = [n for n in names if f'id="{n}"' not in text]
            if missing:
                errors.append(f"{path.name} lacks {', '.join(missing)}")
        return errors

    def check(self, rng: random.Random) -> List[str]:
        errors = list(self.replay_errors)
        study = self.cold
        for shader in study.shaders:
            indices = sorted(i for v in shader.variants for i in v.flag_indices)
            if indices != list(range(256)):
                errors.append(f"{shader.name}: variants do not partition "
                              "flag indices 0-255")
            hashes = [v.text_hash for v in shader.variants]
            if len(set(hashes)) != len(hashes):
                errors.append(f"{shader.name}: variant text hashes repeat")

        cases = {case.name: (position, case)
                 for position, case in enumerate(self.corpus)}
        for _ in range(min(6, len(study.shaders))):
            shader = rng.choice(study.shaders)
            flag_index = rng.randrange(256)
            variant = next(v for v in shader.variants
                           if flag_index in v.flag_indices)
            text = optimize_source(cases[shader.name][1].source,
                                   OptimizationFlags.from_index(flag_index))
            if _sha16(text) != variant.text_hash:
                errors.append(f"{shader.name} flags {flag_index}: "
                              "optimize_source hash differs from the study's")

        errors += self._check_scalar(rng, cases)
        errors += self._check_speedups()
        return errors

    def _check_scalar(self, rng: random.Random, cases) -> List[str]:
        """Re-measure sampled units with the scalar reference interpreter."""
        # The study's per-unit measurement seed recipe.
        from repro.harness.study import _variant_seed

        errors: List[str] = []
        for _ in range(min(6, len(self.cold.shaders))):
            shader = rng.choice(self.cold.shaders)
            position, case = cases[shader.name]
            platform = rng.choice(self.cold.platforms)
            variant = rng.choice([None] + shader.variants)
            if variant is None:
                text, variant_id = case.source, -1
                recorded = shader.original_times_ns[platform]
            else:
                text = optimize_source(case.source, OptimizationFlags.from_index(
                    min(variant.flag_indices)))
                if _sha16(text) != variant.text_hash:
                    errors.append(f"{shader.name} variant "
                                  f"{variant.variant_id}: text hash differs")
                variant_id = variant.variant_id
                recorded = variant.times_ns[platform]
            seed = _variant_seed(STUDY_SEED, position, variant_id)
            env = ShaderExecutionEnvironment(platform_by_name(platform))
            scalar = env.run(text, seed, mode="scalar").measurement.mean_ns
            if scalar != recorded:
                errors.append(f"{shader.name} variant {variant_id} on "
                              f"{platform}: scalar {scalar!r} != study "
                              f"{recorded!r}")
        return errors

    def _check_speedups(self) -> List[str]:
        """Recompute Fig. 5 from raw ``times_ns``: best possible >= best
        static >= default LunarGlass, and the program's figures agree."""
        errors: List[str] = []
        program = {row.platform: row for row in average_speedups(self.cold)}
        count = len(self.cold.shaders)
        for platform in self.cold.platforms:
            per_index = [0.0] * 256
            best_sum = 0.0
            for shader in self.cold.shaders:
                original = shader.original_times_ns[platform]
                pcts = [0.0] * 256
                for variant in shader.variants:
                    pct = (original / variant.times_ns[platform] - 1.0) * 100.0
                    for flag_index in variant.flag_indices:
                        pcts[flag_index] = pct
                best_sum += max(pcts)
                per_index = [a + b for a, b in zip(per_index, pcts)]
            best = best_sum / count
            static = max(per_index) / count
            default = per_index[DEFAULT_LUNARGLASS.index] / count
            if not best >= static >= default:
                errors.append(f"{platform}: best {best} >= static {static} "
                              f">= default {default} does not hold")
            row = program[platform]
            for label, mine, theirs in (
                    ("best possible", best, row.best_possible),
                    ("best static", static, row.best_static),
                    ("default", default, row.default_lunarglass)):
                if abs(mine - theirs) > 1e-9 * max(1.0, abs(mine)):
                    errors.append(f"{platform}: {label} {theirs} != "
                                  f"recomputed {mine}")
        return errors


class TuneWorkload(_Workload):
    """``repro tune --strategy genetic --no-reference --cache FILE`` on
    every platform over the full default corpus, then the same tune
    replayed warm from that cache."""

    name = "tune"
    store_name = "tune-cache.json"

    def __init__(self, size: str):
        params = SIZES[size][self.name]
        self.corpus = default_corpus(max_shaders=params["max_shaders"])
        self.budget = params["budget"]
        self.replay_count = params["replays"]
        self.platforms = all_platforms()
        self.operations = len(self.platforms)

    def _tune(self, workdir: Path):
        engine = EvaluationEngine(platforms=self.platforms, seed=SEARCH_SEED,
                                  cache=ResultCache(self._store(workdir)))
        strategy = make_strategy("genetic", seed=SEARCH_SEED)
        outcomes = [strategy.search(engine.corpus_objective(
                        self.corpus, platform.name), budget=self.budget)
                    for platform in self.platforms]
        engine.cache.save()
        return engine, outcomes

    def _cold(self, workdir: Path) -> None:
        self.engine, self.outcomes = self._tune(workdir)

    def _replay(self, workdir: Path, index: int):
        return self._tune(workdir)

    def _check_replay(self, replay) -> List[str]:
        engine, outcomes = replay
        errors: List[str] = []
        if outcomes != self.outcomes:
            errors.append("search outcomes differ from the cold tune")
        work = (engine.frontend_count, engine.compile_count,
                engine.measure_count)
        if work != (0, 0, 0):
            errors.append(f"engine did {work} front-ends/compiles/measures "
                          "(want 0)")
        return errors

    def notes(self) -> List[str]:
        """How many distinct texts each platform's search sent to the JIT,
        against the 256 texts its front-end memo holds: the workload is
        chosen to stay well above it (see the README)."""
        counts = []
        for outcome in self.outcomes:
            texts = {case.source for case in self.corpus}
            texts.update(self.engine.text_for(case.source, index)
                         for index, _ in outcome.history
                         for case in self.corpus)
            counts.append(len(texts))
        return [f"tune: distinct JIT texts per platform {counts} "
                "(the JIT front-end memo holds 256)"]

    def check(self, rng: random.Random) -> List[str]:
        errors = list(self.replay_errors)
        for platform, outcome in zip(self.platforms, self.outcomes):
            scores = dict(outcome.history)
            if len(outcome.history) > self.budget or \
                    len(scores) != len(outcome.history):
                errors.append(f"{platform.name}: {len(outcome.history)} "
                              f"evaluations for budget {self.budget}")
            if scores.get(outcome.best_index) != outcome.best_score or \
                    outcome.best_score != max(scores.values()):
                errors.append(f"{platform.name}: best score is not the "
                              "maximum of the search history")

        for case in rng.sample(self.corpus, min(6, len(self.corpus))):
            walk = ShaderCompiler(case.source).all_variants().index_to_text
            for platform, outcome in zip(self.platforms, self.outcomes):
                measured = self.engine.text_for(case.source, outcome.best_index)
                if measured != walk[outcome.best_index]:
                    errors.append(f"{case.name} on {platform.name}: measured "
                                  f"text for flags {outcome.best_index} "
                                  "differs from the trie walk's")

        # The corpus mean, remeasured on the scalar reference path, in the
        # objective's own summation order.
        for position in sorted(rng.sample(range(len(self.platforms)), 2)):
            platform = self.platforms[position]
            outcome = self.outcomes[position]
            env = ShaderExecutionEnvironment(platform)
            total = 0.0
            for case in self.corpus:
                text = self.engine.text_for(case.source, outcome.best_index)
                original = env.run(case.source, SEARCH_SEED,
                                   mode="scalar").measurement.mean_ns
                mean = env.run(text, SEARCH_SEED,
                               mode="scalar").measurement.mean_ns
                total += (original / mean - 1.0) * 100.0
            score = total / len(self.corpus)
            if score != outcome.best_score:
                errors.append(f"{platform.name}: scalar corpus mean {score!r}"
                              f" != reported {outcome.best_score!r}")
        return errors


class VariantsWorkload(_Workload):
    """The offline 256-combination walk (the LunarGlass role, Fig. 4c) over
    the default corpus plus synthesized übershader families; the variant
    sets are then stored as the study stores them and read back warm."""

    name = "variants"
    store_name = "variants-cache.json"

    def __init__(self, size: str):
        params = SIZES[size][self.name]
        self.corpus = default_corpus(max_shaders=params["max_shaders"],
                                     synth_seed=SYNTH_SEED,
                                     synth_count=params["synth_count"])
        self.replay_count = params["replays"]
        self.operations = len(self.corpus)

    def _cold(self, workdir: Path) -> None:
        self.walks = [ShaderCompiler(case.source).all_variants()
                      for case in self.corpus]

    def _store(self, workdir: Path) -> Path:
        """Untimed: store the sets in the study's variant-set format."""
        path = super()._store(workdir)
        store = ResultCache(path)
        for case, walk in zip(self.corpus, self.walks):
            store.put_variants(source_digest(case.source), walk.index_to_text)
        store.save()
        return path

    def _replay(self, workdir: Path, index: int):
        engine = EvaluationEngine(cache=ResultCache(workdir / self.store_name))
        return engine, [engine.variants_for(case) for case in self.corpus]

    def _check_replay(self, replay) -> List[str]:
        engine, sets = replay
        if engine.compile_count or any(
                got.index_to_text != walk.index_to_text
                or got.unique_count != walk.unique_count
                for got, walk in zip(sets, self.walks)):
            return ["variant sets differ from the walk or were recompiled"]
        return []

    def check(self, rng: random.Random) -> List[str]:
        errors = list(self.replay_errors)
        for case, walk in zip(self.corpus, self.walks):
            texts = walk.index_to_text
            if sorted(texts) != list(range(256)):
                errors.append(f"{case.name}: walk misses flag indices")
                continue
            # Paper Sec. VI-D-1: ADCE never changes the emitted text.
            changed = [i for i in range(256)
                       if i & _ADCE_BIT and texts[i] != texts[i & ~_ADCE_BIT]]
            if changed:
                errors.append(f"{case.name}: the ADCE bit changes the text "
                              f"at flags {changed[:4]}")
        for position in rng.sample(range(len(self.corpus)),
                                   min(2, len(self.corpus))):
            case = self.corpus[position]
            naive = ShaderCompiler(case.source).all_variants(mode="naive")
            if naive.index_to_text != self.walks[position].index_to_text:
                errors.append(f"{case.name}: trie walk differs from the "
                              "naive 256-pipeline compile")
        return errors


WORKLOADS = {w.name: w for w in (StudyWorkload, TuneWorkload, VariantsWorkload)}
