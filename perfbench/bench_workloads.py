"""The benchmark's workloads, their timed operations and their checks.

All load comes from this one process: one closed-loop caller, no threads,
no pools. The library is driven only through ``pipeline.run_pipeline``
(with a JSON config file, as the CLI does) and ``esa.relatedness``; the
corpus generators and ``build_index`` serve set-up. See README.md for why
each workload exists.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from time import perf_counter

import numpy as np

from wikistrata import corpus, esa, pipeline
from wikistrata.textproc import Analyzer, build_vocabulary

from bench_clock import SpeedClock
from bench_corpora import CYCLIC_FULL, TREE_FULL, describe, gen_cyclic_wiki
from bench_oracle import TOL, ConceptSpace, check_baseline, check_unit_or_zero
from bench_trace import Tracer, metric_names

WORKLOADS = ("cold-tree", "cyclic-file", "lambda-session")

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("rerun_hit_s", "s"),
    ("read_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("cache_mb", "MB"),
    ("acc_baseline", "ratio"),
    ("acc_stratified", "ratio"),
)
# Reported next to the per-layer metrics of a traced run.
TRACE_EXTRA = (
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
    ("read.p90_ms", "ms"),
    ("read.p99_ms", "ms"),
    ("machine.probe_s", "s"),
    ("input.pages", "count"),
    ("input.categories", "count"),
    ("input.inclusion_edges", "count"),
    ("input.planted_cycles", "count"),
    ("input.census_cycles", "count"),
)

HALF = (0.5, 0.25, 0.125)
# A lambda-session cycle: three lambda-only changes, then back to the
# primed setting, whose artifacts must come back byte for byte.
LAMBDA_CYCLE = (
    ("tenth", (0.1, 0.05, 0.025)),
    ("flat", (1.0, 1.0, 1.0)),
    ("custom", (0.3, 0.2, 0.1)),
    ("half", HALF),
)
STAGES = ("ingest", "filter", "vocab", "index", "catvecs", "weights", "arborify",
          "vectorize_baseline", "vectorize_stratified", "evaluate")
LAMBDA_STAGES = ("vectorize_stratified", "evaluate")
ARTIFACTS = ("corpus.jsonl", "labels.tsv", "filtered.jsonl", "vocab.tsv", "index.tsv",
             "catweights.tsv", "catvecs.esvs", "pagevecs.esvs", "weights.tsv",
             "arborescence.tsv", "baseline.esvs", "stratified.esvs")

# Checks call the library only through this reference, which tracing
# never replaces.
_relatedness = esa.relatedness


@dataclass(frozen=True)
class Sizes:
    """Input sizes and op counts of a run."""

    tree: dict             # gen_synthetic_wiki parameters, seed excluded
    cyclic: dict           # gen_cyclic_wiki parameters, seed excluded
    queries: int           # relatedness queries per lambda-session cycle
    query_bursts: int      # ... split into this many bursts
    session_hits: int      # unchanged reruns per lambda-session cycle
    setup_repeats: int     # set-up repeats whose median is setup_s


FULL = Sizes(tree=TREE_FULL, cyclic=CYCLIC_FULL, queries=4000, query_bursts=8, session_hits=6,
             setup_repeats=9)

HIT_RERUNS = 6     # unchanged reruns after each cold run
SETUP_BATCH = 10   # set-ups timed together in one setup_s sample
CHECK_PAGES = 32   # pages sampled per baseline-vector check
CHECK_EVERY = 20   # one relatedness query in this many is checked


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def _digests(cache: Path) -> dict[str, str]:
    return {name: hashlib.sha256((cache / name).read_bytes()).hexdigest() for name in ARTIFACTS}


def _accuracies(result) -> tuple[float, float]:
    return (result.reports["baseline"].mean_accuracy, result.reports["stratified"].mean_accuracy)


def _stage_problems(result, expect_run) -> list[str]:
    got = dict(result.stages)
    want = {s: "run" if s in expect_run else "hit" for s in STAGES}
    return [] if got == want else [f"stage statuses {got} != {want}"]


class Run:
    """One benchmark process: set-up, timed units of work, checks, metrics.

    A unit is one cold run plus its unchanged reruns (cold-tree,
    cyclic-file) or one lambda-session cycle. With tracing on, units
    alternate untraced and traced; the untraced ones give the overhead.
    """

    def __init__(self, workload: str, seed: int, sizes: Sizes, workdir: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.dir = workdir
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # (kind, traced) -> (start, end) of each successful op
        self.intervals: dict[tuple[str, bool], list[tuple[float, float]]] = defaultdict(list)
        self.clock = SpeedClock()
        self.cache_bytes: list[int] = []
        self.inputs: dict[str, int] = {}
        self.traced = False
        self.tracer = Tracer()
        self.units = 0
        self.space = None       # ConceptSpace of the current cache's index.tsv
        self.expected = None    # (digests, accuracies) every cold run must reproduce
        self.accuracy = None
        self.peak_kib = None    # ru_maxrss after the first pipeline run

    # -- configs ------------------------------------------------------------

    def _config(self, name: str, cache: Path, lambdas=HALF) -> str:
        if self.workload == "cyclic-file":
            source = {"path": str(self.dir / "corpus.jsonl"), "labels": str(self.dir / "labels.tsv")}
        else:
            source = {"synthetic": dict(self.sizes.tree, seed=self.seed)}
        path = self.dir / f"{name}.json"
        path.write_text(json.dumps({"corpus": source, "cache": {"dir": str(cache)},
                                    "strata": {"lambdas": list(lambdas)}}))
        return str(path)

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        if self.workload == "lambda-session":
            start = perf_counter()
            self._setup_session()
            self.intervals["setup", False].append((start, perf_counter()))
            return
        # Only library work is timed: generating the tree corpus, or
        # serializing the cyclic one and writing its files. A set-up takes
        # a few milliseconds, so each sample times SETUP_BATCH of them.
        if self.workload == "cyclic-file":
            store, labels, planted = gen_cyclic_wiki(self.seed, **self.sizes.cyclic)
            labels_tsv = "".join(f"{pid}\t{labels[pid]}\n" for pid in sorted(labels))
        for _ in range(self.sizes.setup_repeats):
            gc.collect()
            start = perf_counter()
            for _ in range(SETUP_BATCH):
                if self.workload == "cold-tree":
                    store, _labels = corpus.gen_synthetic_wiki(self.seed, **self.sizes.tree)
                else:
                    (self.dir / "corpus.jsonl").write_text(corpus.serialize_corpus(store),
                                                           encoding="utf-8")
                    (self.dir / "labels.tsv").write_text(labels_tsv, encoding="utf-8")
            self.intervals["setup", False].append((start, perf_counter()))
        self.inputs = describe(store, len(planted) if self.workload == "cyclic-file" else 0)

    def _setup_session(self) -> None:
        """Prime a cache with one cold run and build an index for queries."""
        store, _labels = corpus.gen_synthetic_wiki(self.seed, **self.sizes.tree)
        self.inputs = describe(store, 0)
        self.cache = self.dir / "session-cache"
        self.session_cfgs = {name: self._config(name, self.cache, lambdas)
                             for name, lambdas in LAMBDA_CYCLE}
        primed = pipeline.run_pipeline(self.session_cfgs["half"])
        self._note_peak()
        problems = self._check_cold(primed, self.cache)
        if problems:
            raise RuntimeError("priming run failed its checks: " + "; ".join(problems))
        self.primed_stratified = (self.cache / "stratified.esvs").read_bytes()
        self.accuracy = self.session_accuracy = _accuracies(primed)
        filtered = corpus.parse_corpus((self.cache / "filtered.jsonl").read_text(encoding="utf-8"))
        analyzer = Analyzer()
        self.index = esa.build_index(filtered, analyzer, build_vocabulary(filtered, analyzer, 1))
        # Zipf over the non-junk terms ranked by document frequency: the
        # most common words are asked about most.
        voc = self.index.vocabulary
        terms = sorted((tid for tid, term in enumerate(voc.id_to_term)
                        if not term.startswith("junk")), key=lambda tid: (-voc.df(tid), tid))
        self.zipf = (terms, list(accumulate(1.0 / (rank + 1) for rank in range(len(terms)))))

    # -- ops ----------------------------------------------------------------

    def _op(self, kind: str, fn, check):
        """Time one op. A raised error or a failed check marks it failed."""
        self.attempted += 1
        if kind != "query":
            # A full collection now keeps one inside the op from depending
            # on what earlier ops left behind.
            gc.collect()
        start = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failing op is counted, not fatal
            self._fail(kind, [f"{type(exc).__name__}: {exc}"])
            return None
        self.intervals[kind, self.traced].append((start, perf_counter()))
        if kind == "run":
            self._note_peak()
        try:
            problems = check(out)
        except Exception as exc:  # unreadable output fails the op, not the run
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self._fail(kind, problems)
        return out

    def _note_peak(self) -> None:
        """Read the peak RSS once, after the first pipeline run and before
        its check builds the dense oracle, so the oracle never sets it."""
        if self.peak_kib is None:
            self.peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def _fail(self, kind: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"{kind} op {self.attempted}: {p}" for p in problems]

    def _sample(self) -> list[int]:
        pages = self.space.page_ids
        return sorted(random.Random(self.seed).sample(pages, min(CHECK_PAGES, len(pages))))

    def _check_cold(self, result, cache: Path) -> list[str]:
        problems = _stage_problems(result, STAGES)
        self.space = ConceptSpace(cache / "index.tsv")
        problems += check_baseline(cache, self.space, self._sample())
        problems += check_unit_or_zero(cache / "stratified.esvs")
        observed = (_digests(cache), _accuracies(result))
        baseline, stratified = observed[1]
        if self.workload != "cyclic-file" and not stratified > baseline:
            # The paper's claim. On the tree corpus, stratified beat
            # baseline by at least 0.07 on each of 66 seeds tried.
            problems.append(f"stratified accuracy {stratified} does not beat baseline {baseline}")
        if self.expected is None:
            self.expected = observed
        elif observed != self.expected:
            problems.append("cold run artifacts or accuracies differ from the first cold run")
        return problems

    def _check_hit(self, result, cache: Path, accuracy) -> list[str]:
        problems = _stage_problems(result, ())
        problems += check_baseline(cache, self.space, self._sample())
        if _accuracies(result) != accuracy:
            problems.append(f"rerun accuracies {_accuracies(result)} != {accuracy}")
        return problems

    def _check_lambda(self, result, name: str) -> list[str]:
        self.session_accuracy = _accuracies(result)
        problems = _stage_problems(result, LAMBDA_STAGES)
        problems += check_unit_or_zero(self.cache / "stratified.esvs")
        if name == "half":
            if (self.cache / "stratified.esvs").read_bytes() != self.primed_stratified:
                problems.append("returning to half did not reproduce the primed stratified.esvs")
            if _accuracies(result) != self.accuracy:
                problems.append(f"returning to half gave accuracies {_accuracies(result)}")
        return problems

    def cold_op(self, cache: Path) -> str:
        """One cold run into an empty cache; returns its config path."""
        cfg = self._config("cold", cache)
        result = self._op("run", lambda: pipeline.run_pipeline(cfg),
                          lambda r: self._check_cold(r, cache))
        if result is not None:
            self.cache_bytes.append(_dir_bytes(cache))
            self.accuracy = _accuracies(result)
        return cfg

    def hit_op(self, cache: Path, cfg: str, accuracy) -> None:
        """One unchanged rerun: every stage must hit and reproduce ``accuracy``."""
        self._op("hit", lambda: pipeline.run_pipeline(cfg),
                 lambda r: self._check_hit(r, cache, accuracy))

    def query_op(self, a: int, b: int, check: bool) -> None:
        def verify(value):
            if not check:
                return []
            want = self.space.relatedness(a, b)
            back = _relatedness(self.index, b, a)
            if abs(value - want) <= TOL and abs(value - back) <= TOL:
                return []
            return [f"relatedness({a}, {b}) = {value!r}, numpy {want!r}, reversed {back!r}"]

        self._op("query", lambda: esa.relatedness(self.index, a, b), verify)

    # -- units --------------------------------------------------------------

    def _cold_unit(self) -> None:
        cache = self.dir / f"cache{self.units}"
        self.space = None  # let the last unit's dense oracle go before the run
        cfg = self.cold_op(cache)
        for _ in range(HIT_RERUNS):
            self.hit_op(cache, cfg, self.accuracy)
        shutil.rmtree(cache, ignore_errors=True)

    def _session_unit(self) -> None:
        s = self.sizes
        fillers = ["hit"] * s.session_hits + ["query"] * s.query_bursts
        self.rng.shuffle(fillers)
        terms, cum_weights = self.zipf
        burst = s.queries // s.query_bursts
        n_queries = 0
        for i, (name, _lambdas) in enumerate(LAMBDA_CYCLE):
            cfg = self.session_cfgs[name]
            result = self._op("run", lambda: pipeline.run_pipeline(cfg),
                              lambda r: self._check_lambda(r, name))
            if result is not None:
                self.cache_bytes.append(_dir_bytes(self.cache))
            for filler in fillers[i::len(LAMBDA_CYCLE)]:
                if filler == "hit":
                    self.hit_op(self.cache, cfg, self.session_accuracy)
                    continue
                with self.clock.paused():
                    for _ in range(burst):
                        a, b = self.rng.choices(terms, cum_weights=cum_weights, k=2)
                        while b == a:
                            b = self.rng.choices(terms, cum_weights=cum_weights)[0]
                        self.query_op(a, b, n_queries % CHECK_EVERY == 0)
                        n_queries += 1

    def measure(self, seconds: float, trace: bool) -> None:
        unit = self._session_unit if self.workload == "lambda-session" else self._cold_unit
        start = perf_counter()
        while True:
            self.traced = trace and self.units % 2 == 1
            if self.traced:
                self.tracer.install()
            try:
                unit()
            finally:
                self.tracer.uninstall()
            self.units += 1
            if perf_counter() - start >= seconds and (not trace or self.units >= 2):
                break
        self.traced = False

    # -- report -------------------------------------------------------------

    def times(self, kind: str, traced: bool = False) -> list[float]:
        """The op times of one kind, in reference-speed seconds."""
        return [self.clock.scaled(start, end) for start, end in self.intervals[kind, traced]]

    def _median(self, kind: str, traced: bool = False) -> float:
        return statistics.median(self.times(kind, traced))

    def _reads_ms(self) -> np.ndarray:
        """Untraced latencies of the read-only op: queries, or unchanged reruns."""
        kind = "query" if self.workload == "lambda-session" else "hit"
        return np.array(self.times(kind)) * 1e3

    def end_to_end(self) -> dict[str, float]:
        reads_ms = self._reads_ms()
        batch = 1 if self.workload == "lambda-session" else SETUP_BATCH
        return {
            "setup_s": self._median("setup") / batch,
            "run_s": self._median("run"),
            "rerun_hit_s": self._median("hit"),
            "read_p50_ms": float(np.percentile(reads_ms, 50)),
            "peak_rss_mb": self.peak_kib / 1024,
            "cache_mb": statistics.median(self.cache_bytes) / 1e6,
            "acc_baseline": self.accuracy[0],
            "acc_stratified": self.accuracy[1],
        }

    def per_layer(self) -> dict[str, float]:
        traced_units = self.units // 2
        out = self.tracer.metrics(traced_units)
        # Raw wall time, the clock the spans use, so layer shares can be read off.
        out["trace.run_s"] = statistics.median(end - start for start, end in self.intervals["run", True])
        out["trace.overhead_s"] = self._median("run", traced=True) - self._median("run")
        out["machine.probe_s"] = self.clock.median_probe
        # Tail latencies repeat too poorly across runs to carry a bound.
        reads_ms = self._reads_ms()
        out["read.p90_ms"] = float(np.percentile(reads_ms, 90))
        out["read.p99_ms"] = float(np.percentile(reads_ms, 99))
        out.update({f"input.{k}": v for k, v in self.inputs.items()})
        return out

    def raw_medians(self) -> dict[str, float]:
        """Median raw wall seconds of each untraced op kind, unscaled."""
        return {kind: statistics.median(end - start for start, end in v)
                for (kind, traced), v in sorted(self.intervals.items()) if not traced}

    def sample_counts(self) -> dict[str, int]:
        counts = {f"{kind}{'_traced' if traced else ''}": len(v)
                  for (kind, traced), v in sorted(self.intervals.items())}
        counts["probe"] = len(self.clock.durations)
        return counts


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of every metric a run reports."""
    return dict(metric_names() + list(TRACE_EXTRA)) if trace else dict(END_TO_END)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: Path,
                 sizes: Sizes = FULL) -> tuple[Run, dict]:
    """Set up, measure and check one workload under ``root``/.perfbench_work.

    Returns the Run and its metrics: end-to-end ones untraced, per-layer
    ones (plus trace overhead and input descriptors) when traced. The
    spans of a traced run are written once, at its end.
    """
    base = root / ".perfbench_work"
    workdir = base / f"{workload}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workload, seed, sizes, workdir)
        with run.clock:
            run.setup()
            run.measure(seconds, trace)
        if trace:
            metrics = run.per_layer()
            run.tracer.write_spans(base / f"spans-{workload}-seed{seed}.json")
        else:
            metrics = run.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run, metrics
