"""End-to-end orchestration with content-hash stage caching.

The stages are the rows of ``_STAGES``, run in order. Every cache file has
one row in ``_ARTIFACTS``, which writes it, and every value a ``_Run``
holds one row in ``_VALUES``, which parses or builds it. Each row names
only what it reads directly: the artifact it parses, if any, the values it
reads and the config sections it reads itself. The rest is derived from
those reads (``_reach``): a stage's manifest entry, and a memoized value's
key, map each artifact and section they reach to its SHA-256
(``_Run.inputs``); the last stage that reaches a value is the one after
which ``run_stages`` drops it; and the row that parses an artifact is its
loader. A stage whose recorded result ``_Cache.kept`` keeps is skipped, so
rerunning after a lambda change only redoes stratified vectorization and
evaluation, and ``evaluate`` reads back the report of a vector set whose
digests hold. A stage's compute returns its outputs, and ``_stage`` writes
them and hands each value to its loader, so a cold run parses none of its
own artifacts.

Every artifact and the manifest are written to a temporary file and moved
into place, and a stage's manifest entry is dropped before it recomputes,
so an interrupted run leaves each stage either complete or a miss.

Config is a JSON file; ``_CONFIG`` lists every key with its default and kind.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import inspect
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from wikistrata import arbor, catgraph, corpus as corpus_mod, esa, evaluate, strata, textproc

__all__ = [
    "ConfigError", "StageError", "PipelineResult", "load_config", "run_pipeline", "run_stages",
]


def _is_number(v) -> bool:
    return type(v) is int or isinstance(v, float)


# The kinds of config value: the words a ConfigError says it must do, and
# the test a value must pass (a test that raises TypeError fails; type(v) is
# int leaves out bool). A file key the run uses must also name an existing
# file (see _read_files); the generator checks its values in ingest.
_BOOL = "be true or false", lambda v: isinstance(v, bool)
_FILE = "be a file path or null", lambda v: v is None or isinstance(v, str)
_COUNT = "be an integer >= 0", lambda v: type(v) is int and v >= 0
_STRINGS = "be a list of strings", lambda v: (isinstance(v, (list, tuple))
                                           and all(isinstance(p, str) for p in v))
_SYNTHETIC = "be null or an object of gen_synthetic_wiki's parameters", lambda v: (
    v is None or bool(inspect.signature(corpus_mod.gen_synthetic_wiki).bind(**v)))
_LAMBDAS = "be a list of finite non-negative numbers in decreasing order (ties allowed)", lambda v: (
    isinstance(v, (list, tuple)) and all(_is_number(x) and 0 <= x < math.inf for x in v)
    and all(a >= b for a, b in zip(v, v[1:])))  # NaN fails every comparison
# random.Random seeds null from the OS, and NaN from hash(nan), which differs per object
_SEED = "be an integer, a string or a number other than NaN", lambda v: (
    isinstance(v, str) or _is_number(v) and v == v)

# Every config key, as section.key: (its default, its kind).
_CONFIG = {
    # a corpus file ("path"; "labels" is its TSV of doc_id<TAB>class), or the
    # parameters of a generator ("synthetic") whose corpus labels itself
    "corpus.path": (None, _FILE), "corpus.synthetic": (None, _SYNTHETIC),
    "corpus.labels": (None, _FILE),
    "filter.min_distinct_terms": (0, _COUNT), "filter.min_in_links": (0, _COUNT),
    "filter.min_out_links": (0, _COUNT), "filter.excluded_title_prefixes": ([], _STRINGS),
    "analyzer.stopwords": (None, _FILE), "analyzer.lowercase": (True, _BOOL),
    "vocab.min_df": (1, ("be a finite number", lambda v: _is_number(v) and -math.inf < v < math.inf)),
    "catvec.max_nnz": (1000, ("be a positive integer", lambda v: type(v) is int and v > 0)),
    "arbor.root": (None, ("be an integer or null", lambda v: v is None or type(v) is int)),
    "strata.lambdas": ([0.5, 0.25, 0.125], _LAMBDAS), "strata.use_truncated_support": (True, _BOOL),
    "eval.k": (5, ("be an integer >= 2", lambda v: type(v) is int and v >= 2)), "eval.seed": (0, _SEED),
    "cache.dir": ("wikistrata-cache", ("name a directory", lambda v: (
        isinstance(v, os.PathLike) or isinstance(v, str) and v != ""))),
}
DEFAULT_CONFIG: dict[str, dict] = {}  # {section: {key: default}}, in _CONFIG's order
for _name, (_default, _kind) in _CONFIG.items():
    _section, _key = _name.split(".")
    DEFAULT_CONFIG.setdefault(_section, {})[_key] = _default


def _check_config(cfg: dict) -> None:
    """Raise ConfigError naming the first ``section.key`` of ``cfg`` whose
    value is not of its kind in ``_CONFIG``."""
    for name, (_default, (kind, test)) in _CONFIG.items():
        section, key = name.split(".")
        value = cfg[section][key]
        try:
            ok = test(value)
        except TypeError:
            ok = False
        if not ok:
            raise ConfigError(f"{name} must {kind}, got {value!r}")


_MODES = ("baseline", "stratified")


class ConfigError(ValueError):
    pass


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh)
    except (IsADirectoryError, NotADirectoryError):
        raise ConfigError(f"config file {str(path)!r} must name a file") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid config JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {str(path)!r} is not UTF-8: {exc}") from exc
    return merge_config(user)


def merge_config(user: dict) -> dict:
    if not isinstance(user, dict):
        raise ConfigError("a config must be an object")
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for section, values in user.items():
        if section not in cfg:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(values, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key, val in values.items():
            if key not in cfg[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            cfg[section][key] = val
    if not cfg["corpus"]["path"] and not cfg["corpus"]["synthetic"]:
        raise ConfigError("config needs corpus.path or corpus.synthetic")
    return cfg


@dataclass
class PipelineResult:
    stages: list[tuple[str, str]]  # (name, "run" | "hit")
    reports: dict[str, evaluate.EvalReport]
    artifacts: dict[str, str]
    cache_dir: str


def _read_files(cfg: dict) -> dict[tuple[str, str], bytes]:
    """The bytes of each file a config key names and the run uses
    (``corpus.path``, ``corpus.labels``, ``analyzer.stopwords``), by that
    key. Each is read once, so a stage's digests and its compute see the
    same bytes. A stopword file must be UTF-8."""
    used = [("analyzer", "stopwords")] if cfg["analyzer"]["stopwords"] is not None else []
    if not cfg["corpus"]["synthetic"]:
        used += [("corpus", "path"), ("corpus", "labels")]
    files = {}
    for section, key in used:
        name = cfg[section][key]
        if name is None or not os.path.isfile(name):
            raise ConfigError(f"{section}.{key} must name an existing file, got {name!r}")
        with open(name, "rb") as fh:
            files[section, key] = fh.read()
    try:
        files.get(("analyzer", "stopwords"), b"").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"analyzer.stopwords must name a UTF-8 file, got "
                          f"{cfg['analyzer']['stopwords']!r}: {exc}") from exc
    return files


def _section_digests(cfg: dict, files: dict) -> dict[str, str]:
    """The SHA-256 hex of each config section's JSON, by section, with the
    SHA-256 of each file in ``files`` (see ``_read_files``) in place of the
    path that names it. ``cache``, which no stage reads, is left out."""
    view = {s: dict(values) for s, values in cfg.items() if s != "cache"}
    for (section, key), data in files.items():
        view[section][key] = hashlib.sha256(data).hexdigest()
    return {s: hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()
            for s, values in view.items()}


_CHUNK = 1 << 20  # bytes per read when hashing an artifact


class _Cache:
    def __init__(self, directory: str):
        self.dir = directory
        try:
            os.makedirs(directory, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise ConfigError(f"cache.dir must name a directory, got {directory!r}") from None
        self.manifest_path = os.path.join(directory, "manifest.json")
        try:  # a manifest not a JSON object, or an entry not an object of strings, is absent
            with open(self.manifest_path, encoding="utf-8") as fh:
                found = json.load(fh)
        except (FileNotFoundError, ValueError):
            found = {}
        self.found = {s: e for s, e in found.items() if isinstance(e, dict) and all(
            isinstance(d, str) for d in e.values())} if isinstance(found, dict) else {}
        self.manifest = dict(self.found)  # what this run has recorded
        self._digests = {}  # name -> sha256, for this run
        self.written = set()  # the artifacts a stage of this run rewrote

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def file_hash(self, name: str) -> bytes:
        """An artifact's sha256, read at most once per run (see ``forget``),
        in chunks of ``_CHUNK`` bytes."""
        if name not in self._digests:
            h = hashlib.sha256()
            with open(self.path(name), "rb") as fh:
                for chunk in iter(functools.partial(fh.read, _CHUNK), b""):
                    h.update(chunk)
            self._digests[name] = h.digest()
        return self._digests[name]

    def kept(self, stage: str, inputs: dict[str, str], outputs) -> bool:
        """Whether a recorded result stands: the manifest as the run found
        it has an entry for ``stage`` that holds each digest of ``inputs``,
        and every one of ``outputs`` exists. An absent entry keeps nothing."""
        entry = self.found.get(stage)
        return entry is not None and inputs.items() <= entry.items() and all(
            os.path.exists(self.path(o)) for o in outputs)

    def forget(self, stage: str, outputs: list[str]) -> None:
        """Drop a stage's entry, so a crash while it recomputes leaves a miss,
        and the digests of the outputs it is about to rewrite."""
        self.written.update(outputs)
        for o in outputs:
            self._digests.pop(o, None)
        if self.manifest.pop(stage, None) is not None:
            self._write_manifest()

    def record(self, stage: str, inputs: dict[str, str]) -> None:
        self.manifest[stage] = inputs
        self._write_manifest()

    def _write_manifest(self) -> None:
        # json.dumps without indent encodes in C; json.dump always in Python
        with esa._open_atomic(self.manifest_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.manifest, sort_keys=True))

    def write_text(self, name: str, text: str) -> None:
        with esa._open_atomic(self.path(name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

    def read_text(self, name: str) -> str:
        with open(self.path(name), encoding="utf-8", newline="") as fh:
            return fh.read()


def _vocab_to_tsv(voc: textproc.Vocabulary) -> str:
    return "".join(
        f"{term}\t{tid}\t{voc.doc_freq[tid]}\n"
        for tid, term in enumerate(voc.id_to_term)
    )


def _vocab_from_tsv(text: str) -> textproc.Vocabulary:
    term_to_id = {}
    dfs = []
    for line in text.splitlines():
        term, tid, df = line.split("\t")
        term_to_id[term] = int(tid)
        dfs.append(int(df))
    return textproc.Vocabulary(term_to_id=term_to_id, doc_freq=tuple(dfs))


def _table_to_tsv(keys, ptr, cols, values, spec: str) -> str:
    """``row<TAB>column<TAB>value`` lines of a CSR table: row ``keys[i]`` holds
    the ``int64`` columns ``cols[ptr[i]:ptr[i + 1]]`` with the ``float64`` or
    ``int64`` ``values`` there, each formatted by ``spec``; a row with no
    entry is ``row<TAB>-<TAB>0``."""
    cols, values = catgraph._formatted(cols, "d"), catgraph._formatted(values, spec)
    ptr = np.asarray(ptr).tolist()
    return "".join(f"{r}\t" + f"\n{r}\t".join(map("\t".join, zip(cols[a:b], values[a:b]))) + "\n"
                   if a < b else f"{r}\t-\t0\n" for r, a, b in zip(keys, ptr, ptr[1:]))


def _index_from_tsv(text: str, vocabulary: textproc.Vocabulary) -> esa.EsaIndex:
    """``index.tsv`` read column by column straight into the CSR, as ``build_index``
    wrote it: page-major, term ids ascending, and ``page<TAB>-<TAB>0`` for a page
    without terms. ``ValueError`` for a line without three integer fields, a
    term id outside the vocabulary, and pages or terms out of order."""
    # each line's fields and a "\n" cell, which must be every fourth cell
    cells = text.replace("\n", "\t\n\t").split("\t")
    n = text.count("\n")
    if len(cells) != 4 * n + 1 or cells[-1] or cells[3::4].count("\n") != n:
        raise ValueError("index.tsv lines must be page<TAB>term<TAB>frequency")
    pages, freqs = np.array(cells[0:-1:4], np.int64), np.array(cells[2::4], np.int64)
    empty = freqs == 0
    if set(itertools.compress(cells[1::4], empty.tolist())) - {"-"}:
        raise ValueError("index.tsv: a frequency of 0 needs the term -")
    tids = np.array(list(itertools.compress(cells[1::4], (~empty).tolist())), np.int64)
    starts = np.flatnonzero(np.diff(pages, prepend=pages[:1] - 1))  # each page's first line
    before = np.concatenate(([0], np.cumsum(~empty)))  # the entries before each line
    return esa.EsaIndex(vocabulary, tuple(pages[starts].tolist()), before[np.append(starts, n)],
                        tids, freqs[~empty])


# A value with the text its file gets, where the value does not fix it
_Written = NamedTuple("_Written", [("text", str), ("value", object)])


def _text(dump) -> Callable:
    """The writer of a text file: ``dump(value)``."""
    return lambda cache, name, value: cache.write_text(name, dump(value))


_ESVS = lambda cache, name, vs: esa._write_vector_set(cache.path(name), vs)
_REPORT = _text(lambda report: report.to_tsv())
_SUMMARY = _text(lambda report: report.summary())

# Every cache artifact, by file name: its writer, write(cache, name, value),
# the one place that writes it (None: the value comes _Written). Each function
# looks its callees up when it runs, so that one replaced in its module (by a
# test's spy, or the benchmark's tracer) sees every call; so do the loads.
_ARTIFACTS = {
    "corpus.jsonl": _text(lambda raw: raw[0]),
    "labels.tsv": None,  # the input file's own bytes, which ingest hands over _Written
    "filtered.jsonl": _text(lambda store: corpus_mod.serialize_corpus(store)),
    "vocab.tsv": _text(lambda voc: _vocab_to_tsv(voc)),
    "index.tsv": _text(lambda index: _table_to_tsv(
        index.page_ids, index.row_ptr, index.term_ids, index.freqs, "d")),
    "baseline.esvs": _ESVS,
    "pagevecs.esvs": _ESVS,  # a byte copy of baseline.esvs
    # cat_weights builds these tables from the index, faster than parsing them
    "catweights.tsv": _text(lambda tables: _table_to_tsv(
        tables.keys, tables.ptr, tables.dims, tables.weights, ".17g")),
    "catvecs.esvs": _ESVS,
    "weights.tsv": _text(lambda edges: catgraph.weighted_edges_to_tsv(edges)),
    "arborescence.tsv": _text(lambda tree: arbor.arborescence_to_tsv(tree)),
    "stratified.esvs": _ESVS,
    "report_baseline.tsv": _REPORT,
    "report_stratified.tsv": _REPORT,
    "summary_baseline.txt": _SUMMARY,
    "summary_stratified.txt": _SUMMARY,
}


def _stage(run, name, inputs, outputs, compute):
    """Run or skip one stage, whose manifest entry is ``inputs``. One that
    runs writes each value ``compute()`` returns, one per output in order,
    through ``_ARTIFACTS`` and hands it to the loader that parses that
    output (``_LOADER``); a None is an output kept as it is. StageError
    wraps any failure with the stage name."""
    cache, result = run.cache, run.result
    try:
        if cache.kept(name, inputs, outputs):
            result.stages.append((name, "hit"))
        else:
            cache.forget(name, outputs)
            for output, value in zip(outputs, compute(), strict=True):
                if value is None:
                    continue
                if isinstance(value, _Written):
                    cache.write_text(output, value.text)
                    value = value.value
                else:
                    _ARTIFACTS[output](cache, output, value)
                if output in _LOADER:
                    setattr(run, _LOADER[output], value)
            cache.record(name, inputs)
            result.stages.append((name, "run"))
        for o in outputs:
            result.artifacts[o] = cache.path(o)
    except Exception as exc:
        raise StageError(name, exc) from exc


class _Value(NamedTuple):
    """A value a ``_Run`` holds, and what its load reads directly: the
    artifact it parses, if any, the values it reads, and the config sections
    it reads itself. What those reach (``_reach``) gives its ``_MEMO`` key."""
    load: Callable | None  # load(run), the value; None: one _Run.__init__ sets
    reads: tuple[str, ...]  # its artifact, then the values it reads
    sections: tuple[str, ...] = ()
    memo: Callable | None = None  # settings(run), the rest of its _MEMO key; None: not memoized
    held: bool = True  # False: built on each read and not kept on the run


def _parsed(name: str, parse: Callable, memo: Callable | None = None) -> _Value:
    """The value of text artifact ``name`` alone: ``parse(text)``."""
    return _Value(lambda run: parse(run.cache.read_text(name)), (name,), memo=memo)


def _read_catvecs(run) -> esa._VectorSet:
    """The category vectors, one per strongly connected component under its smallest id."""
    vecs = esa._read_vector_set(run.cache.path("catvecs.esvs"))
    if vecs.keys != run.leaf_sets.smallest_ids():
        raise ValueError("catvecs.esvs must hold one vector per strongly connected component, "
                         "under its smallest category id")
    return vecs


def _cat_weights(run) -> esa._VectorSet:
    """Every component's truncated table, as ``catvecs`` writes it to
    ``catweights.tsv``, in one pass over the index: one CSR row of term
    ids and weights per component, keyed by its index into
    ``leaf_sets.comp_pages``. Its arrays are read-only, as the index's are."""
    ls = run.leaf_sets
    tables = catgraph._component_tables(run.index, ls, range(len(ls.comp_pages)),
                                        run.cfg["catvec"]["max_nnz"])
    for a in (tables.ptr, tables.dims, tables.weights):
        a.flags.writeable = False
    return tables


def _level_weights(run) -> tuple[np.ndarray, ...]:
    """Each lambda level's stratum weights of the index entries, from
    ``strata._level_weights``: read-only arrays that depend on the support
    and the number of lambdas, but on no lambda's value, so a lambda-only
    rerun takes them from the memo."""
    scfg, index, ls = run.strata_cfg, run.index, run.leaf_sets
    # the truncated tables catvecs built, or every uncut one in one pass
    tables = run.cat_weights if scfg.use_truncated_support else strata._support_tables(
        index, ls, scfg)
    return strata._level_weights(index, ls, run.tree, len(scfg.lambdas),
                                 strata._table_lookup(tables, len(index.vocabulary)))


_NO_SETTINGS = lambda run: ()  # a memo key of the sources' digests alone

# Every value a _Run holds, by attribute: the one place that says how each
# is parsed or built, and what that reads directly.
_VALUES = {
    # the corpus text and its parse: filter reads both
    "raw": _parsed("corpus.jsonl", lambda text: (text, corpus_mod.parse_corpus(text))),
    "labels": _parsed("labels.tsv", lambda text: _parse_labels(text), _NO_SETTINGS),
    "store": _parsed("filtered.jsonl", lambda text: corpus_mod.parse_corpus(text), _NO_SETTINGS),
    "vocabulary": _parsed("vocab.tsv", lambda text: _vocab_from_tsv(text), _NO_SETTINGS),
    "index": _Value(lambda run: _index_from_tsv(run.cache.read_text("index.tsv"), run.vocabulary),
                    ("index.tsv", "vocabulary"), memo=_NO_SETTINGS),
    "baseline": _Value(lambda run: esa._read_vector_set(run.cache.path("baseline.esvs")),
                       ("baseline.esvs",)),
    "cat_vectors": _Value(_read_catvecs, ("catvecs.esvs", "leaf_sets")),
    "edges": _parsed("weights.tsv", lambda text: catgraph._parse_weights_tsv(text)),
    "tree": _parsed("arborescence.tsv", lambda text: arbor.parse_arborescence_tsv(text),
                    _NO_SETTINGS),
    "stratified": _Value(lambda run: esa._read_vector_set(run.cache.path("stratified.esvs")),
                         ("stratified.esvs",)),
    "report_baseline": _parsed("report_baseline.tsv",
                               lambda text: evaluate.EvalReport.from_tsv(text)),
    "report_stratified": _parsed("report_stratified.tsv",
                                 lambda text: evaluate.EvalReport.from_tsv(text)),
    # the filtered pages' analyzed term counts, one row per page in store
    # order (ascending ids): the one analysis that vocab and index share
    "term_counts": _Value(lambda run: textproc._term_counts(
        run.analyzer, (p.text for p in run.store.pages)), ("store",), ("analyzer",)),
    "graph": _Value(lambda run: catgraph.build_graph(run.store), ("store",), memo=_NO_SETTINGS),
    "leaf_sets": _Value(lambda run: catgraph.leaf_sets(run.graph), ("graph",), memo=_NO_SETTINGS),
    "cat_weights": _Value(_cat_weights, ("index", "leaf_sets"), ("catvec",), _NO_SETTINGS),
    # not held, so that its one reader lets go of it before the kernel runs
    "level_weights": _Value(
        _level_weights, ("index", "leaf_sets", "tree", "cat_weights"), (), lambda run: (
            run.strata_cfg.use_truncated_support, len(run.strata_cfg.lambdas)), held=False),
    # the input files' bytes (see _read_files), which only ingest reads
    "files": _Value(None, (), ("corpus",)),
}

# The value each artifact is parsed into, by artifact: the row that reads it.
_LOADER = {a: name for name, value in _VALUES.items() for a in value.reads if a in _ARTIFACTS}


@functools.cache
def _reach(reads: tuple[str, ...], sections: tuple[str, ...]) -> frozenset[str]:
    """``reads`` and ``sections``, and all that each value among ``reads``
    reaches through the reads of its ``_VALUES`` row: the values a reader
    may read, and the artifacts and config sections its result comes from."""
    return frozenset((*reads, *sections)).union(*(
        _reach(_VALUES[r].reads, _VALUES[r].sections) for r in reads if r in _VALUES))


# One (key, value) per memoized _Run value, by name: the value its load
# last returned in this process, under the digests of its sources.
_MEMO: dict[str, tuple] = {}


def _loader(name: str, value: _Value):
    """The ``_Run`` attribute of ``value``: its load, kept on the run when it
    is held, and per process in ``_MEMO`` under the digests of its sources
    and its settings when it is memoized. A run reads or fills ``_MEMO`` only
    when none of its stages rewrote any of those artifacts, so a cold run
    loads as if it were not there. Kept values are shared: read-only."""
    sources = _reach(value.reads, value.sections)

    def load(run):
        if value.memo is None or run.cache.written.intersection(sources):
            return value.load(run)
        key = run.inputs(value.reads, value.sections), value.memo(run)
        kept = _MEMO.get(name)
        if kept is None or kept[0] != key:
            kept = _MEMO[name] = key, value.load(run)
        return kept[1]
    if not value.held:
        return property(load)
    loader = functools.cached_property(load)
    loader.__set_name__(_Run, name)
    return loader


class _Run:
    """One run's stage computes, the values they share, and the
    ``PipelineResult`` so far. Every other value it holds has one row of
    ``_VALUES``, which gives its loader: the loader holds the value that a
    stage of this run handed over, or parses or builds it on first use, so
    a run whose stages all hit parses none. A row, of ``_VALUES`` or of
    ``_STAGES``, names the values its code reads as ``run.<value>``."""

    def __init__(self, cfg: dict, files: dict):
        self.cfg, self.files = cfg, files
        self.section_digests = _section_digests(cfg, files)
        self.cache = _Cache(cfg["cache"]["dir"])
        self.result = PipelineResult(stages=[], reports={}, artifacts={}, cache_dir=self.cache.dir)
        fold, stopwords = cfg["analyzer"]["lowercase"], files.get(("analyzer", "stopwords"))
        self.analyzer = textproc.Analyzer(
            stopword_set=textproc.parse_stopwords(stopwords, fold) if stopwords else frozenset(),
            lowercase_fold=fold)
        self.filter_cfg = corpus_mod.FilterConfig(**dict(
            cfg["filter"], excluded_title_prefixes=tuple(cfg["filter"]["excluded_title_prefixes"])))
        self.strata_cfg = strata.StrataConfig(**cfg["strata"], max_nnz=cfg["catvec"]["max_nnz"])

    def inputs(self, reads, sections) -> dict[str, str]:
        """The SHA-256 hex of each artifact and config section that ``reads``
        and ``sections`` reach (``_reach``), by name: a stage's manifest
        entry, or a memo key."""
        return {n: self.cache.file_hash(n).hex() if n in _ARTIFACTS else self.section_digests[n]
                for n in _reach(reads, sections) if n not in _VALUES}

    def ingest(self):
        """The canonical corpus and labels; a file's leading byte order mark goes."""
        source = self.cfg["corpus"]
        if source["synthetic"]:
            store, labels = corpus_mod.gen_synthetic_wiki(**source["synthetic"])
            labels_tsv = "".join(f"{pid}\t{labels[pid]}\n" for pid in sorted(labels))
        else:
            store = corpus_mod.parse_corpus(self.files["corpus", "path"].decode("utf-8-sig"))
            labels_tsv = self.files["corpus", "labels"].decode("utf-8-sig")
        # a malformed line fails here, not in evaluate
        labels = _parse_labels(labels_tsv)
        return (corpus_mod.serialize_corpus(store), store), _Written(labels_tsv, labels)

    def filter(self):
        """``corpus.filter_pages``; ValueError when it keeps no page. Under a
        ``min_distinct_terms`` above 0, each raw page's distinct terms are
        counted in one ``_term_counts`` table, whose kept rows, over all its
        terms, go to ``vocab`` and ``index``."""
        (text, raw), distinct_terms = self.raw, None
        if self.filter_cfg.min_distinct_terms:
            table = textproc._term_counts(self.analyzer, (p.text for p in raw.pages))
            distinct_terms = np.diff(table.row_ptr).tolist().__getitem__
        filtered = corpus_mod._filter_pages(raw, self.filter_cfg, distinct_terms)
        if not filtered.pages:
            raise ValueError(f"the filter keeps none of the {raw.n_pages} pages it read")
        if distinct_terms is not None:
            row_of = {p.page_id: i for i, p in enumerate(raw.pages)}
            self.term_counts = textproc._table_rows(
                table, np.array([row_of[p.page_id] for p in filtered.pages], np.int64))
        # a filter that keeps every page and membership keeps the corpus text
        return (_Written(text, filtered) if filtered == raw else filtered),

    def vocab(self):
        min_df = self.cfg["vocab"]["min_df"]
        voc = textproc._vocabulary_from_table(self.term_counts, min_df)
        if not len(voc):
            raise ValueError(f"vocab.min_df {min_df!r} keeps no term")
        return voc,

    def build_index(self):
        page_ids = tuple(p.page_id for p in self.store.pages)
        return esa._index_from_table(self.term_counts, page_ids, self.vocabulary),

    def vectorize_baseline(self):
        """Every page's ``esa.document_vector`` over its own terms, in one
        batch: the vectors ``evaluate`` classifies and ``weights`` dots with
        the category vectors, written twice."""
        index = self.index
        vecs = esa._csr_vectors(index, esa._VectorSet(index.page_ids, index.row_ptr,
                                                      index.term_ids, index.tfidfs))
        return vecs, vecs

    def catvecs(self):
        """Truncated category supports and their concept vectors, one per
        strongly connected component, since its categories share F(c)."""
        tables = self.cat_weights._replace(keys=self.leaf_sets.smallest_ids())
        # the rows category_vector would build, from the weights at hand
        return tables, esa._csr_vectors(self.index, tables)

    def weights(self):
        """Every edge's weight, in one batch over the page and category sets:
        category c's vector is row ``comp_of[c]`` of the category vectors."""
        ls, pages, cats = self.leaf_sets, self.baseline, self.cat_vectors
        page_rows = {pid: i for i, pid in enumerate(pages.keys)}
        return catgraph._edge_weights(self.graph, pages, page_rows, cats, ls.comp_of),

    def arborify(self):
        root_id = self.cfg["arbor"]["root"]
        if root_id is None:
            root_id = self.store.root_category_id
        return arbor.chu_liu_edmonds(arbor.reverse_and_cost(self.graph, self.edges, root_id)),

    def vectorize_stratified(self):
        """The stratified set: each page's tfidfs plus its lambda-weighted
        ``level_weights``, as ``StrataVectorizer._page_values`` adds them."""
        index = self.index
        values = strata._stratified_values(index.tfidfs, self.strata_cfg.lambdas,
                                           self.level_weights)
        return esa._csr_vectors(index, esa._VectorSet(index.page_ids, index.row_ptr,
                                                      index.term_ids, values)),

    def evaluate(self):
        """Cross-validate each vector set unless ``_Cache.kept`` keeps its
        report and summary under ``evaluate``'s entry as the run found it,
        for the digests of that set, the labels and the ``eval`` section.
        A kept report is read back now, so a corrupt one fails this stage."""
        k, seed = self.cfg["eval"]["k"], self.cfg["eval"]["seed"]
        reports = []
        for mode in _MODES:
            digests = self.inputs((mode, "labels"), ("eval",))
            if self.cache.kept("evaluate", digests, (f"report_{mode}.tsv", f"summary_{mode}.txt")):
                getattr(self, f"report_{mode}")  # its own output, so not among its reads
                reports.append(None)
            else:
                vs = getattr(self, mode)  # the baseline and stratified loaders
                reports.append(evaluate._cross_validate(_labeled(self.labels, vs.keys), vs, k,
                                                        seed))
        return *reports, *reports  # the reports, then their summaries


for _name, _value in _VALUES.items():
    if _value.load:
        setattr(_Run, _name, _loader(_name, _value))


# The stages in run order: name, the values its compute reads and the config
# sections it reads itself, the artifacts it writes, and the compute, which
# returns one value per artifact it writes. Its manifest entry holds the
# digests of exactly the artifacts and sections those reach (_Run.inputs),
# so each row must name everything its compute reads.
_STAGES = (
    ("ingest", ("files",), ("corpus",), ("corpus.jsonl", "labels.tsv"), _Run.ingest),
    ("filter", ("raw",), ("filter", "analyzer"), ("filtered.jsonl",), _Run.filter),
    ("vocab", ("term_counts",), ("vocab",), ("vocab.tsv",), _Run.vocab),
    ("index", ("term_counts", "store", "vocabulary"), (), ("index.tsv",), _Run.build_index),
    ("vectorize_baseline", ("index",), (), ("baseline.esvs", "pagevecs.esvs"),
     _Run.vectorize_baseline),
    ("catvecs", ("cat_weights", "leaf_sets", "index"), (), ("catweights.tsv", "catvecs.esvs"),
     _Run.catvecs),
    ("weights", ("leaf_sets", "baseline", "cat_vectors", "graph"), (), ("weights.tsv",),
     _Run.weights),
    ("arborify", ("store", "graph", "edges"), ("arbor",), ("arborescence.tsv",), _Run.arborify),
    ("vectorize_stratified", ("index", "level_weights"), ("strata",), ("stratified.esvs",),
     _Run.vectorize_stratified),
    ("evaluate", ("baseline", "stratified", "labels"), ("eval",),
     ("report_baseline.tsv", "report_stratified.tsv", "summary_baseline.txt",
      "summary_stratified.txt"), _Run.evaluate),
)

# The stage after which run_stages drops each value, run or hit: the last row
# that reaches it, the last that can read it. A value that no row reaches (a
# report) stays.
_LAST_READER = {value: stage for stage, reads, sections, *_ in _STAGES
                for value in _reach(reads, sections) & _VALUES.keys()}


def run_stages(config):
    """Run the stages in order, yielding ``(name, status, run)`` after each.

    ``status`` is ``"run"`` or ``"hit"``. ``run`` is this run's ``_Run``:
    its loaders (``store``, ``index``, ``graph`` and the others) give the
    values of the stages done so far, as handed over by a stage that ran
    or parsed from the cache. Each value is dropped after the last stage
    whose reads reach it (``_LAST_READER``; a later read parses it back),
    and a memoized one is keyed by what its own reads reach: a loader may
    give the value that an earlier run of this process built from the same
    bytes, shared with later runs, so do not change it in place. ``run.result`` holds the stages' statuses
    and artifact paths. ``run.analyzer`` is the configured analyzer. A
    caller that stops iterating leaves the later stages untouched, as an
    interrupted run does. ``config`` is as for ``run_pipeline``: a file's
    path, or a dict, partial or merged, that goes through ``merge_config``.
    """
    cfg = merge_config(config) if isinstance(config, dict) else load_config(config)
    _check_config(cfg)
    run = _Run(cfg, _read_files(cfg))  # the files first: a bad one leaves no cache directory
    done, held = set(), vars(run)
    for name, reads, sections, outputs, compute in _STAGES:
        _stage(run, name, run.inputs(reads, sections), outputs, functools.partial(compute, run))
        done.add(name)
        for value in [v for v in held if _LAST_READER.get(v) in done]:
            del held[value]  # the one drop rule; a later read parses it back
        yield name, run.result.stages[-1][1], run


def run_pipeline(config) -> PipelineResult:
    """Execute ingest through evaluation, reusing cached stage outputs.

    ``config`` is a config dict or a path to a JSON config file. A dict
    goes through ``merge_config`` as a file's object does: it may leave out
    any section or key, which then takes its value in ``DEFAULT_CONFIG``,
    and an unknown section or key raises ``ConfigError``. A dict that
    ``merge_config`` returned merges to an equal dict.
    """
    for _name, _status, run in run_stages(config):
        pass
    # evaluate rewrote the report of each set whose digest, or that of the
    # labels or the eval config, changed, so both reports are the ones a
    # new cross-validation gives
    try:
        run.result.reports.update((mode, getattr(run, f"report_{mode}")) for mode in _MODES)
    except ValueError as exc:
        raise StageError("evaluate", exc) from exc
    return run.result


def _parse_labels(text: str) -> dict[int, str]:
    """The labels TSV, one ``page_id<TAB>label`` line per page, by page id;
    a later line for the same page wins, and a blank or whitespace-only line
    is skipped."""
    labels = {}
    for n, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            pid, label = line.split("\t")
            labels[int(pid)] = label
        except ValueError:
            raise corpus_mod.CorpusError(
                f"labels line {n}: expected <page id><TAB><label>, got {line!r}") from None
    return labels


def _labeled(labels: dict[int, str], page_ids: tuple[int, ...]) -> evaluate.LabeledCorpus:
    """The labeled pages, without terms: ``cross_validate`` reads only ids."""
    for pid in page_ids:
        if pid not in labels:
            raise ValueError(f"page {pid} has no label")
    return evaluate.LabeledCorpus(documents=tuple((pid, ()) for pid in page_ids),
                                  labels={pid: labels[pid] for pid in page_ids})
