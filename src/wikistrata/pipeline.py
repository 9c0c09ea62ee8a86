"""End-to-end orchestration with content-hash stage caching.

The stages are the rows of ``_STAGES``, run in order. Each row declares
the artifacts its compute reads and the config sections it reads, and
the stage's manifest entry maps each of exactly those to its SHA-256
(``_Run.inputs``); a config value that names a file (see ``_read_files``)
enters its section's digest as the file's SHA-256. One rule,
``_Cache.kept``, decides which recorded results stand: those whose entry,
in the manifest as the run found it, still holds each digest they have
now, and whose outputs exist. So a stage so kept is skipped, rerunning
after a lambda change only redoes stratified vectorization and
evaluation, and ``evaluate`` reads back the report of a vector set whose
digest, and those of the labels and the ``eval`` section, still hold:
the baseline report is read back, and ``baseline.esvs`` is neither
parsed nor cross-validated. Parsed inputs (corpus, vocabulary, index, vector
sets, category graph, leaf sets) are loaded only by stages that compute
and by callers of ``run_stages``, which yields after each stage, and the
reports are read back from ``evaluate``'s TSVs, so a run
whose stages all hit hashes files and parses two reports. A stage that
computes hands what it writes to the stages after it in memory, so a cold
run parses none of its own artifacts; a stage reads an artifact from disk
only when the stage that writes it was a hit. Vector sets pass in array
form (``esa._VectorSet``), as the kernel emits them and the ESVS codec
reads and writes them.

Within one process, the parsed corpus, category graph, leaf sets,
vocabulary, index, category tables, tree and labels are also kept across
runs in a memo (``_memoized``), one value per loader, under the digests
of the artifacts and config it reads. So are each lambda level's stratum
weights (``strata._level_weights``), whose key holds the number of
lambdas but not their values. A loader reads or fills the memo only when
no stage of its run rewrote those artifacts, so a cold run parses as
before, and a second lambda-only rerun parses no cache input and looks
up no stratum weight. The last value of each stays in memory after a
run, and is shared by the runs that find it, so no caller may change it
in place. A CLI run is one process, and gains nothing from it.

Every artifact and the manifest are written to a temporary file and moved
into place, and a stage's manifest entry is dropped before it recomputes,
so an interrupted run leaves each stage either complete or a miss. A
manifest that is not a JSON object, and an entry that is not an object
of strings (such as a hash of the digests, as older caches hold), count
as absent.

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


def _stage(result, cache, name, inputs, outputs, compute):
    """Run or skip one stage, whose manifest entry is ``inputs``; StageError
    wraps any failure with the stage name."""
    try:
        if cache.kept(name, inputs, outputs):
            result.stages.append((name, "hit"))
        else:
            cache.forget(name, outputs)
            compute()
            cache.record(name, inputs)
            result.stages.append((name, "run"))
        for o in outputs:
            result.artifacts[o] = cache.path(o)
    except Exception as exc:
        raise StageError(name, exc) from exc


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


# One (key, value) per memoized _Run loader, by loader name: the value the
# loader last returned in this process, under the digests of what it read.
_MEMO: dict[str, tuple] = {}


def _memoized(*artifacts: str, sections: tuple[str, ...] = (), settings=lambda run: ()):
    """A ``_Run`` loader of ``artifacts``, the config ``sections`` and the
    values ``settings(run)`` picks out of other sections: a
    ``functools.cached_property`` whose value is also kept per process in
    ``_MEMO``, under their digests (``_Run.inputs``) and those values. A
    run reads or fills ``_MEMO`` only when none of its stages rewrote any
    of ``artifacts``, so a cold run loads as if it were not there. Kept values are shared by the
    runs that find them: read-only."""
    def wrap(load):
        def get(run):
            if run.cache.written.intersection(artifacts):
                return load(run)
            key = run.inputs(artifacts, sections), settings(run)
            kept = _MEMO.get(load.__name__)
            if kept is None or kept[0] != key:
                kept = _MEMO[load.__name__] = key, load(run)
            return kept[1]
        return functools.cached_property(functools.wraps(load)(get))
    return wrap


class _Run:
    """One run's stage computes, the parsed stage inputs they share, and
    the ``PipelineResult`` so far. Each input is loaded on first use, and
    at most once, so a run whose stages all hit parses none of them; a
    caller of ``run_stages`` may use a loader once the stages that write
    its artifacts are done. A loader names the artifacts it reads, in its
    ``_memoized`` arguments or in a comment, and a stage that uses it must
    declare them in ``_STAGES``.

    A stage that computes sets the loaders of what it writes to the values
    it has just written, so a cold run parses none of its own artifacts,
    and a loader parses its file only when the stage that writes it was a
    hit. Each handed-over value is dropped after its last reader, as
    ``term_counts`` is once ``index`` has run or hit. No stage reads
    ``catweights.tsv``: ``cat_weights`` builds its tables from the index,
    which is faster than parsing them back. Nor does any read
    ``pagevecs.esvs``, the byte copy of ``baseline``. The tables and vector
    sets are ``esa._VectorSet`` arrays whose row i is the strongly connected
    component i of ``leaf_sets``: ``cat_weights`` keyed by i, ``cat_vectors``
    and ``catvecs``' files by its smallest category id. ``evaluate`` reads
    back the report of a vector set that ``_Cache.kept`` keeps, not the set."""

    def __init__(self, cfg: dict, cache: _Cache, files: dict):
        self.cfg, self.cache, self.files = cfg, cache, files
        self.section_digests = _section_digests(cfg, files)
        self.result = PipelineResult(stages=[], reports={}, artifacts={}, cache_dir=cache.dir)
        stopwords = files.get(("analyzer", "stopwords"))
        stopword_set = textproc.parse_stopwords(stopwords) if stopwords else frozenset()
        self.analyzer = textproc.Analyzer(stopword_set=stopword_set,
                                          lowercase_fold=cfg["analyzer"]["lowercase"])
        self.filter_cfg = corpus_mod.FilterConfig(**dict(
            cfg["filter"], excluded_title_prefixes=tuple(cfg["filter"]["excluded_title_prefixes"])))
        self.strata_cfg = strata.StrataConfig(**cfg["strata"], max_nnz=cfg["catvec"]["max_nnz"])

    def inputs(self, artifacts, sections) -> dict[str, str]:
        """The SHA-256 hex of each of ``artifacts`` and of each config section
        of ``sections``, by name: a stage's manifest entry, or a memo key."""
        digests = {a: self.cache.file_hash(a).hex() for a in artifacts}
        digests.update((s, self.section_digests[s]) for s in sections)
        return digests

    @functools.cached_property
    def raw_text(self) -> str:  # corpus.jsonl
        return self.cache.read_text("corpus.jsonl")

    @functools.cached_property
    def raw_store(self) -> corpus_mod.CorpusStore:  # corpus.jsonl
        return corpus_mod.parse_corpus(self.raw_text)

    @_memoized("labels.tsv")
    def labels(self) -> dict[int, str]:
        return _parse_labels(self.cache.read_text("labels.tsv"))

    @_memoized("filtered.jsonl")
    def store(self) -> corpus_mod.CorpusStore:
        return corpus_mod.parse_corpus(self.cache.read_text("filtered.jsonl"))

    @_memoized("vocab.tsv")
    def vocabulary(self) -> textproc.Vocabulary:
        return _vocab_from_tsv(self.cache.read_text("vocab.tsv"))

    @functools.cached_property
    def term_counts(self) -> textproc._TermCounts:  # filtered.jsonl
        """The filtered pages' analyzed term counts, one row per page in
        ``store`` order (ascending ids): the one analysis that ``vocab`` and
        ``index`` share."""
        return textproc._term_counts(self.analyzer, (p.text for p in self.store.pages))

    @_memoized("index.tsv", "vocab.tsv")
    def index(self) -> esa.EsaIndex:
        return _index_from_tsv(self.cache.read_text("index.tsv"), self.vocabulary)

    @_memoized("index.tsv", "vocab.tsv", "filtered.jsonl", sections=("catvec",))
    def cat_weights(self) -> esa._VectorSet:
        """Every component's truncated table, as ``catvecs`` writes it to
        ``catweights.tsv``, in one pass over the index: one CSR row of term
        ids and weights per component, keyed by its index into
        ``leaf_sets.comp_pages``. Its arrays are read-only, as the index's are."""
        ls = self.leaf_sets
        tables = catgraph._component_tables(self.index, ls, range(len(ls.comp_pages)),
                                            self.cfg["catvec"]["max_nnz"])
        for a in (tables.ptr, tables.dims, tables.weights):
            a.flags.writeable = False
        return tables

    @_memoized("index.tsv", "vocab.tsv", "filtered.jsonl", "arborescence.tsv", sections=("catvec",),
               settings=lambda run: (run.strata_cfg.use_truncated_support,
                                     len(run.strata_cfg.lambdas)))
    def level_weights(self) -> tuple[np.ndarray, ...]:
        """Each lambda level's stratum weights of the index entries, from
        ``strata._level_weights``: read-only arrays that depend on the
        support and the number of lambdas, but on no lambda's value, so a
        lambda-only rerun takes them from the memo."""
        scfg, index, ls = self.strata_cfg, self.index, self.leaf_sets
        # the truncated tables catvecs built, or every uncut one in one pass
        tables = self.cat_weights if scfg.use_truncated_support else strata._support_tables(
            index, ls, scfg)
        return strata._level_weights(index, ls, self.tree, len(scfg.lambdas),
                                     strata._table_lookup(tables, len(index.vocabulary)))

    @functools.cached_property
    def cat_vectors(self) -> esa._VectorSet:  # catvecs.esvs
        return esa._read_vector_set(self.cache.path("catvecs.esvs"))

    @functools.cached_property
    def edges(self) -> list[catgraph.WeightedEdge]:  # weights.tsv
        return catgraph._parse_weights_tsv(self.cache.read_text("weights.tsv"))

    @_memoized("arborescence.tsv")
    def tree(self) -> arbor.Arborescence:
        return arbor.parse_arborescence_tsv(self.cache.read_text("arborescence.tsv"))

    @functools.cached_property
    def baseline(self) -> esa._VectorSet:  # baseline.esvs
        return esa._read_vector_set(self.cache.path("baseline.esvs"))

    @functools.cached_property
    def stratified(self) -> esa._VectorSet:  # stratified.esvs
        return esa._read_vector_set(self.cache.path("stratified.esvs"))

    @functools.cached_property
    def reports(self) -> dict[str, evaluate.EvalReport]:  # report_*.tsv
        return {mode: evaluate.EvalReport.from_tsv(self.cache.read_text(f"report_{mode}.tsv"))
                for mode in _MODES}

    @_memoized("filtered.jsonl")
    def graph(self) -> catgraph.CategoryGraph:
        return catgraph.build_graph(self.store)

    @_memoized("filtered.jsonl")
    def leaf_sets(self) -> catgraph.LeafSetIndex:
        return catgraph.leaf_sets(self.graph)

    def ingest(self) -> None:
        """The canonical corpus and labels; a file's leading byte order mark goes."""
        source = self.cfg["corpus"]
        if source["synthetic"]:
            store, labels = corpus_mod.gen_synthetic_wiki(**source["synthetic"])
            labels_tsv = "".join(f"{pid}\t{labels[pid]}\n" for pid in sorted(labels))
        else:
            store = corpus_mod.parse_corpus(self.files["corpus", "path"].decode("utf-8-sig"))
            labels_tsv = self.files["corpus", "labels"].decode("utf-8-sig")
        # a malformed line fails here, not in evaluate
        self.labels = _parse_labels(labels_tsv)
        self.raw_text = corpus_mod.serialize_corpus(store)
        self.cache.write_text("corpus.jsonl", self.raw_text)
        self.cache.write_text("labels.tsv", labels_tsv)
        self.raw_store = store

    def filter(self) -> None:
        """``corpus.filter_pages``; ValueError when it keeps no page. Under a
        ``min_distinct_terms`` above 0, each raw page's distinct terms are
        counted in one ``_term_counts`` table, whose kept rows, over all its
        terms, go to ``vocab`` and ``index``."""
        raw, distinct_terms = self.raw_store, None
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
        text = self.raw_text if filtered == raw else corpus_mod.serialize_corpus(filtered)
        del self.raw_store, self.raw_text
        self.cache.write_text("filtered.jsonl", text)
        self.store = filtered

    def vocab(self) -> None:
        min_df = self.cfg["vocab"]["min_df"]
        voc = textproc._vocabulary_from_table(self.term_counts, min_df)
        if not len(voc):
            raise ValueError(f"vocab.min_df {min_df!r} keeps no term")
        self.cache.write_text("vocab.tsv", _vocab_to_tsv(voc))
        self.vocabulary = voc

    def build_index(self) -> None:
        page_ids = tuple(p.page_id for p in self.store.pages)
        built = esa._index_from_table(self.term_counts, page_ids, self.vocabulary)
        self.cache.write_text("index.tsv", _table_to_tsv(built.page_ids, built.row_ptr,
                                                         built.term_ids, built.freqs, "d"))
        self.index = built  # what the loader would parse back from index.tsv

    def vectorize_baseline(self) -> None:
        """Every page's ``esa.document_vector`` over its own terms, in one
        batch: the vectors ``evaluate`` classifies and ``weights`` dots with
        the category vectors."""
        index = self.index
        vecs = esa._csr_vectors(index, esa._VectorSet(index.page_ids, index.row_ptr,
                                                      index.term_ids, index.tfidfs))
        for name in ("baseline.esvs", "pagevecs.esvs"):
            esa._write_vector_set(self.cache.path(name), vecs)
        self.baseline = vecs

    def catvecs(self) -> None:
        """Truncated category supports and their concept vectors, one per
        strongly connected component, since its categories share F(c)."""
        tables = self.cat_weights._replace(keys=self.leaf_sets.smallest_ids())
        # the rows category_vector would build, from the weights at hand
        vecs = esa._csr_vectors(self.index, tables)
        self.cache.write_text("catweights.tsv", _table_to_tsv(tables.keys, tables.ptr, tables.dims,
                                                              tables.weights, ".17g"))
        esa._write_vector_set(self.cache.path("catvecs.esvs"), vecs)
        self.cat_vectors = vecs

    def weights(self) -> None:
        """Every edge's weight, in one batch over the page and category sets:
        category c's vector is row ``comp_of[c]`` of ``catvecs.esvs``."""
        ls, pages, cats = self.leaf_sets, self.baseline, self.cat_vectors
        del self.cat_vectors
        if cats.keys != ls.smallest_ids():
            raise ValueError("catvecs.esvs must hold one vector per strongly connected "
                             "component, under its smallest category id")
        page_rows = {pid: i for i, pid in enumerate(pages.keys)}
        edges = catgraph._edge_weights(self.graph, pages, page_rows, cats, ls.comp_of)
        self.cache.write_text("weights.tsv", catgraph.weighted_edges_to_tsv(edges))
        self.edges = edges  # the .17g text reads back exactly

    def arborify(self) -> None:
        root_id = self.cfg["arbor"]["root"]
        if root_id is None:
            root_id = self.store.root_category_id
        digraph = arbor.reverse_and_cost(self.graph, self.edges, root_id)
        del self.edges
        tree = arbor.chu_liu_edmonds(digraph)
        self.cache.write_text("arborescence.tsv", arbor.arborescence_to_tsv(tree))
        self.tree = tree

    def vectorize_stratified(self) -> None:
        """The stratified set: each page's tfidfs plus its lambda-weighted
        ``level_weights``, as ``StrataVectorizer._page_values`` adds them."""
        index = self.index
        values = strata._stratified_values(index.tfidfs, self.strata_cfg.lambdas,
                                           self.level_weights)
        del self.level_weights
        vars(self).pop("tree", None)  # arborify's, on a cold run; no later stage reads it
        vecs = esa._csr_vectors(index, esa._VectorSet(index.page_ids, index.row_ptr,
                                                      index.term_ids, values))
        esa._write_vector_set(self.cache.path("stratified.esvs"), vecs)
        self.stratified = vecs

    def evaluate(self) -> None:
        """Cross-validate each vector set unless ``_Cache.kept`` keeps its
        report and summary under ``evaluate``'s entry as the run found it,
        for the digests of that set, ``labels.tsv`` and the ``eval``
        section, and then read back its report. An entry that is missing
        (dropped when a run of this stage was cut) keeps no set."""
        k, seed = self.cfg["eval"]["k"], self.cfg["eval"]["seed"]
        reports = {}
        for mode in _MODES:
            names = (f"report_{mode}.tsv", f"summary_{mode}.txt")
            digests = self.inputs((f"{mode}.esvs", "labels.tsv"), ("eval",))
            if self.cache.kept("evaluate", digests, names):
                reports[mode] = evaluate.EvalReport.from_tsv(self.cache.read_text(names[0]))
                continue
            vs = getattr(self, mode)  # the baseline and stratified loaders
            delattr(self, mode)
            reports[mode] = evaluate._cross_validate(_labeled(self.labels, vs.keys), vs, k, seed)
            self.cache.write_text(names[0], reports[mode].to_tsv())
            self.cache.write_text(names[1], reports[mode].summary())
        self.reports = reports  # the .17g text reads back to an equal report


# The stages in run order: name, the artifacts its compute reads (through
# the _Run loaders too), the config sections it reads, the artifacts it
# writes, and the compute. A stage's manifest entry holds the digests of
# exactly its inputs and config sections, so each row must name everything
# its compute reads.
_STAGES = (
    ("ingest", (), ("corpus",), ("corpus.jsonl", "labels.tsv"), _Run.ingest),
    ("filter", ("corpus.jsonl",), ("filter", "analyzer"), ("filtered.jsonl",), _Run.filter),
    ("vocab", ("filtered.jsonl",), ("vocab", "analyzer"), ("vocab.tsv",), _Run.vocab),
    ("index", ("filtered.jsonl", "vocab.tsv"), ("analyzer",), ("index.tsv",), _Run.build_index),
    ("vectorize_baseline", ("index.tsv", "vocab.tsv"), (), ("baseline.esvs", "pagevecs.esvs"),
     _Run.vectorize_baseline),
    ("catvecs", ("index.tsv", "vocab.tsv", "filtered.jsonl"), ("catvec",),
     ("catweights.tsv", "catvecs.esvs"), _Run.catvecs),
    ("weights", ("catvecs.esvs", "baseline.esvs", "filtered.jsonl"), (), ("weights.tsv",),
     _Run.weights),
    ("arborify", ("weights.tsv", "filtered.jsonl"), ("arbor",), ("arborescence.tsv",),
     _Run.arborify),
    ("vectorize_stratified", ("index.tsv", "vocab.tsv", "filtered.jsonl", "arborescence.tsv"),
     ("strata", "catvec"), ("stratified.esvs",), _Run.vectorize_stratified),
    ("evaluate", ("baseline.esvs", "stratified.esvs", "labels.tsv"), ("eval",),
     ("report_baseline.tsv", "report_stratified.tsv", "summary_baseline.txt",
      "summary_stratified.txt"), _Run.evaluate),
)


def run_stages(config):
    """Run the stages in order, yielding ``(name, status, run)`` after each.

    ``status`` is ``"run"`` or ``"hit"``. ``run`` is this run's ``_Run``:
    its loaders (``store``, ``vocabulary``, ``index``, ``baseline``,
    ``cat_weights``, ``edges``, ``tree``, ``graph``, ``leaf_sets`` and the
    others of ``_Run``) give the artifacts of the stages done so far, as
    handed over by a stage that ran or parsed from the cache;
    ``cat_weights`` is built from the index, not parsed from
    ``catweights.tsv``, and keyed by component index; ``cat_vectors`` by
    each component's smallest category id (``leaf_sets.smallest_ids()``).
    Row i of both is component i, as ``leaf_sets.comp_of`` numbers it. A
    loader of an artifact that no stage of this run rewrote may give the
    value an earlier run of this process parsed from the same bytes (see
    ``_memoized``); that value stays in memory after the run and may be
    shared with later runs, so do not change it in place. ``run.result``
    holds the stages' statuses and artifact paths. ``run.analyzer`` is the
    configured analyzer. A caller that stops iterating leaves the later
    stages untouched, as an interrupted run does. ``config`` is as for
    ``run_pipeline``: a file's path, or a dict, partial or merged, that
    goes through ``merge_config``.
    """
    cfg = merge_config(config) if isinstance(config, dict) else load_config(config)
    _check_config(cfg)
    files = _read_files(cfg)  # before the cache directory, which a bad file leaves uncreated
    cache = _Cache(cfg["cache"]["dir"])
    run = _Run(cfg, cache, files)
    for name, inputs, sections, outputs, compute in _STAGES:
        _stage(run.result, cache, name, run.inputs(inputs, sections), outputs,
               functools.partial(compute, run))
        if name == "index":  # the last reader of the filter's term counts, run or hit
            vars(run).pop("term_counts", None)
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
        run.result.reports.update(run.reports)
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
