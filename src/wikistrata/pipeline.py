"""End-to-end orchestration with content-hash stage caching.

The stages are the rows of ``_STAGES``, run in order. Each row declares
the artifacts its compute reads and the config sections it reads, and
the stage's cache key is the SHA-256 of exactly those; a config value
that names a file (see ``_read_files``) enters the key as the file's
SHA-256. A stage whose key matches the cached manifest is skipped, so
rerunning after a lambda change only redoes stratified vectorization and
evaluation. Parsed inputs (corpus, vocabulary, index, vector sets,
category graph, leaf sets) are loaded only by stages that compute and by
callers of ``run_stages``, which yields after each stage, and the
reports are read back from ``evaluate``'s TSVs, so a run whose stages
all hit hashes files and parses two reports. A stage that computes hands
what it writes to the stages after it in memory, so a cold run parses
none of its own artifacts; a stage reads an artifact from disk only when
the stage that writes it was a hit.

Every artifact and the manifest are written to a temporary file and moved
into place, and a stage's manifest entry is dropped before it recomputes,
so an interrupted run leaves each stage either complete or a miss.

Config is a JSON file; see DEFAULT_CONFIG for the documented keys.
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
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from wikistrata import arbor, catgraph, corpus as corpus_mod, esa, evaluate, strata, textproc

__all__ = [
    "ConfigError", "StageError", "PipelineResult", "load_config", "run_pipeline", "run_stages",
]

DEFAULT_CONFIG = {
    # a corpus file ("path"; "labels" is its TSV of doc_id<TAB>class), or the
    # parameters of a generator ("synthetic") whose corpus labels itself
    "corpus": {"path": None, "synthetic": None, "labels": None},
    "filter": {"min_distinct_terms": 0, "min_in_links": 0, "min_out_links": 0,
               "excluded_title_prefixes": []},
    "analyzer": {"stopwords": None, "lowercase": True},
    "vocab": {"min_df": 1},
    "catvec": {"max_nnz": 1000},
    "arbor": {"root": None},
    "strata": {"lambdas": [0.5, 0.25, 0.125], "use_truncated_support": True},
    "eval": {"k": 5, "seed": 0},
    "cache": {"dir": "wikistrata-cache"},
}


def _is_number(v) -> bool:
    return type(v) is int or isinstance(v, float)


# The kind of each key of DEFAULT_CONFIG: the words a ConfigError names it
# by, and the test a value must pass (a test that raises TypeError fails;
# type(v) is int leaves out bool). A file key the run uses must also name an
# existing file (see _read_files); the generator checks its values in ingest.
_BOOL = "true or false", lambda v: isinstance(v, bool)
_FILE = "a file path or null", lambda v: v is None or isinstance(v, str)
_COUNT = "an integer >= 0", lambda v: type(v) is int and v >= 0
_STRINGS = "a list of strings", lambda v: (isinstance(v, (list, tuple))
                                           and all(isinstance(p, str) for p in v))
_SYNTHETIC = "null or an object of gen_synthetic_wiki's parameters", lambda v: (
    v is None or bool(inspect.signature(corpus_mod.gen_synthetic_wiki).bind(**v)))
_LAMBDAS = "a list of finite non-negative numbers in decreasing order (ties allowed)", lambda v: (
    isinstance(v, (list, tuple)) and all(_is_number(x) and 0 <= x < math.inf for x in v)
    and all(a >= b for a, b in zip(v, v[1:])))  # NaN fails every comparison
# random.Random seeds null from the OS, and NaN from hash(nan), which differs per object
_SEED = "an integer, a string or a number other than NaN", lambda v: (
    isinstance(v, str) or _is_number(v) and v == v)
_CONFIG_KINDS = {
    "corpus": {"path": _FILE, "synthetic": _SYNTHETIC, "labels": _FILE},
    "filter": {"min_distinct_terms": _COUNT, "min_in_links": _COUNT, "min_out_links": _COUNT,
               "excluded_title_prefixes": _STRINGS},
    "analyzer": {"stopwords": _FILE, "lowercase": _BOOL},
    "vocab": {"min_df": ("a finite number", lambda v: _is_number(v) and -math.inf < v < math.inf)},
    "catvec": {"max_nnz": ("a positive integer", lambda v: type(v) is int and v > 0)},
    "arbor": {"root": ("an integer or null", lambda v: v is None or type(v) is int)},
    "strata": {"lambdas": _LAMBDAS, "use_truncated_support": _BOOL},
    "eval": {"k": ("an integer >= 2", lambda v: type(v) is int and v >= 2), "seed": _SEED},
    "cache": {"dir": ("a directory path", lambda v: isinstance(v, (str, os.PathLike)))},
}


def _check_config(cfg: dict) -> None:
    """Raise ConfigError naming the first ``section.key`` of ``cfg`` whose
    value is not of its kind in ``_CONFIG_KINDS``."""
    for section, kinds in _CONFIG_KINDS.items():
        for key, (kind, test) in kinds.items():
            value = cfg[section][key]
            try:
                ok = test(value)
            except TypeError:
                ok = False
            if not ok:
                raise ConfigError(f"{section}.{key} must be {kind}, got {value!r}")


_MODES = ("baseline", "stratified")


class ConfigError(ValueError):
    pass


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")


def load_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid config JSON: {exc}") from exc
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


def _hash_bytes(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


def _read_files(cfg: dict) -> dict[tuple[str, str], bytes]:
    """The bytes of each file a config key names and the run uses
    (``corpus.path``, ``corpus.labels``, ``analyzer.stopwords``), by that
    key. Each is read once, so a stage's key and its compute see the same
    bytes."""
    used = [("analyzer", "stopwords")] if cfg["analyzer"]["stopwords"] else []
    if not cfg["corpus"]["synthetic"]:
        used += [("corpus", "path"), ("corpus", "labels")]
    files = {}
    for section, key in used:
        name = cfg[section][key]
        if name is None or not os.path.exists(name):
            raise ConfigError(f"{section}.{key} must name an existing file, got {name!r}")
        with open(name, "rb") as fh:
            files[section, key] = fh.read()
    return files


def _cfg_bytes(cfg: dict, files: dict, *sections: str) -> bytes:
    """Config ``sections`` as JSON, with the SHA-256 of each file in
    ``files`` (see ``_read_files``) in place of the path that names it."""
    view = {s: dict(cfg[s]) for s in sections}
    for (section, key), data in files.items():
        if section in view:
            view[section][key] = hashlib.sha256(data).hexdigest()
    return json.dumps(view, sort_keys=True).encode()


class _Cache:
    def __init__(self, directory: str):
        self.dir = directory
        os.makedirs(directory, exist_ok=True)
        self.manifest_path = os.path.join(directory, "manifest.json")
        if os.path.exists(self.manifest_path):
            with open(self.manifest_path, encoding="utf-8") as fh:
                self.manifest = json.load(fh)
        else:
            self.manifest = {}
        self._digests = {}  # name -> sha256, for this run

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def file_hash(self, name: str) -> bytes:
        """An artifact's sha256, read at most once per run (see ``forget``)."""
        if name not in self._digests:
            with open(self.path(name), "rb") as fh:
                self._digests[name] = hashlib.sha256(fh.read()).digest()
        return self._digests[name]

    def is_hit(self, stage: str, key: str, outputs: list[str]) -> bool:
        return self.manifest.get(stage) == key and all(
            os.path.exists(self.path(o)) for o in outputs
        )

    def forget(self, stage: str, outputs: list[str]) -> None:
        """Drop a stage's entry, so a crash while it recomputes leaves a miss,
        and the digests of the outputs it is about to rewrite."""
        for o in outputs:
            self._digests.pop(o, None)
        if self.manifest.pop(stage, None) is not None:
            self._write_manifest()

    def record(self, stage: str, key: str) -> None:
        self.manifest[stage] = key
        self._write_manifest()

    def _write_manifest(self) -> None:
        with esa._open_atomic(self.manifest_path, "w", encoding="utf-8") as fh:
            json.dump(self.manifest, fh, sort_keys=True, indent=1)

    def write_text(self, name: str, text: str) -> None:
        with esa._open_atomic(self.path(name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

    def read_text(self, name: str) -> str:
        with open(self.path(name), encoding="utf-8", newline="") as fh:
            return fh.read()


def _stage(result, cache, name, key, outputs, compute):
    """Run or skip one stage; StageError wraps any failure with the stage name."""
    try:
        if cache.is_hit(name, key, outputs):
            result.stages.append((name, "hit"))
        else:
            cache.forget(name, outputs)
            compute()
            cache.record(name, key)
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


def _vocab_from_tsv(text: str, min_df: int) -> textproc.Vocabulary:
    term_to_id = {}
    dfs = []
    for line in text.splitlines():
        term, tid, df = line.split("\t")
        term_to_id[term] = int(tid)
        dfs.append(int(df))
    return textproc.Vocabulary(term_to_id=term_to_id, doc_freq=tuple(dfs), min_df=min_df)


def _table_to_tsv(rows, spec: str) -> str:
    """``row<TAB>column<TAB>value`` lines, each value formatted by ``spec``, for each
    ``(row, columns, values)`` of ``rows``; a row with no entry is ``row<TAB>-<TAB>0``."""
    return "".join(
        "".join(map(f"{r}\t{{}}\t{{:{spec}}}\n".format, cols, vals)) or f"{r}\t-\t0\n"
        for r, cols, vals in rows)


def _table_from_tsv(text: str, value: type) -> dict[int, dict]:
    """What ``_table_to_tsv`` wrote, each value read by ``value``."""
    table: dict[int, dict] = {}
    for line in text.splitlines():
        row, col, v = line.split("\t")
        table.setdefault(int(row), {})
        if col != "-":
            table[int(row)][int(col)] = value(v)
    return table


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


class _Run:
    """One run's stage computes, the parsed stage inputs they share, and
    the ``PipelineResult`` so far. Each input is loaded on first use, and
    at most once, so a run whose stages all hit parses none of them; a
    caller of ``run_stages`` may use a loader once the stages that write
    its artifacts are done. A loader's comment names the artifacts it
    reads, which a stage that uses it must declare in ``_STAGES``.

    A stage that computes sets the loaders of what it writes to the values
    it has just written, so a cold run parses none of its own artifacts,
    and a loader parses its file only when the stage that writes it was a
    hit. Each handed-over value is dropped after its last reader, as
    ``page_counts`` is after ``index``. No stage reads ``pagevecs.esvs``,
    the byte copy of ``baseline``. ``cat_weights`` and ``cat_vectors`` hold
    one value per strongly connected component, under its smallest
    category id; their readers map any category id to its component."""

    def __init__(self, cfg: dict, cache: _Cache, files: dict):
        self.cfg, self.cache, self.files = cfg, cache, files
        self.result = PipelineResult(stages=[], reports={}, artifacts={}, cache_dir=cache.dir)
        stopwords = files.get(("analyzer", "stopwords"))
        self.analyzer = textproc.Analyzer(
            stopword_set=textproc.parse_stopwords(stopwords) if stopwords else frozenset(),
            lowercase_fold=cfg["analyzer"]["lowercase"])
        self.filter_cfg = corpus_mod.FilterConfig(**dict(
            cfg["filter"], excluded_title_prefixes=tuple(cfg["filter"]["excluded_title_prefixes"])))
        self.strata_cfg = strata.StrataConfig(**cfg["strata"], max_nnz=cfg["catvec"]["max_nnz"])

    @functools.cached_property
    def raw_text(self) -> str:  # corpus.jsonl
        return self.cache.read_text("corpus.jsonl")

    @functools.cached_property
    def raw_store(self) -> corpus_mod.CorpusStore:  # corpus.jsonl
        return corpus_mod.parse_corpus(self.raw_text)

    @functools.cached_property
    def labels(self) -> dict[int, str]:  # labels.tsv
        return _parse_labels(self.cache.read_text("labels.tsv"))

    @functools.cached_property
    def store(self) -> corpus_mod.CorpusStore:  # filtered.jsonl
        return corpus_mod.parse_corpus(self.cache.read_text("filtered.jsonl"))

    @functools.cached_property
    def vocabulary(self) -> textproc.Vocabulary:  # vocab.tsv
        return _vocab_from_tsv(self.cache.read_text("vocab.tsv"), self.cfg["vocab"]["min_df"])

    @functools.cached_property
    def page_counts(self) -> dict[int, Counter]:  # filtered.jsonl
        """Each filtered page's analyzed term counts, by page id, keyed by
        one interned string per term: the one analysis that ``vocab`` and
        ``index`` share."""
        return {p.page_id: Counter(map(sys.intern, self.analyzer.analyze(p.text)))
                for p in self.store.pages}

    @functools.cached_property
    def index(self) -> esa.EsaIndex:  # index.tsv, vocab.tsv
        return _index_from_tsv(self.cache.read_text("index.tsv"), self.vocabulary)

    @functools.cached_property
    def cat_weights(self) -> dict[int, dict[int, float]]:  # catweights.tsv
        return _table_from_tsv(self.cache.read_text("catweights.tsv"), float)

    @functools.cached_property
    def cat_vectors(self) -> dict[int, esa.SparseVector]:  # catvecs.esvs
        return esa.load_vector_set(self.cache.path("catvecs.esvs"))

    @functools.cached_property
    def edges(self) -> list[catgraph.WeightedEdge]:  # weights.tsv
        return _parse_weights_tsv(self.cache.read_text("weights.tsv"))

    @functools.cached_property
    def tree(self) -> arbor.Arborescence:  # arborescence.tsv
        return arbor.parse_arborescence_tsv(self.cache.read_text("arborescence.tsv"))

    @functools.cached_property
    def baseline(self) -> dict[int, esa.SparseVector]:  # baseline.esvs
        return esa.load_vector_set(self.cache.path("baseline.esvs"))

    @functools.cached_property
    def stratified(self) -> dict[int, esa.SparseVector]:  # stratified.esvs
        return esa.load_vector_set(self.cache.path("stratified.esvs"))

    @functools.cached_property
    def reports(self) -> dict[str, evaluate.EvalReport]:  # report_*.tsv
        return {mode: evaluate.EvalReport.from_tsv(self.cache.read_text(f"report_{mode}.tsv"))
                for mode in _MODES}

    @functools.cached_property
    def graph(self) -> catgraph.CategoryGraph:  # filtered.jsonl
        return catgraph.build_graph(self.store)

    @functools.cached_property
    def leaf_sets(self) -> catgraph.LeafSetIndex:  # filtered.jsonl
        return catgraph.leaf_sets(self.graph)

    def ingest(self) -> None:
        """The canonical corpus and labels."""
        source = self.cfg["corpus"]
        if source["synthetic"]:
            store, labels = corpus_mod.gen_synthetic_wiki(**source["synthetic"])
            labels_tsv = "".join(f"{pid}\t{labels[pid]}\n" for pid in sorted(labels))
        else:
            store = corpus_mod.parse_corpus(self.files["corpus", "path"].decode("utf-8"))
            labels_tsv = self.files["corpus", "labels"].decode("utf-8")
        # a malformed line fails here, not in evaluate
        self.labels = _parse_labels(labels_tsv)
        self.raw_text = corpus_mod.serialize_corpus(store)
        self.cache.write_text("corpus.jsonl", self.raw_text)
        self.cache.write_text("labels.tsv", labels_tsv)
        self.raw_store = store

    def filter(self) -> None:
        filtered = corpus_mod.filter_pages(self.raw_store, self.filter_cfg, self.analyzer)
        # a filter that keeps every page and membership keeps the corpus text
        text = self.raw_text if filtered == self.raw_store else corpus_mod.serialize_corpus(filtered)
        del self.raw_store, self.raw_text
        self.cache.write_text("filtered.jsonl", text)
        self.store = filtered

    def vocab(self) -> None:
        min_df = self.cfg["vocab"]["min_df"]
        voc = textproc.vocabulary_from_terms(self.page_counts.values(), min_df)
        if not len(voc):
            raise ValueError(f"vocab.min_df {min_df!r} keeps no term")
        self.cache.write_text("vocab.tsv", _vocab_to_tsv(voc))
        self.vocabulary = voc

    def build_index(self) -> None:
        built = esa.index_from_counts(self.page_counts, self.vocabulary)
        t, f = built.term_ids.tolist(), built.freqs.tolist()
        rows = ((pid, t[s], f[s]) for pid, s in built._slices.items())
        self.cache.write_text("index.tsv", _table_to_tsv(rows, "d"))
        self.index = built  # what the loader would parse back from index.tsv
        del self.page_counts

    def vectorize_baseline(self) -> None:
        """Every page's ``esa.document_vector`` over its own terms, in one
        batch: the vectors ``evaluate`` classifies and ``weights`` dots with
        the category vectors."""
        index = self.index
        vecs = dict(zip(index.page_ids,
                        esa._csr_vectors(index, index.row_ptr, index.term_ids, index.tfidfs)))
        for name in ("baseline.esvs", "pagevecs.esvs"):
            esa.save_vector_set(self.cache.path(name), vecs)
        self.baseline = vecs

    def catvecs(self) -> None:
        """Truncated category supports and their concept vectors, one per
        strongly connected component, since its categories share F(c)."""
        cids = _component_ids(self.leaf_sets.comp_of)
        comps = [self.leaf_sets.comp_of[cid] for cid in cids]
        tables = dict(zip(cids, catgraph._component_tables(
            self.index, self.leaf_sets, comps, self.cfg["catvec"]["max_nnz"], False)))
        # the rows category_vector would build, from the weights at hand
        vecs = dict(zip(tables, esa.concept_vectors(self.index, tables.values())))
        rows = ((cid, t.keys(), t.values()) for cid, t in tables.items())
        self.cache.write_text("catweights.tsv", _table_to_tsv(rows, ".17g"))
        esa.save_vector_set(self.cache.path("catvecs.esvs"), vecs)
        self.cat_weights, self.cat_vectors = tables, vecs  # the .17g text reads back exactly

    def weights(self) -> None:
        comp_of = self.leaf_sets.comp_of
        # one vector per component, or per category in an older cache
        by_comp = {comp_of[cid]: v for cid, v in self.cat_vectors.items()}
        del self.cat_vectors
        vectors = {catgraph.Node.category(c): by_comp[comp] for c, comp in comp_of.items()}
        vectors.update({catgraph.Node.page(p): v for p, v in self.baseline.items()})
        edges = catgraph.weight_edges(self.graph, vectors)
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
        scfg = self.strata_cfg
        # catweights.tsv holds the truncated tables; untruncated ones are built
        # in one pass, before the first row
        cat_weights = self.cat_weights if scfg.use_truncated_support else None
        vectorizer = strata.StrataVectorizer(self.index, self.leaf_sets, self.tree, scfg,
                                             cat_weights)
        index, pids = self.index, self.index.page_ids
        vectorizer._fill_tables(pids)
        values = list(itertools.chain.from_iterable(map(vectorizer._values, pids)))
        vecs = dict(zip(pids, esa._csr_vectors(index, index.row_ptr, index.term_ids, values)))
        del vectorizer, self.tree
        esa.save_vector_set(self.cache.path("stratified.esvs"), vecs)
        self.stratified = vecs

    def evaluate(self) -> None:
        labeled = _labeled(self.labels, self.index.page_ids)
        k, seed = self.cfg["eval"]["k"], self.cfg["eval"]["seed"]
        reports = {}
        for mode in _MODES:  # the baseline and stratified loaders
            reports[mode] = evaluate.cross_validate(labeled, getattr(self, mode), k, seed)
            delattr(self, mode)
            self.cache.write_text(f"report_{mode}.tsv", reports[mode].to_tsv())
            self.cache.write_text(f"summary_{mode}.txt", reports[mode].summary())
        self.reports = reports  # the .17g text reads back to an equal report


# The stages in run order: name, the artifacts its compute reads (through
# the _Run loaders too), the config sections it reads, the artifacts it
# writes, and the compute. A stage's cache key hashes exactly its inputs
# and config sections, so each row must name everything its compute reads.
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
    ("vectorize_stratified",
     ("index.tsv", "vocab.tsv", "filtered.jsonl", "arborescence.tsv", "catweights.tsv"),
     ("strata", "catvec"), ("stratified.esvs",), _Run.vectorize_stratified),
    ("evaluate", ("baseline.esvs", "stratified.esvs", "labels.tsv", "index.tsv", "vocab.tsv"),
     ("eval",), ("report_baseline.tsv", "report_stratified.tsv",
                 "summary_baseline.txt", "summary_stratified.txt"), _Run.evaluate),
)


def run_stages(config):
    """Run the stages in order, yielding ``(name, status, run)`` after each.

    ``status`` is ``"run"`` or ``"hit"``. ``run`` is this run's ``_Run``:
    its loaders (``store``, ``vocabulary``, ``index``, ``baseline``,
    ``cat_weights``, ``edges``, ``tree``, ``graph``, ``leaf_sets`` and the
    others of ``_Run``) give the artifacts of the stages done so far, as
    handed over by a stage that ran or parsed from the cache;
    ``cat_weights`` and ``cat_vectors`` hold one entry per strongly
    connected component, under its smallest category id (map a category
    to it through ``leaf_sets.comp_of``). ``run.result`` holds the stages'
    statuses and artifact paths. ``run.analyzer`` is the configured
    analyzer. A caller that stops iterating leaves the later stages
    untouched, as an interrupted run does. ``config`` is as for ``run_pipeline``.
    """
    cfg = config if isinstance(config, dict) else load_config(config)
    _check_config(cfg)
    cache = _Cache(cfg["cache"]["dir"])
    files = _read_files(cfg)
    run = _Run(cfg, cache, files)
    for name, inputs, sections, outputs, compute in _STAGES:
        key = _hash_bytes(*map(cache.file_hash, inputs), _cfg_bytes(cfg, files, *sections))
        _stage(run.result, cache, name, key, outputs, functools.partial(compute, run))
        yield name, run.result.stages[-1][1], run


def run_pipeline(config) -> PipelineResult:
    """Execute ingest through evaluation, reusing cached stage outputs.

    ``config`` is a merged config dict (see load_config) or a path to a
    JSON config file.
    """
    for _name, _status, run in run_stages(config):
        pass
    # evaluate's key covers both vector sets, the labels, the index and the
    # eval config, so its reports are the ones a new cross-validation gives
    try:
        run.result.reports.update(run.reports)
    except ValueError as exc:
        raise StageError("evaluate", exc) from exc
    return run.result


def _component_ids(comp_of: dict[int, int]) -> list[int]:
    """The smallest category id of each component of ``comp_of``, in increasing order."""
    return sorted({comp: cid for cid, comp in sorted(comp_of.items(), reverse=True)}.values())


def _parse_weights_tsv(text: str) -> list[catgraph.WeightedEdge]:
    edges = []
    for line in text.splitlines()[1:]:
        src, dst, kind, p, cost = line.split("\t")
        edges.append(catgraph.WeightedEdge(
            catgraph.Node.parse(src), catgraph.Node.parse(dst), kind, float(p), float(cost)))
    return edges


def _parse_labels(text: str) -> dict[int, str]:
    """The labels TSV, one ``page_id<TAB>label`` line per page, by page id;
    a later line for the same page wins."""
    labels = {}
    for n, line in enumerate(text.splitlines(), 1):
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
