"""End-to-end orchestration with content-hash stage caching.

The stages are the rows of ``_STAGES``, run in order. Each row declares
the artifacts its compute reads and the config sections it reads, and
the stage's cache key is the SHA-256 of exactly those; a config value
that names a file (see ``_read_files``) enters the key as the file's
SHA-256. A stage whose key matches the cached manifest is skipped, so
rerunning after a lambda change only redoes stratified vectorization and
evaluation. Parsed inputs (corpus, vocabulary, index, category graph,
leaf sets) are loaded only by stages that compute and by callers of
``run_stages``, which yields after each stage, and the reports are
read back from ``evaluate``'s TSVs, so a run whose stages all hit hashes
files and parses two reports.

Every artifact and the manifest are written to a temporary file and moved
into place, and a stage's manifest entry is dropped before it recomputes,
so an interrupted run leaves each stage either complete or a miss.

Config is a JSON file; see DEFAULT_CONFIG for the documented keys.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass

from wikistrata import arbor, catgraph, corpus as corpus_mod, esa, evaluate, strata, textproc

__all__ = [
    "ConfigError", "StageError", "PipelineResult", "load_config", "run_pipeline", "run_stages",
]

DEFAULT_CONFIG = {
    "corpus": {
        # Either "path" to a line-delimited corpus file, or "synthetic"
        # generator parameters.
        "path": None,
        "synthetic": None,
        # Optional labels TSV (doc_id<TAB>class); synthetic corpora label
        # themselves.
        "labels": None,
    },
    "filter": {
        "min_distinct_terms": 0,
        "min_in_links": 0,
        "min_out_links": 0,
        "excluded_title_prefixes": [],
    },
    "analyzer": {"stopwords": None, "lowercase": True},
    "vocab": {"min_df": 1},
    "catvec": {"max_nnz": 1000},
    "arbor": {"root": None},
    "strata": {"lambdas": [0.5, 0.25, 0.125], "use_truncated_support": True},
    "eval": {"k": 5, "seed": 0},
    "cache": {"dir": "wikistrata-cache"},
}


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
        path, labels = cfg["corpus"]["path"], cfg["corpus"]["labels"]
        if not os.path.exists(path):
            raise ConfigError(f"corpus file not found: {path}")
        if not labels or not os.path.exists(labels):
            raise ConfigError("corpus.labels file is required for non-synthetic corpora")
        used += [("corpus", "path"), ("corpus", "labels")]
    files = {}
    for section, key in used:
        with open(cfg[section][key], "rb") as fh:
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
    except (ConfigError, StageError):
        raise
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


def _freqs_to_tsv(index: esa.EsaIndex) -> str:
    lines = []
    for pid in index.page_ids:
        for tid, f in sorted(index.page_term_freqs[pid].items()):
            lines.append(f"{pid}\t{tid}\t{f}\n")
        if not index.page_term_freqs[pid]:
            lines.append(f"{pid}\t-\t0\n")
    return "".join(lines)


def _freqs_from_tsv(text: str) -> dict[int, dict[int, int]]:
    freqs: dict[int, dict[int, int]] = {}
    for line in text.splitlines():
        pid, tid, f = line.split("\t")
        freqs.setdefault(int(pid), {})
        if tid != "-":
            freqs[int(pid)][int(tid)] = int(f)
    return freqs


def _catweights_to_tsv(weights: dict[int, dict[int, float]]) -> str:
    lines = []
    for cid in sorted(weights):
        if not weights[cid]:
            lines.append(f"{cid}\t-\t0\n")
        for tid in sorted(weights[cid]):
            lines.append(f"{cid}\t{tid}\t{weights[cid][tid]:.17g}\n")
    return "".join(lines)


def _catweights_from_tsv(text: str) -> dict[int, dict[int, float]]:
    out: dict[int, dict[int, float]] = {}
    for line in text.splitlines():
        cid, tid, w = line.split("\t")
        out.setdefault(int(cid), {})
        if tid != "-":
            out[int(cid)][int(tid)] = float(w)
    return out


class _Run:
    """One run's stage computes, the parsed stage inputs they share, and
    the ``PipelineResult`` so far. Each input is loaded on first use, and
    at most once, so a run whose stages all hit parses none of them; a
    caller of ``run_stages`` may use a loader once the stages that write
    its artifacts are done. A loader's comment names the artifacts it
    reads, which a stage that uses it must declare in ``_STAGES``. The
    ``index`` and ``catvecs`` stages set ``index`` and ``cat_weights`` to
    what they have just written, so a cold run does not parse those
    artifacts back; ``index`` also drops ``page_counts``, which no later
    stage reads."""

    def __init__(self, cfg: dict, cache: _Cache, files: dict):
        self.cfg, self.cache, self.files = cfg, cache, files
        self.result = PipelineResult(stages=[], reports={}, artifacts={}, cache_dir=cache.dir)
        self.analyzer = _make_analyzer(cfg, files)
        # built before any stage runs, so a value they reject is a ConfigError
        f, s, k = cfg["filter"], cfg["strata"], cfg["eval"]["k"]
        try:
            self.filter_cfg = corpus_mod.FilterConfig(
                min_distinct_terms=f["min_distinct_terms"], min_in_links=f["min_in_links"],
                min_out_links=f["min_out_links"],
                excluded_title_prefixes=tuple(f["excluded_title_prefixes"]))
            self.strata_cfg = strata.StrataConfig(
                lambdas=tuple(s["lambdas"]), use_truncated_support=s["use_truncated_support"],
                max_nnz=cfg["catvec"]["max_nnz"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc
        if not isinstance(k, int) or k < 2:
            raise ConfigError(f"eval.k must be an integer >= 2, got {k!r}")

    @functools.cached_property
    def store(self) -> corpus_mod.CorpusStore:  # filtered.jsonl
        return corpus_mod.parse_corpus(self.cache.read_text("filtered.jsonl"))

    @functools.cached_property
    def vocabulary(self) -> textproc.Vocabulary:  # vocab.tsv
        return _vocab_from_tsv(self.cache.read_text("vocab.tsv"), self.cfg["vocab"]["min_df"])

    @functools.cached_property
    def page_counts(self) -> dict[int, Counter]:  # filtered.jsonl
        """Each filtered page's analyzed term counts, by page id: the one
        analysis that ``vocab`` and ``index`` share."""
        return {p.page_id: Counter(self.analyzer.analyze(p.text)) for p in self.store.pages}

    @functools.cached_property
    def index(self) -> esa.EsaIndex:  # index.tsv, vocab.tsv
        return esa.index_from_freqs(_freqs_from_tsv(self.cache.read_text("index.tsv")),
                                    self.vocabulary)

    @functools.cached_property
    def cat_weights(self) -> dict[int, dict[int, float]]:  # catweights.tsv
        return _catweights_from_tsv(self.cache.read_text("catweights.tsv"))

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
            _parse_labels(labels_tsv)  # a malformed line fails here, not in evaluate
        self.cache.write_text("corpus.jsonl", corpus_mod.serialize_corpus(store))
        self.cache.write_text("labels.tsv", labels_tsv)

    def filter(self) -> None:
        raw = corpus_mod.parse_corpus(self.cache.read_text("corpus.jsonl"))
        self.cache.write_text("filtered.jsonl", corpus_mod.serialize_corpus(
            corpus_mod.filter_pages(raw, self.filter_cfg, self.analyzer)))

    def vocab(self) -> None:
        voc = textproc.vocabulary_from_terms(self.page_counts.values(),
                                             self.cfg["vocab"]["min_df"])
        self.cache.write_text("vocab.tsv", _vocab_to_tsv(voc))

    def build_index(self) -> None:
        built = esa.index_from_counts(self.page_counts, self.vocabulary)
        self.cache.write_text("index.tsv", _freqs_to_tsv(built))
        self.index = built  # what the loader would parse back from index.tsv
        del self.page_counts

    def catvecs(self) -> None:
        """Page and category concept vectors and truncated category supports."""
        max_nnz = self.cfg["catvec"]["max_nnz"]
        cids = sorted(self.graph.category_ids)
        cat_weights = {
            cid: catgraph.category_term_weights(cid, self.index, self.leaf_sets, max_nnz)
            for cid in cids
        }
        # the rows category_vector would build, from the weights at hand
        catvecs = dict(zip(cids, esa.concept_vectors(self.index,
                                                     [cat_weights[c] for c in cids])))
        pagevecs = _baseline_vectors(self.index)
        self.cache.write_text("catweights.tsv", _catweights_to_tsv(cat_weights))
        self.cat_weights = cat_weights  # the .17g text reads back exactly
        esa.save_vector_set(self.cache.path("catvecs.esvs"), catvecs)
        esa.save_vector_set(self.cache.path("pagevecs.esvs"), pagevecs)

    def weights(self) -> None:
        catvecs = esa.load_vector_set(self.cache.path("catvecs.esvs"))
        pagevecs = esa.load_vector_set(self.cache.path("pagevecs.esvs"))
        vectors = {catgraph.Node.category(c): v for c, v in catvecs.items()}
        vectors.update({catgraph.Node.page(p): v for p, v in pagevecs.items()})
        edges = catgraph.weight_edges(self.graph, vectors)
        self.cache.write_text("weights.tsv", catgraph.weighted_edges_to_tsv(edges))

    def arborify(self) -> None:
        root_id = self.cfg["arbor"]["root"]
        if root_id is None:
            root_id = self.store.root_category_id
        edges = _parse_weights_tsv(self.cache.read_text("weights.tsv"))
        digraph = arbor.reverse_and_cost(self.graph, edges, root_id)
        tree = arbor.chu_liu_edmonds(digraph)
        self.cache.write_text("arborescence.tsv", arbor.arborescence_to_tsv(tree))

    def vectorize_baseline(self) -> None:
        esa.save_vector_set(self.cache.path("baseline.esvs"), _baseline_vectors(self.index))

    def vectorize_stratified(self) -> None:
        tree = arbor.parse_arborescence_tsv(self.cache.read_text("arborescence.tsv"))
        scfg = self.strata_cfg
        # catweights.tsv holds the truncated tables; untruncated ones are built
        cat_weights = self.cat_weights if scfg.use_truncated_support else None
        vectorizer = strata.StrataVectorizer(self.index, self.leaf_sets, tree, scfg, cat_weights)
        pids = self.index.page_ids
        vecs = dict(zip(pids, esa.concept_vectors(self.index, map(vectorizer.row, pids))))
        esa.save_vector_set(self.cache.path("stratified.esvs"), vecs)

    def evaluate(self) -> None:
        labeled = _load_labeled(self.cache, self.index.page_ids)
        k, seed = self.cfg["eval"]["k"], self.cfg["eval"]["seed"]
        for mode in _MODES:
            vecs = esa.load_vector_set(self.cache.path(f"{mode}.esvs"))
            report = evaluate.cross_validate(labeled, vecs, k, seed)
            self.cache.write_text(f"report_{mode}.tsv", report.to_tsv())
            self.cache.write_text(f"summary_{mode}.txt", report.summary())


# The stages in run order: name, the artifacts its compute reads (through
# the _Run loaders too), the config sections it reads, the artifacts it
# writes, and the compute. A stage's cache key hashes exactly its inputs
# and config sections, so each row must name everything its compute reads.
_STAGES = (
    ("ingest", (), ("corpus",), ("corpus.jsonl", "labels.tsv"), _Run.ingest),
    ("filter", ("corpus.jsonl",), ("filter", "analyzer"), ("filtered.jsonl",), _Run.filter),
    ("vocab", ("filtered.jsonl",), ("vocab", "analyzer"), ("vocab.tsv",), _Run.vocab),
    ("index", ("filtered.jsonl", "vocab.tsv"), ("analyzer",), ("index.tsv",), _Run.build_index),
    ("catvecs", ("index.tsv", "vocab.tsv", "filtered.jsonl"), ("catvec",),
     ("catweights.tsv", "catvecs.esvs", "pagevecs.esvs"), _Run.catvecs),
    ("weights", ("catvecs.esvs", "pagevecs.esvs", "filtered.jsonl"), (), ("weights.tsv",),
     _Run.weights),
    ("arborify", ("weights.tsv", "filtered.jsonl"), ("arbor",), ("arborescence.tsv",),
     _Run.arborify),
    ("vectorize_baseline", ("index.tsv", "vocab.tsv"), (), ("baseline.esvs",),
     _Run.vectorize_baseline),
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
    its loaders (``analyzer``, ``store``, ``vocabulary``, ``index``,
    ``cat_weights``, ``graph``, ``leaf_sets``) parse the artifacts of the
    stages done so far, and ``run.result`` holds their statuses and
    artifact paths. A caller that stops iterating leaves the later stages
    untouched, as an interrupted run does. ``config`` is as for ``run_pipeline``.
    """
    cfg = config if isinstance(config, dict) else load_config(config)
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
        for mode in _MODES:
            run.result.reports[mode] = evaluate.EvalReport.from_tsv(
                run.cache.read_text(f"report_{mode}.tsv"))
    except ValueError as exc:
        raise StageError("evaluate", exc) from exc
    return run.result


def _make_analyzer(cfg: dict, files: dict) -> textproc.Analyzer:
    """The configured analyzer, with the stopwords of ``files`` (see
    ``_read_files``)."""
    stopwords = files.get(("analyzer", "stopwords"))
    return textproc.Analyzer(
        stopword_set=textproc.parse_stopwords(stopwords) if stopwords else frozenset(),
        lowercase_fold=cfg["analyzer"]["lowercase"])


def _baseline_vectors(index: esa.EsaIndex) -> dict[int, esa.SparseVector]:
    """Every page's ``esa.document_vector`` over its own terms, in one batch."""
    rows = map(index.page_tfidf.get, index.page_ids)
    return dict(zip(index.page_ids, esa.concept_vectors(index, rows)))


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


def _load_labeled(cache: _Cache, page_ids: tuple[int, ...]) -> evaluate.LabeledCorpus:
    """The labeled pages, without terms: ``cross_validate`` reads only ids."""
    labels = _parse_labels(cache.read_text("labels.tsv"))
    for pid in page_ids:
        if pid not in labels:
            raise ValueError(f"page {pid} has no label")
    return evaluate.LabeledCorpus(documents=tuple((pid, ()) for pid in page_ids),
                                  labels={pid: labels[pid] for pid in page_ids})
