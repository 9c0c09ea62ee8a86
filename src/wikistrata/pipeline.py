"""End-to-end orchestration with content-hash stage caching.

Stages run in dependency order; each stage's cache key is the SHA-256 of
its input artifacts plus the config subsections it reads. A stage whose
key matches the cached manifest is skipped, so rerunning after a lambda
change only redoes stratified vectorization and evaluation. Parsed inputs
(corpus, vocabulary, index, category graph, leaf sets) are loaded only by
stages that compute, and the reports are read back from ``evaluate``'s
TSVs, so a run whose stages all hit hashes files and parses two reports.

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
from dataclasses import dataclass

from wikistrata import arbor, catgraph, corpus as corpus_mod, esa, evaluate, strata, textproc

__all__ = ["ConfigError", "StageError", "PipelineResult", "load_config", "run_pipeline"]

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

    def status_of(self, stage: str) -> str:
        return dict(self.stages)[stage]


def _hash_bytes(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


def _cfg_bytes(cfg: dict, *sections: str) -> bytes:
    return json.dumps({s: cfg[s] for s in sections}, sort_keys=True).encode()


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


def run_pipeline(config) -> PipelineResult:
    """Execute ingest through evaluation, reusing cached stage outputs.

    ``config`` is a merged config dict (see load_config) or a path to a
    JSON config file.
    """
    if not isinstance(config, dict):
        config = load_config(config)
    cfg = config
    cache = _Cache(cfg["cache"]["dir"])
    result = PipelineResult(stages=[], reports={}, artifacts={}, cache_dir=cache.dir)

    analyzer = _make_analyzer(cfg)

    # Stage inputs, loaded on first use by a stage that computes, so a run
    # whose stages all hit parses none of them.
    @functools.cache
    def store():
        return corpus_mod.parse_corpus(cache.read_text("filtered.jsonl"))

    @functools.cache
    def vocabulary():
        return _vocab_from_tsv(cache.read_text("vocab.tsv"), cfg["vocab"]["min_df"])

    @functools.cache
    def index():
        return esa.index_from_freqs(_freqs_from_tsv(cache.read_text("index.tsv")), vocabulary())

    @functools.cache
    def graph():
        return catgraph.build_graph(store())

    @functools.cache
    def leaf_sets():
        return catgraph.leaf_sets(graph())

    # ingest: canonical corpus + labels
    if cfg["corpus"]["synthetic"]:
        syn = dict(cfg["corpus"]["synthetic"])
        ingest_key = _hash_bytes(_cfg_bytes(cfg, "corpus"))

        def do_ingest():
            store, labels = corpus_mod.gen_synthetic_wiki(**syn)
            cache.write_text("corpus.jsonl", corpus_mod.serialize_corpus(store))
            cache.write_text(
                "labels.tsv",
                "".join(f"{pid}\t{labels[pid]}\n" for pid in sorted(labels)),
            )
    else:
        path = cfg["corpus"]["path"]
        if not os.path.exists(path):
            raise ConfigError(f"corpus file not found: {path}")
        with open(path, "rb") as fh:
            corpus_bytes = fh.read()
        labels_path = cfg["corpus"]["labels"]
        if not labels_path or not os.path.exists(labels_path):
            raise ConfigError("corpus.labels file is required for non-synthetic corpora")
        with open(labels_path, "rb") as fh:
            labels_bytes = fh.read()
        ingest_key = _hash_bytes(corpus_bytes, labels_bytes)

        def do_ingest():
            store = corpus_mod.parse_corpus(corpus_bytes.decode("utf-8"))
            cache.write_text("corpus.jsonl", corpus_mod.serialize_corpus(store))
            cache.write_text("labels.tsv", labels_bytes.decode("utf-8"))

    _stage(result, cache, "ingest", ingest_key, ["corpus.jsonl", "labels.tsv"], do_ingest)

    # filter
    filter_key = _hash_bytes(cache.file_hash("corpus.jsonl"), _cfg_bytes(cfg, "filter", "analyzer"))

    def do_filter():
        raw = corpus_mod.parse_corpus(cache.read_text("corpus.jsonl"))
        fcfg = corpus_mod.FilterConfig(
            min_distinct_terms=cfg["filter"]["min_distinct_terms"],
            min_in_links=cfg["filter"]["min_in_links"],
            min_out_links=cfg["filter"]["min_out_links"],
            excluded_title_prefixes=tuple(cfg["filter"]["excluded_title_prefixes"]),
        )
        cache.write_text("filtered.jsonl", corpus_mod.serialize_corpus(
            corpus_mod.filter_pages(raw, fcfg, analyzer)))

    _stage(result, cache, "filter", filter_key, ["filtered.jsonl"], do_filter)

    # vocab
    vocab_key = _hash_bytes(cache.file_hash("filtered.jsonl"), _cfg_bytes(cfg, "vocab", "analyzer"))

    def do_vocab():
        voc = textproc.build_vocabulary(store(), analyzer, cfg["vocab"]["min_df"])
        cache.write_text("vocab.tsv", _vocab_to_tsv(voc))

    _stage(result, cache, "vocab", vocab_key, ["vocab.tsv"], do_vocab)

    # index
    index_key = _hash_bytes(cache.file_hash("filtered.jsonl"), cache.file_hash("vocab.tsv"),
                            _cfg_bytes(cfg, "analyzer"))

    def do_index():
        built = esa.build_index(store(), analyzer, vocabulary())
        cache.write_text("index.tsv", _freqs_to_tsv(built))

    _stage(result, cache, "index", index_key, ["index.tsv"], do_index)

    # catvecs: page + category concept vectors and truncated category supports
    catvec_key = _hash_bytes(cache.file_hash("index.tsv"), cache.file_hash("filtered.jsonl"),
                             _cfg_bytes(cfg, "catvec"))

    def do_catvecs():
        max_nnz = cfg["catvec"]["max_nnz"]
        cids = sorted(graph().category_ids)
        cat_weights = {
            cid: catgraph.category_term_weights(cid, index(), leaf_sets(), max_nnz)
            for cid in cids
        }
        # the rows category_vector would build, from the weights at hand
        catvecs = dict(zip(cids, esa.concept_vectors(index(), [cat_weights[c] for c in cids])))
        pagevecs = _baseline_vectors(index())
        cache.write_text("catweights.tsv", _catweights_to_tsv(cat_weights))
        esa.save_vector_set(cache.path("catvecs.esvs"), catvecs)
        esa.save_vector_set(cache.path("pagevecs.esvs"), pagevecs)

    _stage(result, cache, "catvecs", catvec_key,
           ["catweights.tsv", "catvecs.esvs", "pagevecs.esvs"], do_catvecs)

    # weights
    weights_key = _hash_bytes(cache.file_hash("catvecs.esvs"), cache.file_hash("pagevecs.esvs"),
                              cache.file_hash("filtered.jsonl"))

    def do_weights():
        catvecs = esa.load_vector_set(cache.path("catvecs.esvs"))
        pagevecs = esa.load_vector_set(cache.path("pagevecs.esvs"))
        vectors = {catgraph.Node.category(c): v for c, v in catvecs.items()}
        vectors.update({catgraph.Node.page(p): v for p, v in pagevecs.items()})
        edges = catgraph.weight_edges(graph(), vectors)
        cache.write_text("weights.tsv", catgraph.weighted_edges_to_tsv(edges))

    _stage(result, cache, "weights", weights_key, ["weights.tsv"], do_weights)

    # arborify
    arbor_key = _hash_bytes(cache.file_hash("weights.tsv"), _cfg_bytes(cfg, "arbor"))

    def do_arborify():
        root_id = cfg["arbor"]["root"]
        if root_id is None:
            root_id = store().root_category_id
        edges = _parse_weights_tsv(cache.read_text("weights.tsv"))
        digraph = arbor.reverse_and_cost(graph(), edges, root_id)
        tree = arbor.chu_liu_edmonds(digraph)
        cache.write_text("arborescence.tsv", arbor.arborescence_to_tsv(tree))

    _stage(result, cache, "arborify", arbor_key, ["arborescence.tsv"], do_arborify)

    # vectorize baseline + stratified
    base_key = _hash_bytes(cache.file_hash("index.tsv"))

    def do_vectorize_baseline():
        esa.save_vector_set(cache.path("baseline.esvs"), _baseline_vectors(index()))

    _stage(result, cache, "vectorize_baseline", base_key, ["baseline.esvs"], do_vectorize_baseline)

    strat_key = _hash_bytes(cache.file_hash("index.tsv"), cache.file_hash("arborescence.tsv"),
                            cache.file_hash("catweights.tsv"), _cfg_bytes(cfg, "strata", "catvec"))

    def do_vectorize_stratified():
        tree = arbor.parse_arborescence_tsv(cache.read_text("arborescence.tsv"))
        scfg = strata.StrataConfig(
            lambdas=tuple(cfg["strata"]["lambdas"]),
            use_truncated_support=cfg["strata"]["use_truncated_support"],
            max_nnz=cfg["catvec"]["max_nnz"],
        )
        vectorizer = strata.StrataVectorizer(index(), leaf_sets(), tree, scfg)
        if scfg.use_truncated_support:
            vectorizer._cat_weights.update(
                _catweights_from_tsv(cache.read_text("catweights.tsv")))
        vecs = {pid: vectorizer.document_vector(pid) for pid in index().page_ids}
        esa.save_vector_set(cache.path("stratified.esvs"), vecs)

    _stage(result, cache, "vectorize_stratified", strat_key, ["stratified.esvs"],
           do_vectorize_stratified)

    # evaluate
    eval_key = _hash_bytes(cache.file_hash("baseline.esvs"), cache.file_hash("stratified.esvs"),
                           cache.file_hash("labels.tsv"), cache.file_hash("index.tsv"),
                           _cfg_bytes(cfg, "eval"))

    def do_evaluate():
        labeled = _load_labeled(cache, index().page_ids)
        for mode in _MODES:
            vecs = esa.load_vector_set(cache.path(f"{mode}.esvs"))
            report = evaluate.cross_validate(labeled, vecs, cfg["eval"]["k"], cfg["eval"]["seed"])
            cache.write_text(f"report_{mode}.tsv", report.to_tsv())
            cache.write_text(f"summary_{mode}.txt", report.summary())

    _stage(result, cache, "evaluate", eval_key,
           ["report_baseline.tsv", "report_stratified.tsv",
            "summary_baseline.txt", "summary_stratified.txt"], do_evaluate)

    # evaluate's key covers both vector sets, the labels, the index and the
    # eval config, so its reports are the ones a new cross-validation gives
    try:
        for mode in _MODES:
            result.reports[mode] = evaluate.EvalReport.from_tsv(
                cache.read_text(f"report_{mode}.tsv"))
    except ValueError as exc:
        raise StageError("evaluate", exc) from exc
    return result


def _make_analyzer(cfg: dict) -> textproc.Analyzer:
    stopwords = frozenset()
    if cfg["analyzer"]["stopwords"]:
        stopwords = textproc.load_stopwords(cfg["analyzer"]["stopwords"])
    return textproc.Analyzer(stopword_set=stopwords,
                             lowercase_fold=cfg["analyzer"]["lowercase"])


def _baseline_vectors(index: esa.EsaIndex) -> dict[int, esa.SparseVector]:
    """Every page's ``esa.document_vector`` over its own terms, in one batch."""
    voc = index.vocabulary
    rows = [
        {tid: esa.tfidf(f, voc.df(tid), index.n_pages) for tid, f in freqs.items()}
        for freqs in map(index.page_term_freqs.get, index.page_ids)
    ]
    return dict(zip(index.page_ids, esa.concept_vectors(index, rows)))


def _parse_weights_tsv(text: str) -> list[catgraph.WeightedEdge]:
    edges = []
    for line in text.splitlines()[1:]:
        src, dst, kind, p, cost = line.split("\t")
        edges.append(catgraph.WeightedEdge(
            catgraph.Node.parse(src), catgraph.Node.parse(dst), kind, float(p), float(cost)))
    return edges


def _load_labeled(cache: _Cache, page_ids: tuple[int, ...]) -> evaluate.LabeledCorpus:
    """The labeled pages, without terms: ``cross_validate`` reads only ids."""
    labels = {}
    for line in cache.read_text("labels.tsv").splitlines():
        pid, label = line.split("\t")
        labels[int(pid)] = label
    return evaluate.LabeledCorpus(documents=tuple((pid, ()) for pid in page_ids),
                                  labels={pid: labels[pid] for pid in page_ids})
