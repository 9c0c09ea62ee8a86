import builtins
import dataclasses
import importlib.util
import inspect
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wikistrata import (
    arbor, catgraph, corpus as corpus_mod, esa, evaluate, pipeline, strata, textproc,
)
from wikistrata.pipeline import (
    ConfigError,
    StageError,
    load_config,
    merge_config,
    run_pipeline,
    run_stages,
)

from conftest import FIXTURE_PATH, _table_from_tsv, fixture_cfg, table_dicts

SYNTH = {
    "seed": 0,
    "n_topics": 3,
    "pages_per_topic": 15,
    "vocab_per_topic": 20,
    "depth": 1,
}

ALL_STAGES = [
    "ingest", "filter", "vocab", "index", "vectorize_baseline", "catvecs", "weights",
    "arborify", "vectorize_stratified", "evaluate",
]


def make_cfg(tmp_path, **overrides):
    user = {
        "corpus": {"synthetic": dict(SYNTH)},
        "cache": {"dir": str(tmp_path / "cache")},
    }
    for section, values in overrides.items():
        user.setdefault(section, {}).update(values)
    return merge_config(user)


class TestConfig:
    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            merge_config({"corpus": {"synthetic": SYNTH}, "nope": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            merge_config({"corpus": {"synthetic": SYNTH}, "vocab": {"min-df": 2}})

    def test_non_dict_section_rejected(self):
        with pytest.raises(ConfigError):
            merge_config({"corpus": "x"})

    def test_corpus_source_required(self):
        with pytest.raises(ConfigError):
            merge_config({})

    @pytest.mark.parametrize("files", [("path",), ("labels",), ("path", "labels")])
    def test_synthetic_next_to_a_corpus_file_rejected(self, tmp_path, files):
        # neither file exists: the generator ran and ignored them
        corpus = dict(synthetic=dict(SYNTH), **{f: str(tmp_path / f"absent-{f}") for f in files})
        user = {"corpus": corpus, "cache": {"dir": str(tmp_path / "cache")}}
        for run in (merge_config, run_pipeline, lambda cfg: next(run_stages(cfg))):
            with pytest.raises(ConfigError, match="one corpus source"):
                run(user)
        assert not (tmp_path / "cache").exists()

    def test_defaults_filled_in(self):
        cfg = merge_config({"corpus": {"synthetic": SYNTH}})
        assert cfg["vocab"]["min_df"] == 1
        assert cfg["strata"]["lambdas"] == [0.5, 0.25, 0.125]

    def test_kind_table_has_exactly_the_default_keys_and_takes_each_default(self):
        pipeline._check_config(pipeline.DEFAULT_CONFIG)

    def test_default_config_is_the_documented_one(self):
        assert pipeline.DEFAULT_CONFIG == {
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

    def test_library_defaults_equal_the_config_defaults(self):
        # a library caller who leaves a knob out gets the pipeline's default
        def param(fn, name):
            return inspect.signature(fn).parameters[name].default

        filt, strat = corpus_mod.FilterConfig(), strata.StrataConfig()
        pairs = [(f"filter.{f.name}", getattr(filt, f.name)) for f in dataclasses.fields(filt)]
        pairs += [("catvec.max_nnz" if f.name == "max_nnz" else f"strata.{f.name}",
                   getattr(strat, f.name)) for f in dataclasses.fields(strat)]
        pairs += [("catvec.max_nnz", param(catgraph.category_term_weights, "max_nnz")),
                  ("catvec.max_nnz", param(catgraph.category_vector, "max_nnz")),
                  ("vocab.min_df", param(textproc.build_vocabulary, "min_df")),
                  ("analyzer.lowercase", textproc.Analyzer().lowercase_fold)]
        pairs += [(f"eval.{name}", param(fn, name))
                  for fn in (evaluate.split_folds, evaluate.cross_validate) for name in ("k", "seed")]
        for key, value in pairs:
            section, name = key.split(".")
            want = pipeline.DEFAULT_CONFIG[section][name]
            assert value == (tuple(want) if isinstance(want, list) else want), key

    @pytest.mark.parametrize("user", [[], None, "corpus"])
    def test_config_that_is_not_an_object_rejected(self, user):
        with pytest.raises(ConfigError, match="object"):
            merge_config(user)

    def test_partial_dict_runs_exactly_as_its_merged_form(self, tmp_path):
        user = {"corpus": {"synthetic": dict(SYNTH)}, "strata": {"lambdas": [0.5, 0.5]}}
        merged = merge_config(dict(user, cache={"dir": str(tmp_path / "merged")}))
        assert merge_config(merged) == merged
        partial = run_pipeline(dict(user, cache={"dir": str(tmp_path / "partial")}))
        full = run_pipeline(merged)
        assert partial.stages == full.stages and partial.reports == full.reports
        assert sorted(partial.artifacts) == sorted(full.artifacts)
        for name in [*partial.artifacts, "manifest.json"]:
            assert ((tmp_path / "partial" / name).read_bytes()
                    == (tmp_path / "merged" / name).read_bytes()), name
        name, status, _run = next(run_stages({"corpus": {"synthetic": dict(SYNTH)},
                                              "cache": {"dir": str(tmp_path / "stages")}}))
        assert (name, status) == ("ingest", "run")

    @pytest.mark.parametrize("section, values", [("nope", {}), ("vocab", {"min-df": 2})],
                             ids=["section", "key"])
    def test_unknown_section_or_key_of_a_dict_raises(self, tmp_path, section, values):
        merged = make_cfg(tmp_path)
        bad = dict(merged, **{section: dict(merged.get(section, {}), **values)})
        for run in (run_pipeline, lambda cfg: next(run_stages(cfg))):
            with pytest.raises(ConfigError, match="unknown config"):
                run(bad)
        assert not (tmp_path / "cache").exists()

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"corpus": {"synthetic": SYNTH}}))
        cfg = load_config(path)
        assert cfg["corpus"]["synthetic"]["n_topics"] == 3

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_corpus_file(self, tmp_path):
        cfg = merge_config({
            "corpus": {"path": str(tmp_path / "absent.jsonl"),
                       "labels": str(tmp_path / "absent.tsv")},
            "cache": {"dir": str(tmp_path / "cache")},
        })
        with pytest.raises(ConfigError):
            run_pipeline(cfg)

    @pytest.mark.parametrize("section, values, message", [
        ("cache", {"dir": ""}, "cache.dir must name a directory, got ''"),
        ("analyzer", {"stopwords": ""}, "analyzer.stopwords must name an existing file, got ''"),
    ], ids=["cache=empty", "stopwords=empty"])
    def test_empty_path_is_rejected_and_nothing_is_created(self, tmp_path, monkeypatch, section,
                                                         values, message):
        monkeypatch.chdir(tmp_path)
        user = {"corpus": {"synthetic": dict(SYNTH)}, "cache": {"dir": "cache"}}
        for run in (run_pipeline, lambda cfg: next(run_stages(cfg))):
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                run(dict(user, **{section: values}))
        assert list(tmp_path.iterdir()) == []

    def test_labels_required_for_file_corpora(self, tmp_path):
        cfg = merge_config({
            "corpus": {"path": str(FIXTURE_PATH)},
            "cache": {"dir": str(tmp_path / "cache")},
        })
        with pytest.raises(ConfigError):
            run_pipeline(cfg)

    @pytest.mark.parametrize("section, values", [
        ("filter", {"excluded_title_prefixes": ["Hidden", ""]}),
        ("filter", {"excluded_title_prefixes": ("Hidden",)}),
        ("vocab", {"min_df": 2.0}),
        ("arbor", {"root": 0}),
        ("eval", {"seed": "abc"}),
        ("eval", {"seed": 1.5}),
        ("eval", {"k": 2}),
        ("corpus", {"synthetic": dict(SYNTH, crosstalk=0.2)}),
        ("strata", {"lambdas": [0.5, 0.0]}),
        ("vocab", {"min_df": 1}),
    ])
    def test_values_the_stages_take_pass_the_checks_before_them(self, tmp_path, section,
                                                                 values):
        name, status, _run = next(run_stages(make_cfg(tmp_path, **{section: values})))
        assert (name, status) == ("ingest", "run")


class TestCaching:
    def test_first_run_runs_second_run_hits(self, tmp_path):
        cfg = make_cfg(tmp_path)
        first = run_pipeline(cfg)
        assert [s for s, _ in first.stages] == ALL_STAGES
        assert all(status == "run" for _, status in first.stages)
        second = run_pipeline(cfg)
        assert all(status == "hit" for _, status in second.stages)
        assert second.reports["baseline"] == first.reports["baseline"]
        assert second.reports["stratified"] == first.reports["stratified"]

    def test_run_stages_yields_each_stage_and_stops_with_the_caller(self, tmp_path):
        cfg = make_cfg(tmp_path)
        seen = []
        for name, status, run in run_stages(cfg):
            seen.append((name, status))
            if name == "vocab":
                break
        assert seen == run.result.stages == [(s, "run") for s in ALL_STAGES[:3]]
        assert run.vocabulary.id_to_term  # read back from vocab.tsv
        result = run_pipeline(cfg)
        assert result.stages == [(s, "hit" if s in ALL_STAGES[:3] else "run")
                                 for s in ALL_STAGES]

    def test_lambda_change_reruns_only_downstream(self, tmp_path):
        cfg = make_cfg(tmp_path)
        run_pipeline(cfg)
        changed = make_cfg(tmp_path, strata={"lambdas": [0.1, 0.05, 0.025]})
        result = run_pipeline(changed)
        expect = {s: "hit" for s in ALL_STAGES}
        expect["vectorize_stratified"] = "run"
        expect["evaluate"] = "run"
        assert dict(result.stages) == expect

    def test_lambda_rerun_parses_the_index_once_and_no_catweights(self, tmp_path, monkeypatch):
        calls = []  # index.tsv parses, category table passes, catweights.tsv opens
        real_index, real_tables = pipeline._index_from_tsv, catgraph._component_tables
        real_open = builtins.open
        monkeypatch.setattr(pipeline, "_index_from_tsv", lambda text, voc: (
            calls.append("index"), real_index(text, voc))[1])
        monkeypatch.setattr(catgraph, "_component_tables", lambda *args: (
            calls.append("tables"), real_tables(*args))[1])

        def recording_open(file, mode="r", *args, **kwargs):
            if str(file).endswith("catweights.tsv") and not set(mode) & set("wax+"):
                calls.append("catweights.tsv")
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        run_pipeline(make_cfg(tmp_path))
        # catvecs builds the tables once and hands them to vectorize_stratified
        assert calls == ["tables"]
        lambdas = {"lambdas": [0.1, 0.05, 0.025]}
        calls.clear()
        rerun = run_pipeline(make_cfg(tmp_path, strata=lambdas))
        assert [s for s, status in rerun.stages if status == "run"] == [
            "vectorize_stratified", "evaluate"]
        assert sorted(calls) == ["index", "tables"]
        monkeypatch.undo()
        run_pipeline(make_cfg(tmp_path / "cold", strata=lambdas))
        assert ((tmp_path / "cache" / "stratified.esvs").read_bytes()
                == (tmp_path / "cold" / "cache" / "stratified.esvs").read_bytes())

    def test_eval_seed_change_reruns_only_the_cross_validating_stages(self, tmp_path):
        """Each vector set is cross-validated by one stage: the baseline set
        by vectorize_baseline, the stratified one by evaluate."""
        cfg = make_cfg(tmp_path)
        run_pipeline(cfg)
        result = run_pipeline(make_cfg(tmp_path, eval={"seed": 1}))
        assert [s for s, status in result.stages if status == "run"] == [
            "vectorize_baseline", "evaluate"]

    def test_min_df_change_reruns_vocab_and_downstream(self, tmp_path):
        cfg = make_cfg(tmp_path)
        run_pipeline(cfg)
        result = run_pipeline(make_cfg(tmp_path, vocab={"min_df": 2}))
        statuses = dict(result.stages)
        assert statuses["ingest"] == "hit"
        assert statuses["filter"] == "hit"
        assert statuses["vocab"] == "run"
        assert statuses["index"] == "run"

    def test_artifacts_exist(self, tmp_path):
        import os

        result = run_pipeline(make_cfg(tmp_path))
        expect = {
            "corpus.jsonl", "labels.tsv", "filtered.jsonl", "vocab.tsv",
            "index.tsv", "catweights.tsv", "catvecs.esvs", "pagevecs.esvs",
            "weights.tsv", "arborescence.tsv", "baseline.esvs",
            "stratified.esvs", "report_baseline.tsv", "report_stratified.tsv",
            "summary_baseline.txt", "summary_stratified.txt",
        }
        assert set(result.artifacts) == expect
        for path in result.artifacts.values():
            assert os.path.exists(path)


class TestStagewiseEquality:
    def test_baseline_vectors_match_manual_computation(self, tmp_path):
        result = run_pipeline(make_cfg(tmp_path))
        with open(result.artifacts["filtered.jsonl"], encoding="utf-8") as fh:
            store = corpus_mod.parse_corpus(fh.read())
        analyzer = textproc.Analyzer()
        voc = textproc.build_vocabulary(store, analyzer, 1)
        index = esa.build_index(store, analyzer, voc)
        saved = esa.load_vector_set(result.artifacts["baseline.esvs"])
        assert set(saved) == set(index.page_ids)
        for pid in index.page_ids:
            terms = [
                voc.id_to_term[t]
                for t, f in sorted(index.page_term_freqs[pid].items())
                for _ in range(f)
            ]
            assert saved[pid] == esa.document_vector(index, terms)

    @pytest.mark.parametrize("pages_per_topic", [5, 15])
    def test_cold_run_computes_each_tfidf_once_and_calls_the_kernel_once_per_set(
            self, tmp_path, monkeypatch, pages_per_topic):
        calls = {"tfidf": 0, "_csr_vectors": 0}

        def counting(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)
            return counted

        monkeypatch.setattr(esa, "tfidf", counting("tfidf", esa.tfidf))
        # every kernel call, from concept_vectors or straight from a stage,
        # goes through this one entry
        monkeypatch.setattr(esa, "_csr_vectors", counting("_csr_vectors", esa._csr_vectors))
        synthetic = dict(SYNTH, pages_per_topic=pages_per_topic)
        for name, _status, run in run_stages(make_cfg(tmp_path, corpus={"synthetic": synthetic})):
            if name == "index":
                index = run.index  # as handed over: a read after the run parses it again
        # one tfidf per distinct (raw frequency, df) pair of the index, all
        # in its construction; one kernel call each for the category,
        # baseline (saved as pagevecs.esvs and baseline.esvs) and stratified
        # sets
        df = np.array(index.vocabulary.doc_freq)[index.term_ids]
        pairs = set(zip(index.freqs.tolist(), df.tolist()))
        assert calls["tfidf"] == len(pairs) < len(index.term_ids)
        assert calls["_csr_vectors"] == 3

    def test_runs_build_none_of_the_index_views(self, tmp_path):
        views = {"page_term_freqs"}
        for lambdas in ([0.5, 0.25, 0.125], [0.1, 0.05, 0.025]):  # cold, then λ-only
            for name, _status, run in run_stages(make_cfg(tmp_path, strata={"lambdas": lambdas})):
                if name == "index":
                    index = run.index  # the one every later stage reads
                if name in ("index", "evaluate"):
                    assert not views & set(vars(index)), name
            assert dict(run.result.stages)["vectorize_stratified"] == "run"

    def test_term_counts_hold_each_term_once_in_sorted_order(self, tmp_path):
        for name, _status, run in run_stages(make_cfg(tmp_path)):
            if name == "vocab":
                break
        table = run.term_counts
        assert list(table.terms) == sorted(set(table.terms))
        assert len(table.terms) < len(table.term_ids)  # pages share terms
        # the vocabulary is keyed by the table's one string per term
        strings = {term: term for term in table.terms}
        assert all(strings[term] is term for term in run.vocabulary.term_to_id)

    def test_vocab_and_index_stay_under_a_memory_bound(self, tmp_path):
        # a cold run of a 400-page tree (the benchmark's cold-tree corpus).
        # Under tracemalloc, the vocab and index stages peaked at 3.60-3.73 MB
        # when they built one term Counter per page, and at 2.40 MB from one
        # term-count table (Python 3.11, numpy 2.4).
        tree = dict(seed=1, n_topics=8, depth=3, pages_per_topic=50, vocab_per_topic=40,
                    tokens_per_page=40, crosstalk=0.55, junk_words_per_page=3, junk_repeats=4)
        stages = run_stages(make_cfg(tmp_path, corpus={"synthetic": tree}))
        for name, _status, run in stages:
            if name == "filter":
                break
        tracemalloc.start()
        try:
            for name, _status, run in stages:
                if name == "index":
                    break
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            stages.close()
        assert len(run.index.page_ids) == 400
        assert peak < 3_000_000, peak

    @pytest.mark.parametrize("missing, min_terms", [
        (None, 0), ("index.tsv", 0), ("vocab.tsv", 0), (None, 1),
    ], ids=["None", "index.tsv", "vocab.tsv", "min_distinct_terms=1"])
    def test_each_filtered_page_is_analyzed_once_per_run(self, tmp_path, monkeypatch, missing,
                                                          min_terms):
        """Under a min_distinct_terms above 0, filter counts each raw page's
        terms in the one pass, and hands the kept rows to vocab and index."""
        cfg = make_cfg(tmp_path, filter={"min_distinct_terms": min_terms})
        if missing:
            run_pipeline(cfg)
            (tmp_path / "cache" / missing).unlink()
        calls, analyzed = [], []
        real_pass, real_analyze = textproc._term_counts, textproc.Analyzer.analyze
        monkeypatch.setattr(textproc, "_term_counts", lambda analyzer, texts: real_pass(
            analyzer, (calls.append(text) or text for text in texts)))
        monkeypatch.setattr(textproc.Analyzer, "analyze",
                            lambda self, text: (analyzed.append(text), real_analyze(self, text))[1])
        for _name, _status, run in run_stages(cfg):
            pass
        statuses = dict(run.result.stages)
        if missing == "index.tsv":  # vocab hits, index misses
            assert (statuses["vocab"], statuses["index"]) == ("hit", "run")
        if missing == "vocab.tsv":  # vocab rewrites the same bytes, index hits
            assert (statuses["vocab"], statuses["index"]) == ("run", "hit")
        raw = corpus_mod.gen_synthetic_wiki(**SYNTH)[0] if min_terms else run.store
        assert sorted(calls) == sorted(p.text for p in raw.pages)
        assert analyzed == []  # the one pass is the only analysis

    def test_filter_hands_over_the_kept_rows_of_its_term_counts(self, tmp_path):
        """A min_distinct_terms that drops pages: vocab and index get the
        rows of the kept pages, which give the vocabulary and index of the
        kept texts' own table, and write what a run parsing filtered.jsonl
        back writes."""
        raw, _labels = corpus_mod.gen_synthetic_wiki(**SYNTH)
        distinct = sorted(len(set(textproc.Analyzer().analyze(p.text))) for p in raw.pages)
        cfg = make_cfg(tmp_path, filter={"min_distinct_terms": distinct[len(distinct) // 2]})
        for name, _status, run in run_stages(cfg):
            if name == "filter":
                handed = run.term_counts
        assert 0 < run.store.n_pages < raw.n_pages
        want = textproc._term_counts(run.analyzer, (p.text for p in run.store.pages))
        assert len(handed.terms) > len(want.terms)  # the raw pages' terms, not renumbered
        voc = textproc._vocabulary_from_table(handed)
        assert voc == textproc._vocabulary_from_table(want)
        page_ids = tuple(p.page_id for p in run.store.pages)
        assert esa._index_from_table(handed, page_ids, voc) == esa._index_from_table(
            want, page_ids, voc)
        cache = tmp_path / "cache"
        cold = {name: (cache / name).read_bytes() for name in ("vocab.tsv", "index.tsv")}
        for name in cold:
            (cache / name).unlink()
        rerun = run_pipeline(cfg)  # filter hits; vocab and index analyze filtered.jsonl again
        assert dict(rerun.stages)["filter"] == "hit"
        assert {name: (cache / name).read_bytes() for name in cold} == cold

    def test_term_counts_go_once_index_is_decided(self, tmp_path):
        """A filter that reruns and keeps every page hands its table over,
        vocab and index then hit, and the table is dropped all the same."""
        run_pipeline(make_cfg(tmp_path, filter={"min_distinct_terms": 1}))
        for name, _status, run in run_stages(make_cfg(tmp_path, filter={"min_distinct_terms": 2})):
            if name == "filter":
                assert "term_counts" in vars(run)
        statuses = dict(run.result.stages)
        assert (statuses["filter"], statuses["vocab"], statuses["index"]) == ("run", "hit", "hit")
        assert "term_counts" not in vars(run)

    def test_one_dense_vector_set_is_held_at_a_time(self, tmp_path):
        """The baseline set goes after weights, its last reader, before
        vectorize_stratified builds the stratified set: after no stage of a
        cold run or of a lambda-only rerun are both held."""
        lambdas = {"strata": {"lambdas": [0.1, 0.05, 0.025]}}
        for cfg in (make_cfg(tmp_path), make_cfg(tmp_path, **lambdas)):
            done = []
            for name, status, run in run_stages(cfg):
                done.append(name)
                held = vars(run).keys()
                assert not {"baseline", "stratified"} <= held, name
                assert "baseline" not in held or "weights" not in done, name
                if status == "run" and name in ("vectorize_baseline", "vectorize_stratified"):
                    assert name.split("_")[1] in held, name  # the set it handed over

    def test_reports_match_manual_cross_validation(self, tmp_path):
        cfg = make_cfg(tmp_path)
        result = run_pipeline(cfg)
        vecs = esa.load_vector_set(result.artifacts["baseline.esvs"])
        labels = {}
        with open(result.artifacts["labels.tsv"], encoding="utf-8") as fh:
            for line in fh.read().splitlines():
                pid, label = line.split("\t")
                labels[int(pid)] = label
        docs = tuple((pid, ()) for pid in sorted(vecs))
        labeled = evaluate.LabeledCorpus(documents=docs, labels={p: labels[p] for p in sorted(vecs)})
        manual = evaluate.cross_validate(labeled, vecs, cfg["eval"]["k"], cfg["eval"]["seed"])
        assert result.reports["baseline"] == manual


def _same(a, b) -> bool:
    """Whether two handed-over values are equal: a vector set by its keys
    and vectors, an array (the edges' p, the tree's parents) bit for bit,
    others by ``==``."""
    if isinstance(a, esa._VectorSet):
        return isinstance(b, esa._VectorSet) and (a.keys, a.vectors()) == (b.keys, b.vectors())
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
    return a == b


def _cyclic_cfg(tmp_path):
    """A config over the benchmark's cyclic corpus at its self-test size,
    whose category graph has multi-category strongly connected components."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "bench_corpora.py"
    spec = importlib.util.spec_from_file_location("bench_corpora", path)
    bench_corpora = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_corpora)
    store, labels, _planted = bench_corpora.gen_cyclic_wiki(
        seed=1, n_topics=3, pages_per_topic=6, vocab_per_topic=8, tokens_per_page=12,
        subcats_per_topic=8, cycles=6, crosstalk=0.3)
    (tmp_path / "corpus.jsonl").write_text(corpus_mod.serialize_corpus(store))
    (tmp_path / "labels.tsv").write_text("".join(f"{p}\t{labels[p]}\n" for p in sorted(labels)))
    return merge_config({
        "corpus": {"path": str(tmp_path / "corpus.jsonl"), "labels": str(tmp_path / "labels.tsv")},
        "eval": {"k": 3},
        "cache": {"dir": str(tmp_path / "cache")},
    })


class TestComponentTables:
    @pytest.mark.parametrize("max_nnz", [1000, 2])
    def test_catvecs_builds_one_table_per_strongly_connected_component(
            self, tmp_path, monkeypatch, max_nnz):
        cfg = _cyclic_cfg(tmp_path)
        cfg["catvec"]["max_nnz"] = max_nnz
        calls = []
        real = catgraph._component_tables
        monkeypatch.setattr(catgraph, "_component_tables",
                            lambda index, ls, comps, *args: (calls.append(list(comps)),
                                                             real(index, ls, comps, *args))[1])
        for name, _status, run in run_stages(cfg):
            if name == "catvecs":
                break
        comp_of = run.leaf_sets.comp_of
        assert len(calls) == 1  # one batched pass builds every table
        built = calls[0]
        assert sorted(built) == sorted(set(comp_of.values()))
        assert len(built) < len(comp_of)  # some component holds several categories
        monkeypatch.undo()
        # one record per component in each file, under its smallest category id
        smallest = dict(enumerate(run.leaf_sets.smallest_ids()))
        catvecs = esa.load_vector_set(run.result.artifacts["catvecs.esvs"])
        catweights = _table_from_tsv(
            Path(run.result.artifacts["catweights.tsv"]).read_text(), float)
        assert sorted(catvecs) == sorted(catweights) == sorted(smallest.values())
        assert {smallest[comp]: table for comp, table in table_dicts(run.cat_weights).items()} == (
            catweights)
        assert run.cat_vectors.vectors() == catvecs
        for cid, comp in comp_of.items():  # every member's table and vector
            weights = catgraph.category_term_weights(cid, run.index, run.leaf_sets, max_nnz)
            assert catweights[smallest[comp]] == weights
            assert catvecs[smallest[comp]] == catgraph.category_vector(
                cid, run.index, run.leaf_sets, max_nnz)

    def test_untruncated_support_builds_one_table_per_strongly_connected_component(
            self, tmp_path, monkeypatch):
        cfg = _cyclic_cfg(tmp_path)
        cfg["strata"]["use_truncated_support"] = False
        calls, built = [], []
        real_tables = strata._component_tables

        def recording_tables(index, ls, comps, *args):
            tables = real_tables(index, ls, comps, *args)
            calls.append((list(comps), args))
            built.extend(table_dicts(tables).values())
            return tables

        monkeypatch.setattr(strata, "_component_tables", recording_tables)
        for _name, _status, run in run_stages(cfg):
            pass
        comp_of, n_comps = run.leaf_sets.comp_of, len(run.leaf_sets.comp_pages)
        # built in one pass over every component, uncut
        assert calls == [(list(range(n_comps)), (None,))]
        assert n_comps < len(comp_of)  # some component holds several categories
        monkeypatch.undo()
        for cid, comp in comp_of.items():
            assert built[comp] == catgraph.category_term_weights(cid, run.index, run.leaf_sets,
                                                                 None)

    def test_lambda_rerun_keeps_one_handed_over_table_per_component(self, tmp_path, monkeypatch):
        cfg = _cyclic_cfg(tmp_path)
        run_pipeline(cfg)
        handed = []
        real = strata._table_lookup
        monkeypatch.setattr(strata, "_table_lookup",
                            lambda tables, n_terms: (handed.append(tables), real(tables, n_terms))[1])
        cfg["strata"]["lambdas"] = [0.1, 0.05, 0.025]
        for _name, _status, run in run_stages(cfg):
            pass
        assert [s for s, status in run.result.stages if status == "run"] == [
            "vectorize_stratified", "evaluate"]
        [tables] = handed
        comp_of = run.leaf_sets.comp_of
        # the tables built from the index, one per component, kept as handed over
        assert sorted(tables.keys) == sorted(set(comp_of.values()))
        assert len(tables.keys) < len(comp_of)
        assert tables.keys == run.cat_weights.keys
        for field in ("ptr", "dims", "weights"):
            assert getattr(tables, field) is getattr(run.cat_weights, field)

    def test_no_run_opens_pagevecs_esvs(self, tmp_path, monkeypatch):
        """weights reads the baseline set from baseline.esvs, and no key
        hashes its byte copy."""
        opened = []
        real_open = builtins.open

        def recording_open(file, mode="r", *args, **kwargs):
            if str(file).endswith("pagevecs.esvs") and not set(mode) & set("wax+"):
                opened.append(file)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        cfg = _cyclic_cfg(tmp_path)
        cold, hit = run_pipeline(cfg), run_pipeline(cfg)
        assert {s for _, s in cold.stages} == {"run"} and {s for _, s in hit.stages} == {"hit"}
        assert opened == []
        assert (tmp_path / "cache" / "pagevecs.esvs").read_bytes() == (
            tmp_path / "cache" / "baseline.esvs").read_bytes()

    @pytest.mark.parametrize("keyed_by", ["category", "largest-id"])
    def test_weights_rejects_other_catvecs_keys(self, tmp_path, keyed_by):
        """catvecs.esvs holds one record per component, under its smallest
        category id. One that holds every category (as catvecs wrote before
        the manifest held digest maps), or each component under its largest
        id, fails the weights stage, which reads it, naming the file."""
        cfg = _cyclic_cfg(tmp_path)
        for _name, _status, run in run_stages(cfg):
            pass
        cache, ls = tmp_path / "cache", run.leaf_sets
        vectors = esa.load_vector_set(str(cache / "catvecs.esvs"))
        smallest = ls.smallest_ids()
        assert sorted(vectors) == list(smallest) and len(smallest) < len(ls.comp_of)
        keys = sorted(ls.comp_of) if keyed_by == "category" else [
            max(cid for cid, comp in ls.comp_of.items() if comp == i) for i in range(len(smallest))]
        esa.save_vector_set(str(cache / "catvecs.esvs"),
                            {cid: vectors[smallest[ls.comp_of[cid]]] for cid in keys})
        cfg["strata"]["lambdas"] = [0.1, 0.05, 0.025]
        with pytest.raises(StageError, match="catvecs.esvs") as err:
            run_pipeline(cfg)
        assert err.value.stage == "weights"


class TestFileCorpus:
    def test_fixture_corpus_runs_end_to_end(self, tmp_path, fixture_store):
        result = run_pipeline(fixture_cfg(tmp_path, tmp_path / "cache"))
        assert set(result.reports) == {"baseline", "stratified"}
        assert result.reports["baseline"].total() == len(fixture_store.pages)

    def test_stage_failure_is_wrapped(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not a corpus\n")
        labels = tmp_path / "labels.tsv"
        labels.write_text("0\ta\n")
        cfg = merge_config({
            "corpus": {"path": str(bad), "labels": str(labels)},
            "cache": {"dir": str(tmp_path / "cache")},
        })
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "ingest"


class TestHandOff:
    """A cold run hands each artifact to the stages after it in memory, so
    each handed-over value must equal what its loader would parse back."""

    @pytest.mark.parametrize("source", ["synthetic", "file"])
    def test_cold_run_parses_none_of_its_own_artifacts(self, tmp_path, monkeypatch, source):
        cache = tmp_path / "cache"
        cfg = make_cfg(tmp_path) if source == "synthetic" else fixture_cfg(tmp_path, cache)
        parsed = []
        for owner, name in ((corpus_mod, "parse_corpus"), (esa, "load_vector_set"),
                            (esa, "_read_vector_set"), (catgraph, "_weights_from_tsv"),
                            (pipeline._Cache, "read_text")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, name=name, real=real: (
                parsed.append(name), real(*args))[1])
        result = run_pipeline(cfg)
        assert {status for _, status in result.stages} == {"run"}
        # a file corpus is parsed once, by ingest, from the input file
        assert parsed == ([] if source == "synthetic" else ["parse_corpus"])

    @pytest.mark.parametrize("prefixes, serialized", [([], 1), (["topic1"], 2)])
    def test_filter_that_keeps_the_corpus_writes_its_text(self, tmp_path, monkeypatch, prefixes,
                                                          serialized):
        calls = []
        real = corpus_mod.serialize_corpus
        monkeypatch.setattr(corpus_mod, "serialize_corpus",
                            lambda store: (calls.append(store), real(store))[1])
        for name, _status, _run in run_stages(
                make_cfg(tmp_path, filter={"excluded_title_prefixes": prefixes})):
            if name == "filter":
                break
        assert len(calls) == serialized
        same = ((tmp_path / "cache" / "filtered.jsonl").read_bytes()
                == (tmp_path / "cache" / "corpus.jsonl").read_bytes())
        assert same == (serialized == 1)

    @pytest.mark.parametrize("which", ["synthetic", "fixture", "filtered"])
    def test_handed_over_store_equals_its_parse(self, which, fixture_store):
        store, _labels = corpus_mod.gen_synthetic_wiki(**dict(SYNTH, depth=2))
        if which == "fixture":
            store = fixture_store
        elif which == "filtered":  # drops topic1's pages and their memberships
            unfiltered = store
            store = corpus_mod.filter_pages(
                store, corpus_mod.FilterConfig(excluded_title_prefixes=("topic1",)),
                textproc.Analyzer())
            assert 0 < store.n_pages < unfiltered.n_pages
        assert store.pages
        assert corpus_mod.parse_corpus(corpus_mod.serialize_corpus(store)) == store

    @settings(max_examples=100, deadline=None)
    @given(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1),
           st.text(st.characters(blacklist_categories=("Cs",))))
    def test_any_title_and_text_survive_serialization(self, title, text):
        store = corpus_mod.CorpusStore(
            pages=(corpus_mod.PageRecord(0, title, text, (0,), ()),),
            categories=(corpus_mod.CategoryRecord(0, title, ()),), root_category_id=0)
        assert corpus_mod.parse_corpus(corpus_mod.serialize_corpus(store)) == store

    @pytest.mark.parametrize("line_break", ["\x85", "\u2028", "\u2029"])
    def test_line_breaks_inside_strings_are_escaped(self, line_break):
        store = corpus_mod.CorpusStore(
            pages=(corpus_mod.PageRecord(0, "p", f"a{line_break}b", (0,), ()),),
            categories=(corpus_mod.CategoryRecord(0, "root", ()),), root_category_id=0)
        text = corpus_mod.serialize_corpus(store)
        assert len(text.splitlines()) == 3
        assert corpus_mod.parse_corpus(text) == store

    @pytest.fixture(scope="class")
    def cold_runs(self, tmp_path_factory):
        """A cold run of the synthetic and of the cyclic file corpus: the
        value each stage handed to each artifact's loader, and the run."""
        runs = {}
        for source in ("synthetic", "file"):
            tmp = tmp_path_factory.mktemp(source)
            values = {}
            for _name, status, run in run_stages(
                    make_cfg(tmp) if source == "synthetic" else _cyclic_cfg(tmp)):
                assert status == "run"
                for artifact, loader in pipeline._LOADER.items():
                    if loader in vars(run):
                        values.setdefault(artifact, vars(run)[loader])
            runs[source] = values, run
        return runs

    @pytest.mark.parametrize("artifact", list(pipeline._LOADER))
    @pytest.mark.parametrize("source", ["synthetic", "file"])
    def test_handed_over_value_equals_its_parse(self, cold_runs, source, artifact):
        values, run = cold_runs[source]
        parsed = pipeline._VALUES[pipeline._LOADER[artifact]].load(run)
        assert _same(parsed, values[artifact])

    @pytest.mark.parametrize("source", ["synthetic", "file"])
    def test_each_value_goes_after_its_last_reader(self, tmp_path, source):
        """After each stage of a cold run, the run holds the value of each
        artifact written so far that a later stage declares as an input, or
        that no stage declares (the reports), and no derived value after the
        stage named for it, though each was held before. A dropped loader,
        read again, parses back a value equal to the one handed over."""
        cfg = make_cfg(tmp_path) if source == "synthetic" else _cyclic_cfg(tmp_path)
        loader_of = pipeline._LOADER
        declared = [pipeline._reach(row[1], row[2]) & pipeline._ARTIFACTS.keys()
                    for row in pipeline._STAGES]
        unread = set(loader_of) - set().union(*declared)
        derived_last = {"files": "ingest", "term_counts": "index",
                        "graph": "vectorize_stratified", "leaf_sets": "vectorize_stratified",
                        "cat_weights": "vectorize_stratified",
                        "level_weights": "vectorize_stratified"}
        written, handed, done = set(), {}, []
        for i, (name, _status, run) in enumerate(run_stages(cfg)):
            done.append(name)
            written |= set(pipeline._STAGES[i][3]) & set(loader_of)
            held = set(vars(run))
            assert held & set(loader_of.values()) == {
                loader_of[a] for a in written & (set().union(*declared[i + 1:]) | unread)}, name
            assert not {d for d, last in derived_last.items() if last in done} & held, name
            if name == "vocab":
                assert "term_counts" in held
            if name == "arborify":
                assert {"graph", "leaf_sets", "cat_weights"} <= held
            handed.update((v, vars(run)[v]) for v in held & set(loader_of.values()))
        dropped = set(handed) - set(vars(run))
        assert {"raw", "store", "index", "tree", "baseline", "labels"} <= dropped
        for value in dropped:
            assert _same(getattr(run, value), handed[value]), value

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 5e-324, 2.2e-308])),
                    max_size=20))
    def test_any_edge_weight_survives_weights_tsv(self, ps):
        """p -> weights.tsv -> p, bit for bit, over a graph of one
        membership per p."""
        g = catgraph.CategoryGraph(
            page_ids=frozenset(range(len(ps))), category_ids=frozenset(range(1, len(ps) + 2)),
            membership=frozenset((i, i + 1) for i in range(len(ps))), inclusion=frozenset(),
            root_id=1)
        p = np.array(ps, np.float64)
        loaded = catgraph._weights_from_tsv(catgraph._weights_to_tsv(g, p), g)
        assert loaded.dtype == np.float64 and loaded.tobytes() == p.tobytes()

    def test_table_to_tsv_writes_each_row_in_its_format(self):
        tables = {2: {}, 4: {1: 2 / 3, 3: 0.1}, 9: {1: 0.1 + 0.2}}
        text = pipeline._table_to_tsv((2, 4, 9), [0, 0, 2, 3], np.array([1, 3, 1], np.int64),
                                      np.array([2 / 3, 0.1, 0.1 + 0.2]), ".17g")
        assert text == "".join([
            "2\t-\t0\n",
            f"4\t1\t{2 / 3:.17g}\n", "4\t3\t0.10000000000000001\n",
            "9\t1\t0.30000000000000004\n",
        ])
        assert _table_from_tsv(text, float) == tables
        counts = pipeline._table_to_tsv((0, 3), [0, 2, 2], np.array([5, 7], np.int64),
                                        np.array([1, 12], np.int64), "d")
        assert counts == "0\t5\t1\n0\t7\t12\n3\t-\t0\n"

    def test_index_tsv_reads_back_to_the_page_term_freqs(self, tmp_path):
        for cfg in make_cfg(tmp_path / "synthetic"), fixture_cfg(tmp_path, tmp_path / "fixture"):
            for name, _status, run in run_stages(cfg):
                if name == "index":
                    break
            text = Path(run.result.artifacts["index.tsv"]).read_text()
            assert _table_from_tsv(text, int) == run.index.page_term_freqs
            assert pipeline._index_from_tsv(text, run.vocabulary) == run.index

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.integers(0, 2**40), st.dictionaries(
        st.integers(0, 4), st.integers(1, 10**6), max_size=5), max_size=8))
    @example({})  # no page
    @example({3: {}})  # one page, and no nonzero
    @example({0: {}, 5: {1: 2, 4: 1}, 2**40: {}})  # pages with no terms
    def test_any_index_survives_index_tsv(self, freqs):
        # pages with no terms are written as "page<TAB>-<TAB>0"
        df = [sum(t in row for row in freqs.values()) for t in range(5)]
        voc = textproc.Vocabulary({f"t{t}": t for t in range(5)}, tuple(df))
        index = esa.index_from_freqs(freqs, voc)
        assert index.page_term_freqs == freqs
        text = pipeline._table_to_tsv(index.page_ids, index.row_ptr, index.term_ids,
                                      index.freqs, "d")  # as the index stage writes it
        assert _table_from_tsv(text, int) == freqs
        read = pipeline._index_from_tsv(text, voc)
        assert read == index and read.page_ids == index.page_ids
        assert read.tfidfs.tobytes() == index.tfidfs.tobytes()
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(read.term_columns, index.term_columns))

    @pytest.mark.parametrize("text, error", [
        ("0\t0\n", "shape"),                      # two fields
        ("0\t0\t2\t1\n", "shape"),                # four fields
        ("0\t0\n0\t2\t1\t1\n", "shape"),          # two, then four: as many tabs as two lines
        ("0\t0\t2\n\n", "shape"),                 # a blank line
        ("0\t0\t2", "shape"),                     # an unterminated last line
        ("0\tx\t2\n", "integer"),                 # a term that is not an integer
        ("0\t0\t2.5\n", "integer"),               # nor a frequency
        ("a\t0\t2\n", "integer"),                 # nor a page
        ("0\t\t2\n", "integer"),                  # an empty field
        ("0\t-\t1\n", "integer"),                 # the no-term mark with a frequency
        ("0\t1\t0\n", "no-term"),                 # a frequency of 0 on a term
        ("0\t3\t1\n", "csr"),                     # a term id past the vocabulary
        ("0\t-1\t1\n", "csr"),                    # a negative term id
        ("5\t1\t4\n0\t0\t2\n", "csr"),            # pages out of order
        ("0\t0\t2\n5\t1\t4\n0\t2\t1\n", "csr"),   # one page's lines apart
        ("0\t2\t1\n0\t0\t2\n", "ascend"),         # terms out of order
        ("0\t0\t2\n0\t0\t2\n", "ascend"),         # a duplicate line
    ])
    def test_index_tsv_reader_rejects_other_text(self, text, error):
        # df 1 keeps every tfidf valid, so each text is wrong only as its comment says
        voc = textproc.Vocabulary({"a": 0, "b": 1, "c": 2}, (1, 1, 1))
        good = "0\t0\t2\n0\t2\t1\n3\t-\t0\n5\t1\t4\n"
        assert pipeline._index_from_tsv(good, voc) == esa.index_from_freqs(
            {0: {0: 2, 2: 1}, 3: {}, 5: {1: 4}}, voc)
        message = {"shape": "index.tsv lines must be page<TAB>term<TAB>frequency",
                   "integer": "invalid literal for int",
                   "no-term": "a frequency of 0 needs the term -",
                   "csr": "not a CSR of known term ids over ascending page ids",
                   "ascend": "a page's term ids do not strictly ascend"}[error]
        with pytest.raises(ValueError, match=re.escape(message)):
            pipeline._index_from_tsv(text, voc)

    @pytest.mark.parametrize("line, message", [
        ("a\t0", "not enough values to unpack (expected 3, got 2)"),  # a short row
        ("a\tx\t1", "invalid literal for int() with base 10: 'x'"),  # an id that is no integer
        ("a\t0\t2.5", "invalid literal for int() with base 10: '2.5'"),  # nor is this df
    ], ids=["short-row", "bad-id", "bad-df"])
    def test_vocab_tsv_reader_names_the_line_it_cannot_read(self, line, message):
        assert pipeline._vocab_from_tsv("b\t0\t3\n") == textproc.Vocabulary({"b": 0}, (3,))
        with pytest.raises(ValueError, match="^" + re.escape(
                f"vocab line 2: {message}, got {line!r}") + "$"):
            pipeline._vocab_from_tsv("b\t0\t3\n" + line + "\n")
