import builtins
import importlib.util
import json
import re
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

from conftest import FIXTURE_PATH, fixture_cfg

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

    def test_defaults_filled_in(self):
        cfg = merge_config({"corpus": {"synthetic": SYNTH}})
        assert cfg["vocab"]["min_df"] == 1
        assert cfg["strata"]["lambdas"] == [0.5, 0.25, 0.125]

    def test_kind_table_has_exactly_the_default_keys_and_takes_each_default(self):
        def keys(table):
            return {(section, key) for section, values in table.items() for key in values}
        assert keys(pipeline._CONFIG_KINDS) == keys(pipeline.DEFAULT_CONFIG)
        pipeline._check_config(pipeline.DEFAULT_CONFIG)

    @pytest.mark.parametrize("user", [[], None, "corpus"])
    def test_config_that_is_not_an_object_rejected(self, user):
        with pytest.raises(ConfigError, match="object"):
            merge_config(user)

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

    def test_cold_run_hands_index_and_catweights_on_and_a_lambda_rerun_parses_them(
            self, tmp_path, monkeypatch):
        parsed = []  # index.tsv by its own reader, catweights.tsv as a table of floats
        real_table, real_index = pipeline._table_from_tsv, pipeline._index_from_tsv
        monkeypatch.setattr(pipeline, "_table_from_tsv", lambda text, value: (
            parsed.append(("table", value)), real_table(text, value))[1])
        monkeypatch.setattr(pipeline, "_index_from_tsv", lambda text, voc: (
            parsed.append(("index", None)), real_index(text, voc))[1])
        run_pipeline(make_cfg(tmp_path))
        assert parsed == []  # the stages that wrote them handed them on
        lambdas = {"lambdas": [0.1, 0.05, 0.025]}
        run_pipeline(make_cfg(tmp_path, strata=lambdas))
        assert sorted(parsed, key=repr) == [("index", None), ("table", float)]
        run_pipeline(make_cfg(tmp_path / "cold", strata=lambdas))
        assert len(parsed) == 2
        assert ((tmp_path / "cache" / "stratified.esvs").read_bytes()
                == (tmp_path / "cold" / "cache" / "stratified.esvs").read_bytes())

    def test_eval_seed_change_reruns_only_evaluate(self, tmp_path):
        cfg = make_cfg(tmp_path)
        run_pipeline(cfg)
        result = run_pipeline(make_cfg(tmp_path, eval={"seed": 1}))
        statuses = dict(result.stages)
        assert statuses["evaluate"] == "run"
        assert all(v == "hit" for s, v in statuses.items() if s != "evaluate")

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
        for _name, _status, run in run_stages(make_cfg(tmp_path, corpus={"synthetic": synthetic})):
            pass
        # one tfidf per distinct (raw frequency, df) pair of the index, all
        # in its construction; one kernel call each for the category,
        # baseline (saved as pagevecs.esvs and baseline.esvs) and stratified
        # sets
        index = run.index
        df = np.array(index.vocabulary.doc_freq)[index.term_ids]
        pairs = set(zip(index.freqs.tolist(), df.tolist()))
        assert calls["tfidf"] == len(pairs) < len(index.term_ids)
        assert calls["_csr_vectors"] == 3

    def test_runs_build_none_of_the_index_views(self, tmp_path):
        views = {"page_term_freqs"}
        for lambdas in ([0.5, 0.25, 0.125], [0.1, 0.05, 0.025]):  # cold, then λ-only
            for name, _status, run in run_stages(make_cfg(tmp_path, strata={"lambdas": lambdas})):
                if name in ("index", "evaluate"):
                    assert not views & set(vars(run.index)), name
            assert dict(run.result.stages)["vectorize_stratified"] == "run"

    def test_page_counts_share_one_string_per_term(self, tmp_path):
        for name, _status, run in run_stages(make_cfg(tmp_path)):
            if name == "vocab":
                break
        first = {}
        for counts in run.page_counts.values():
            for term in counts:
                assert first.setdefault(term, term) is term
        assert len(first) < sum(map(len, run.page_counts.values()))

    @pytest.mark.parametrize("missing", [None, "index.tsv", "vocab.tsv"])
    def test_each_filtered_page_is_analyzed_once_per_run(self, tmp_path, monkeypatch, missing):
        cfg = make_cfg(tmp_path)
        if missing:
            run_pipeline(cfg)
            (tmp_path / "cache" / missing).unlink()
        calls = []
        real = textproc.Analyzer.analyze
        monkeypatch.setattr(textproc.Analyzer, "analyze",
                            lambda self, text: (calls.append(text), real(self, text))[1])
        for _name, _status, run in run_stages(cfg):
            pass
        statuses = dict(run.result.stages)
        if missing == "index.tsv":  # vocab hits, index misses
            assert (statuses["vocab"], statuses["index"]) == ("hit", "run")
        if missing == "vocab.tsv":  # vocab rewrites the same bytes, index hits
            assert (statuses["vocab"], statuses["index"]) == ("run", "hit")
        assert sorted(calls) == sorted(p.text for p in run.store.pages)

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
        smallest = {}
        for cid in sorted(comp_of, reverse=True):
            smallest[comp_of[cid]] = cid
        catvecs = esa.load_vector_set(run.result.artifacts["catvecs.esvs"])
        catweights = pipeline._table_from_tsv(
            Path(run.result.artifacts["catweights.tsv"]).read_text(), float)
        assert sorted(catvecs) == sorted(catweights) == sorted(smallest.values())
        assert run.cat_weights == catweights and run.cat_vectors == catvecs
        for cid, comp in comp_of.items():  # every member's table and vector
            weights = catgraph.category_term_weights(cid, run.index, run.leaf_sets, max_nnz)
            assert catweights[smallest[comp]] == weights
            assert catvecs[smallest[comp]] == catgraph.category_vector(
                cid, run.index, run.leaf_sets, max_nnz)

    def test_untruncated_support_builds_one_table_per_strongly_connected_component(
            self, tmp_path, monkeypatch):
        cfg = _cyclic_cfg(tmp_path)
        cfg["strata"]["use_truncated_support"] = False
        asked, calls = set(), []
        real_table, real_tables = strata.StrataVectorizer._table, strata._component_tables
        monkeypatch.setattr(strata.StrataVectorizer, "_table",
                            lambda self, cid: (asked.add(cid), real_table(self, cid))[1])
        monkeypatch.setattr(strata, "_component_tables",
                            lambda index, ls, comps, *args: (
                                calls.append(list(comps)), real_tables(index, ls, comps, *args))[1])
        for name, _status, run in run_stages(cfg):
            if name == "arborify":
                tree = run.tree
        comp_of = run.leaf_sets.comp_of
        assert len(calls) == 1  # built in one pass, before the first row
        built = calls[0]
        assert sorted(built) == sorted({comp_of[c] for c in asked})
        assert len(built) < len(asked)  # some component is reached through several categories
        monkeypatch.undo()
        vectorizer = strata.StrataVectorizer(run.index, run.leaf_sets, tree, run.strata_cfg)
        for cid in asked:
            assert vectorizer._table(cid) == catgraph.category_term_weights(
                cid, run.index, run.leaf_sets, None)

    def test_lambda_rerun_keeps_one_handed_over_table_per_component(self, tmp_path, monkeypatch):
        cfg = _cyclic_cfg(tmp_path)
        run_pipeline(cfg)
        made = []

        class Recording(strata.StrataVectorizer):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(strata, "StrataVectorizer", Recording)
        cfg["strata"]["lambdas"] = [0.1, 0.05, 0.025]
        for _name, _status, run in run_stages(cfg):
            pass
        assert [s for s, status in run.result.stages if status == "run"] == [
            "vectorize_stratified", "evaluate"]
        [vectorizer] = made
        comp_of = run.leaf_sets.comp_of
        # the tables parsed from catweights.tsv, one per component
        assert sorted(vectorizer._tables) == sorted(set(comp_of.values()))
        assert len(vectorizer._tables) < len(comp_of)
        assert len(run.cat_weights) == len(vectorizer._tables)
        for cid, table in run.cat_weights.items():
            assert vectorizer._tables[comp_of[cid]] is table

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

    def test_a_cache_with_a_record_per_category_reruns_to_a_cold_runs_bytes(self, tmp_path):
        """A cache written before catvecs stored one record per component
        holds every category in catweights.tsv and catvecs.esvs, each with
        its component's table and vector. Reruns of weights and
        vectorize_stratified that read them write a cold run's bytes."""
        cfg = _cyclic_cfg(tmp_path)
        for _name, _status, run in run_stages(cfg):
            pass
        cache, comp_of = tmp_path / "cache", run.leaf_sets.comp_of
        tables = pipeline._table_from_tsv((cache / "catweights.tsv").read_text(), float)
        vectors = esa.load_vector_set(str(cache / "catvecs.esvs"))
        of = {comp_of[cid]: cid for cid in tables}  # each component's record
        every = sorted(comp_of)
        assert len(tables) < len(every)
        (cache / "catweights.tsv").write_text("".join(
            "".join(f"{cid}\t{tid}\t{w:.17g}\n" for tid, w in tables[of[comp_of[cid]]].items())
            or f"{cid}\t-\t0\n" for cid in every))
        esa.save_vector_set(str(cache / "catvecs.esvs"),
                            {cid: vectors[of[comp_of[cid]]] for cid in every})
        cfg["strata"]["lambdas"] = [0.1, 0.05, 0.025]
        warm = run_pipeline(cfg)
        (tmp_path / "cold").mkdir()
        cold_cfg = _cyclic_cfg(tmp_path / "cold")
        cold_cfg["strata"]["lambdas"] = cfg["strata"]["lambdas"]
        cold = run_pipeline(cold_cfg)
        # the category files' bytes enter the keys of the stages that read them
        assert [s for s, status in warm.stages if status == "run"] == [
            "weights", "vectorize_stratified", "evaluate"]
        assert dict(warm.stages)["arborify"] == "hit"
        for name in ("weights.tsv", "arborescence.tsv", "stratified.esvs"):
            assert (cache / name).read_bytes() == (tmp_path / "cold" / "cache" / name).read_bytes()
        assert warm.reports == cold.reports


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
                            (pipeline, "_parse_weights_tsv"), (pipeline._Cache, "read_text")):
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

    def test_handed_over_edges_vocabulary_and_tree_equal_their_parse(self, tmp_path):
        for name, _status, run in run_stages(_cyclic_cfg(tmp_path)):
            if name == "weights":
                edges = run.edges  # arborify drops it
            if name == "arborify":
                break
        voc, tree = run.vocabulary, run.tree
        assert pipeline._parse_weights_tsv(catgraph.weighted_edges_to_tsv(edges)) == edges
        assert pipeline._vocab_from_tsv(pipeline._vocab_to_tsv(voc), voc.min_df) == voc
        assert arbor.parse_arborescence_tsv(arbor.arborescence_to_tsv(tree)) == tree

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), max_size=20))
    def test_any_edge_weight_survives_weights_tsv(self, ps):
        edges = [catgraph.WeightedEdge(catgraph.Node.page(i), catgraph.Node.category(i + 1),
                                       "membership", p, 1.0 - p) for i, p in enumerate(ps)]
        assert pipeline._parse_weights_tsv(catgraph.weighted_edges_to_tsv(edges)) == edges

    def test_table_to_tsv_writes_each_row_in_its_format(self):
        tables = {2: {}, 4: {1: 2 / 3, 3: 0.1}, 9: {1: 0.1 + 0.2}}
        text = pipeline._table_to_tsv(((c, t.keys(), t.values()) for c, t in tables.items()),
                                      ".17g")
        assert text == "".join([
            "2\t-\t0\n",
            f"4\t1\t{2 / 3:.17g}\n", "4\t3\t0.10000000000000001\n",
            "9\t1\t0.30000000000000004\n",
        ])
        assert pipeline._table_from_tsv(text, float) == tables
        counts = pipeline._table_to_tsv([(0, [5, 7], [1, 12]), (3, [], [])], "d")
        assert counts == "0\t5\t1\n0\t7\t12\n3\t-\t0\n"

    def test_index_tsv_reads_back_to_the_page_term_freqs(self, tmp_path):
        for cfg in make_cfg(tmp_path / "synthetic"), fixture_cfg(tmp_path, tmp_path / "fixture"):
            for name, _status, run in run_stages(cfg):
                if name == "index":
                    break
            text = Path(run.result.artifacts["index.tsv"]).read_text()
            assert pipeline._table_from_tsv(text, int) == run.index.page_term_freqs
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
        voc = textproc.Vocabulary({f"t{t}": t for t in range(5)}, tuple(df), min_df=0)
        index = esa.index_from_freqs(freqs, voc)
        assert index.page_term_freqs == freqs
        t, f = index.term_ids.tolist(), index.freqs.tolist()  # the rows the index stage writes
        rows = ((pid, t[s], f[s]) for pid, s in index._slices.items())
        text = pipeline._table_to_tsv(rows, "d")
        assert pipeline._table_from_tsv(text, int) == freqs
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
        voc = textproc.Vocabulary({"a": 0, "b": 1, "c": 2}, (1, 1, 1), min_df=1)
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
