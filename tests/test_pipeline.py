import json

import pytest

from wikistrata import catgraph, corpus as corpus_mod, esa, evaluate, pipeline, strata, textproc
from wikistrata.pipeline import (
    ConfigError,
    StageError,
    load_config,
    merge_config,
    run_pipeline,
    run_stages,
)

from conftest import FIXTURE_PATH

SYNTH = {
    "seed": 0,
    "n_topics": 3,
    "pages_per_topic": 15,
    "vocab_per_topic": 20,
    "depth": 1,
}

ALL_STAGES = [
    "ingest", "filter", "vocab", "index", "catvecs", "weights",
    "arborify", "vectorize_baseline", "vectorize_stratified", "evaluate",
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
        parsed = []
        for name in ("_freqs_from_tsv", "_catweights_from_tsv"):
            real = getattr(pipeline, name)
            monkeypatch.setattr(pipeline, name, lambda text, name=name, real=real: (
                parsed.append(name), real(text))[1])
        run_pipeline(make_cfg(tmp_path))
        assert parsed == []  # the stages that wrote them handed them on
        lambdas = {"lambdas": [0.1, 0.05, 0.025]}
        run_pipeline(make_cfg(tmp_path, strata=lambdas))
        assert sorted(parsed) == ["_catweights_from_tsv", "_freqs_from_tsv"]
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
        calls = {"tfidf": 0, "concept_vectors": 0}

        def counting(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)
            return counted

        monkeypatch.setattr(esa, "tfidf", counting("tfidf", esa.tfidf))
        kernel = counting("concept_vectors", esa.concept_vectors)
        for module in (esa, catgraph, strata):
            monkeypatch.setattr(module, "concept_vectors", kernel)
        synthetic = dict(SYNTH, pages_per_topic=pages_per_topic)
        for _name, _status, run in run_stages(make_cfg(tmp_path, corpus={"synthetic": synthetic})):
            pass
        # one tfidf per index nonzero, all in index_from_freqs; one kernel
        # call each for the category, page, baseline and stratified sets
        assert calls["tfidf"] == sum(map(len, run.index.page_term_freqs.values()))
        assert calls["concept_vectors"] == 4

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


class TestFileCorpus:
    def test_fixture_corpus_runs_end_to_end(self, tmp_path, fixture_store):
        labels_path = tmp_path / "labels.tsv"
        # label fixture pages by their first category for a 2-class split
        cls_of = {1: "music", 2: "science", 3: "science", 4: "music"}
        lines = []
        for p in fixture_store.pages:
            lines.append(f"{p.page_id}\t{cls_of[p.category_ids[0]]}\n")
        labels_path.write_text("".join(lines))
        cfg = merge_config({
            "corpus": {"path": str(FIXTURE_PATH), "labels": str(labels_path)},
            "eval": {"k": 2},
            "cache": {"dir": str(tmp_path / "cache")},
        })
        result = run_pipeline(cfg)
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
