import builtins
import json
import os

import pytest

from wikistrata import catgraph, esa
from wikistrata.cli import EXIT_OK, EXIT_STAGE, EXIT_VALIDATION, main
from wikistrata.corpus import FilterConfig, filter_pages, gen_synthetic_wiki
from wikistrata.evaluate import EvalReport
from wikistrata.textproc import Analyzer

from conftest import FIXTURE_PATH

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


def write_config(directory, **sections):
    path = directory / "config.json"
    path.write_text(json.dumps({
        "corpus": {"synthetic": SYNTH},
        "cache": {"dir": str(directory / "cache")},
        **sections,
    }))
    return str(path)


@pytest.fixture()
def config_path(tmp_path):
    return write_config(tmp_path)


def write_file_config(directory, store, labels=True):
    """A config for the fixture corpus file, with a labels TSV unless
    ``labels`` is false."""
    corpus = {"path": str(FIXTURE_PATH)}
    if labels:
        cls_of = {1: "music", 2: "science", 3: "science", 4: "music"}
        path = directory / "labels.tsv"
        path.write_text("".join(
            f"{p.page_id}\t{cls_of[p.category_ids[0]]}\n" for p in store.pages
        ))
        corpus["labels"] = str(path)
    return write_config(directory, corpus=corpus, eval={"k": 2})


def snapshot(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def diagnose_report(store, what, seed=0):
    """What ``wikistrata diagnose`` prints for the graph of ``store``."""
    graph = catgraph.build_graph(store)
    if what == "cycles":
        return catgraph.cycle_census(graph, "exact").to_tsv()
    if what == "degrees":
        return catgraph.degree_stats(graph).to_tsv()
    report = catgraph.cycle_census(graph, "walk", seed=seed)
    return (f"# walks\t{report.n_walks}\n# cycle_walks\t{report.n_cycle_walks}\n"
            f"# root_walks\t{report.n_root_walks}\n# dead_end_walks\t{report.n_dead_end_walks}\n"
            + report.to_tsv())


def test_run_prints_stage_lines_and_summaries(config_path, capsys):
    assert main(["run", "--config", config_path]) == EXIT_OK
    out = capsys.readouterr().out
    for stage in ("ingest", "arborify", "evaluate"):
        assert f"[run] {stage}" in out
    assert "== baseline ==" in out
    assert "== stratified ==" in out
    assert "accuracy:" in out


def test_run_second_invocation_hits_cache(config_path, capsys):
    main(["run", "--config", config_path])
    capsys.readouterr()
    assert main(["run", "--config", config_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[hit] evaluate" in out
    assert "[run]" not in out


def test_build_index_prints_artifact_path(config_path, capsys):
    import os

    assert main(["build-index", "--config", config_path]) == EXIT_OK
    path = capsys.readouterr().out.strip()
    assert path.endswith("index.tsv")
    assert os.path.exists(path)


def test_relate_known_terms(config_path, capsys):
    assert main(["relate", "--config", config_path, "t0w0", "t0w1"]) == EXIT_OK
    value = float(capsys.readouterr().out.strip())
    assert 0.0 <= value <= 1.0


def test_relate_reads_the_corpus_file_once(tmp_path, capsys, monkeypatch, fixture_store,
                                           fixture_index):
    path = write_file_config(tmp_path, fixture_store)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(["relate", "--config", path, "melody", "fugue"]) == EXIT_OK
    monkeypatch.undo()
    assert opened.count(str(FIXTURE_PATH)) == 1
    ids = fixture_index.vocabulary.term_to_id
    expected = esa.relatedness(fixture_index, ids["melody"], ids["fugue"])
    assert capsys.readouterr().out == f"{expected:.6f}\n"


def test_relate_unknown_term_is_validation_error(config_path, capsys):
    assert main(["relate", "--config", config_path, "t0w0", "nosuchterm"]) == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


def test_build_catvecs(config_path, capsys):
    assert main(["build-catvecs", "--config", config_path]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].endswith("catvecs.esvs")
    assert lines[1].endswith("weights.tsv")


@pytest.mark.parametrize("what", ["cycles", "degrees", "walk"])
def test_diagnose_modes(config_path, capsys, what):
    """Under the default filter, the reports are those of the raw corpus."""
    assert main(["diagnose", "--config", config_path, what]) == EXIT_OK
    store, _labels = gen_synthetic_wiki(**SYNTH)
    assert capsys.readouterr().out == diagnose_report(store, what)


@pytest.mark.parametrize("what", ["cycles", "degrees", "walk"])
def test_diagnose_reads_the_filtered_corpus(tmp_path, capsys, what):
    path = write_config(tmp_path, filter={"excluded_title_prefixes": ["topic1"]})
    assert main(["diagnose", "--config", path, what]) == EXIT_OK
    out = capsys.readouterr().out
    store, _labels = gen_synthetic_wiki(**SYNTH)
    filtered = filter_pages(store, FilterConfig(0, 0, 0, ("topic1",)), Analyzer())
    assert out == diagnose_report(filtered, what)
    # exact cycles use only category inclusion edges, which filtering keeps
    assert (out == diagnose_report(store, what)) == (what == "cycles")


def test_diagnose_file_corpus_needs_labels(tmp_path, capsys, fixture_store):
    path = write_file_config(tmp_path, fixture_store, labels=False)
    assert main(["diagnose", "--config", path, "cycles"]) == EXIT_VALIDATION
    assert "corpus.labels" in capsys.readouterr().err


# Each command that stops early: its arguments, the last stage it runs and
# the artifacts whose paths it prints.
STOPPING_COMMANDS = [
    (["build-index"], "index", ["index.tsv"]),
    (["relate", "t0w0", "t0w1"], "index", []),
    (["build-catvecs"], "weights", ["catvecs.esvs", "weights.tsv"]),
    (["diagnose", "walk"], "filter", []),
    (["arborify"], "arborify", ["arborescence.tsv"]),
    (["vectorize"], "vectorize_stratified", ["stratified.esvs"]),
]


@pytest.fixture(scope="module")
def cold_run_cache(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cold")
    assert main(["run", "--config", write_config(directory)]) == EXIT_OK
    return snapshot(directory / "cache")


@pytest.mark.parametrize("argv, last, printed", STOPPING_COMMANDS,
                         ids=[argv[0] for argv, *_ in STOPPING_COMMANDS])
def test_command_stops_after_its_last_stage(tmp_path, capsys, cold_run_cache, argv, last,
                                            printed):
    """A fresh cache holds exactly the stages up to the command's last one;
    a following run hits those, runs the rest and ends with the bytes of
    one cold run."""
    path = write_config(tmp_path)
    cache = tmp_path / "cache"
    assert main([argv[0], "--config", path, *argv[1:]]) == EXIT_OK
    out = capsys.readouterr().out
    if printed:
        assert out.splitlines() == [str(cache / name) for name in printed]
    done = ALL_STAGES[:ALL_STAGES.index(last) + 1]
    assert sorted(json.loads((cache / "manifest.json").read_text())) == sorted(done)

    assert main(["run", "--config", path]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()[:len(ALL_STAGES)]
    assert lines == [f"[{'hit' if s in done else 'run'}] {s}" for s in ALL_STAGES]
    assert snapshot(cache) == cold_run_cache


def test_arborify_and_root_override(config_path, capsys):
    assert main(["arborify", "--config", config_path]) == EXIT_OK
    path = capsys.readouterr().out.strip()
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert text.startswith("node\tparent\tcost\n")
    assert "\t-\t0\n" in text  # the root row has no parent and zero cost


def test_vectorize_with_preset(config_path, capsys):
    assert main(["vectorize", "--config", config_path, "--strata", "tenth"]) == EXIT_OK
    assert capsys.readouterr().out.strip().endswith("stratified.esvs")


def test_vectorize_with_explicit_lambdas(config_path, capsys):
    assert main(["vectorize", "--config", config_path,
                 "--strata", "0.4,0.2,0.1"]) == EXIT_OK
    assert capsys.readouterr().out.strip().endswith("stratified.esvs")


def test_vectorize_rejects_increasing_lambdas(config_path, capsys):
    code = main(["vectorize", "--config", config_path, "--strata", "0.1,0.5,0.2"])
    assert code == EXIT_VALIDATION
    assert "decreasing" in capsys.readouterr().err


@pytest.mark.parametrize("section, values, cause", [
    ("catvec", {"max_nnz": -1}, "max_nnz"),
    ("catvec", {"max_nnz": 0}, "max_nnz"),
    ("catvec", {"max_nnz": 2.5}, "max_nnz"),
    ("strata", {"lambdas": [0.5, -0.25, 0.125]}, "non-negative"),
    ("strata", {"lambdas": [0.1, 0.5, 0.2]}, "decreasing"),
    ("filter", {"min_distinct_terms": -1}, "filter.min_distinct_terms"),
    ("filter", {"min_in_links": -1}, "filter.min_in_links"),
    ("filter", {"min_out_links": -1}, "filter.min_out_links"),
    ("eval", {"k": 1}, "eval.k"),
    ("strata", {"use_truncated_support": "false"}, "use_truncated_support"),
    ("filter", {"excluded_title_prefixes": "group"}, "excluded_title_prefixes"),
    ("filter", {"excluded_title_prefixes": ["group", 1]}, "excluded_title_prefixes"),
    ("vocab", {"min_df": "2"}, "vocab.min_df"),
    ("vocab", {"min_df": [2]}, "vocab.min_df"),
    ("arbor", {"root": "0"}, "arbor.root"),
    ("arbor", {"root": {}}, "arbor.root"),
    ("eval", {"seed": [1]}, "eval.seed"),
    ("eval", {"seed": {"a": 1}}, "eval.seed"),
    ("analyzer", {"stopwords": True}, "analyzer.stopwords"),
    ("analyzer", {"stopwords": 99}, "analyzer.stopwords"),
    ("corpus", {"path": True, "labels": str(FIXTURE_PATH)}, "corpus.path"),
    ("corpus", {"path": str(FIXTURE_PATH), "labels": 1}, "corpus.labels"),
    ("vocab", {"min_df": None}, "vocab.min_df"),
    ("analyzer", {"lowercase": "no"}, "analyzer.lowercase"),
    ("strata", {"lambdas": [float("nan")]}, "finite"),
    ("strata", {"lambdas": [float("inf")]}, "finite"),
    ("cache", {"dir": 5}, "cache.dir"),
    ("cache", {"dir": None}, "cache.dir"),
    ("arbor", {"root": False}, "arbor.root"),
    ("arbor", {"root": True}, "arbor.root"),
    ("vocab", {"min_df": True}, "vocab.min_df"),
    ("corpus", {"synthetic": 5}, "corpus.synthetic"),
    ("corpus", {"synthetic": dict(SYNTH, colour=1)}, "corpus.synthetic"),
    ("strata", {"lambdas": ["0.5", "0.25"]}, "strata.lambdas"),
    ("strata", {"lambdas": [True, False]}, "strata.lambdas"),
    ("filter", {"min_distinct_terms": True}, "filter.min_distinct_terms"),
    ("filter", {"min_in_links": True}, "filter.min_in_links"),
    ("filter", {"min_out_links": False}, "filter.min_out_links"),
    ("filter", {"min_in_links": 1.5}, "filter.min_in_links"),
    ("eval", {"seed": None}, "eval.seed"),
    ("eval", {"seed": True}, "eval.seed"),
    ("eval", {"seed": float("nan")}, "eval.seed"),
    ("arbor", {"root": 1.5}, "arbor.root"),
    ("vocab", {"min_df": float("nan")}, "vocab.min_df"),
    ("vocab", {"min_df": float("inf")}, "vocab.min_df"),
    ("vocab", {"min_df": -float("inf")}, "vocab.min_df"),
], ids=["max_nnz=-1", "max_nnz=0", "max_nnz=2.5", "negative-lambda", "increasing-lambdas",
        "min_distinct_terms=-1", "min_in_links=-1", "min_out_links=-1", "k=1",
        "use_truncated_support=str", "prefixes=str", "prefixes=non-str", "min_df=str",
        "min_df=array", "root=str", "root=object", "seed=array", "seed=object",
        "stopwords=true", "stopwords=int", "path=true", "labels=int", "min_df=null",
        "lowercase=str", "lambda=nan", "lambda=inf", "cache=int", "cache=null", "root=false",
        "root=true", "min_df=true", "synthetic=int", "synthetic=unknown-key", "lambdas=str",
        "lambdas=bool", "min_distinct_terms=true", "min_in_links=true", "min_out_links=false",
        "min_in_links=1.5", "seed=null", "seed=true", "seed=nan", "root=1.5", "min_df=nan",
        "min_df=inf", "min_df=-inf"])
def test_bad_config_value_is_rejected_before_any_stage(tmp_path, capsys, section, values, cause):
    path = tmp_path / "cfg.json"
    user = {"corpus": {"synthetic": SYNTH}, "cache": {"dir": str(tmp_path / "cache")}}
    user[section] = values
    path.write_text(json.dumps(user))
    assert main(["run", "--config", str(path)]) == EXIT_VALIDATION
    assert cause in capsys.readouterr().err
    assert not (tmp_path / "cache" / "manifest.json").exists()


def test_min_df_that_keeps_no_term_fails_vocab(tmp_path, capsys):
    """45 pages: no term has a df of 46, so the vocabulary would be empty."""
    path = write_config(tmp_path, vocab={"min_df": 46})
    assert main(["run", "--config", path]) == EXIT_STAGE
    assert "stage 'vocab' failed: vocab.min_df 46 keeps no term" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "cache" / "manifest.json").read_text())
    assert sorted(manifest) == ["filter", "ingest"]


def test_unknown_root_fails_arborify_naming_it(tmp_path, capsys):
    path = write_config(tmp_path, arbor={"root": 99})
    assert main(["run", "--config", path]) == EXIT_STAGE
    err = capsys.readouterr().err
    assert "stage 'arborify' failed: root 99 is not a category of the graph\n" in err
    assert "unreachable" not in err


def test_run_excluding_a_topic_drops_its_pages(tmp_path, capsys):
    """Every topic1 page is in topic1 only, so excluding it leaves them in
    no category, and the filter drops them."""
    path = write_config(tmp_path, filter={"excluded_title_prefixes": ["topic1"]})
    assert main(["run", "--config", path]) == EXIT_OK
    _store, labels = gen_synthetic_wiki(**SYNTH)
    topic1 = {pid for pid, label in labels.items() if label == "topic1"}
    baseline = esa.load_vector_set(str(tmp_path / "cache" / "baseline.esvs"))
    assert topic1 and not topic1 & set(baseline)
    assert set(baseline) == set(labels) - topic1
    for mode in ("baseline", "stratified"):
        report = EvalReport.from_tsv((tmp_path / "cache" / f"report_{mode}.tsv").read_text())
        assert report.classes == ("topic0", "topic2")


def test_evaluate_modes(config_path, capsys):
    assert main(["evaluate", "--config", config_path, "--mode", "baseline"]) == EXIT_OK
    assert "accuracy:" in capsys.readouterr().out
    assert main(["evaluate", "--config", config_path, "--mode", "stratified"]) == EXIT_OK
    assert "accuracy:" in capsys.readouterr().out


def test_missing_config_file_is_validation_error(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.json")])
    assert code == EXIT_VALIDATION


def test_config_that_is_not_an_object_is_validation_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]")
    assert main(["run", "--config", str(path)]) == EXIT_VALIDATION
    assert "must be an object" in capsys.readouterr().err


def test_bad_config_json_is_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["run", "--config", str(path)]) == EXIT_VALIDATION


def test_unknown_config_key_is_validation_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "corpus": {"synthetic": SYNTH},
        "vocab": {"mindf": 2},
        "cache": {"dir": str(tmp_path / "cache")},
    }))
    assert main(["run", "--config", str(path)]) == EXIT_VALIDATION


def test_broken_corpus_is_stage_failure(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not a corpus\n")
    labels = tmp_path / "labels.tsv"
    labels.write_text("0\ta\n")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "corpus": {"path": str(bad), "labels": str(labels)},
        "cache": {"dir": str(tmp_path / "cache")},
    }))
    assert main(["run", "--config", str(path)]) == EXIT_STAGE
    # diagnose goes through the same ingest stage
    capsys.readouterr()
    assert main(["diagnose", "--config", str(path), "cycles"]) == EXIT_STAGE
    assert "stage 'ingest' failed" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["2 science", "two\tscience", "2\tscience\tphysics"],
                         ids=["no-tab", "non-integer-id", "two-tabs"])
def test_malformed_labels_line_fails_ingest(tmp_path, capsys, fixture_store, bad):
    path = write_file_config(tmp_path, fixture_store)
    labels = tmp_path / "labels.tsv"
    lines = labels.read_text().splitlines(keepends=True)
    lines[2] = bad + "\n"
    labels.write_text("".join(lines))
    assert main(["run", "--config", path]) == EXIT_STAGE
    assert "stage 'ingest' failed: labels line 3:" in capsys.readouterr().err
    manifest = tmp_path / "cache" / "manifest.json"
    assert (json.loads(manifest.read_text()) if manifest.exists() else {}) == {}


def test_kept_page_without_label_fails_evaluate_naming_it(tmp_path, capsys, fixture_store):
    path = write_file_config(tmp_path, fixture_store)
    labels = tmp_path / "labels.tsv"
    labels.write_text("".join(line for line in labels.read_text().splitlines(keepends=True)
                              if not line.startswith("5\t")))
    assert main(["run", "--config", path]) == EXIT_STAGE
    assert "stage 'evaluate' failed: page 5 has no label" in capsys.readouterr().err


def test_file_corpus_run(tmp_path, capsys, fixture_store):
    path = write_file_config(tmp_path, fixture_store)
    assert main(["run", "--config", path]) == EXIT_OK
    assert "accuracy:" in capsys.readouterr().out


def test_internal_error_is_exit_3_not_validation(config_path, capsys, monkeypatch):
    from wikistrata import pipeline

    def broken(cfg):
        raise KeyError("not a user error")

    monkeypatch.setattr(pipeline, "run_pipeline", broken)
    assert main(["run", "--config", config_path]) == EXIT_STAGE
    assert "internal error:" in capsys.readouterr().err


def test_non_numeric_lambdas_are_validation_error(config_path, capsys):
    code = main(["vectorize", "--config", config_path, "--strata", "0.4,x,0.1"])
    assert code == EXIT_VALIDATION
    assert "--strata" in capsys.readouterr().err
