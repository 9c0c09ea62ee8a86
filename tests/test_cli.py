import json

import pytest

from wikistrata.cli import EXIT_OK, EXIT_STAGE, EXIT_VALIDATION, main

from conftest import FIXTURE_PATH

SYNTH = {
    "seed": 0,
    "n_topics": 3,
    "pages_per_topic": 15,
    "vocab_per_topic": 20,
    "depth": 1,
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "corpus": {"synthetic": SYNTH},
        "cache": {"dir": str(tmp_path / "cache")},
    }))
    return str(path)


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
    assert main(["diagnose", "--config", config_path, what]) == EXIT_OK
    assert capsys.readouterr().out


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
    ("filter", {"min_distinct_terms": -1}, "thresholds"),
    ("filter", {"min_in_links": -1}, "thresholds"),
    ("filter", {"min_out_links": -1}, "thresholds"),
    ("eval", {"k": 1}, "eval.k"),
], ids=["max_nnz=-1", "max_nnz=0", "max_nnz=2.5", "negative-lambda", "increasing-lambdas",
        "min_distinct_terms=-1", "min_in_links=-1", "min_out_links=-1", "k=1"])
def test_bad_config_value_is_rejected_before_any_stage(tmp_path, capsys, section, values, cause):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "corpus": {"synthetic": SYNTH},
        section: values,
        "cache": {"dir": str(tmp_path / "cache")},
    }))
    assert main(["run", "--config", str(path)]) == EXIT_VALIDATION
    assert cause in capsys.readouterr().err
    assert not (tmp_path / "cache" / "manifest.json").exists()


def test_evaluate_modes(config_path, capsys):
    assert main(["evaluate", "--config", config_path, "--mode", "baseline"]) == EXIT_OK
    assert "accuracy:" in capsys.readouterr().out
    assert main(["evaluate", "--config", config_path, "--mode", "stratified"]) == EXIT_OK
    assert "accuracy:" in capsys.readouterr().out


def test_missing_config_file_is_validation_error(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.json")])
    assert code == EXIT_VALIDATION


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


def test_file_corpus_run(tmp_path, capsys, fixture_store):
    cls_of = {1: "music", 2: "science", 3: "science", 4: "music"}
    labels = tmp_path / "labels.tsv"
    labels.write_text("".join(
        f"{p.page_id}\t{cls_of[p.category_ids[0]]}\n" for p in fixture_store.pages
    ))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "corpus": {"path": str(FIXTURE_PATH), "labels": str(labels)},
        "eval": {"k": 2},
        "cache": {"dir": str(tmp_path / "cache")},
    }))
    assert main(["run", "--config", str(path)]) == EXIT_OK
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
