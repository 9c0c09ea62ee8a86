"""Warm reruns: reports read back from ``evaluate``'s TSVs, stage inputs
parsed only by stages that compute, a stage that reruns alone reading
from disk what a cold run hands over in memory, and artifact writes that
an interruption cannot leave half done."""

import os

import pytest

from wikistrata import catgraph, corpus as corpus_mod, esa, evaluate, pipeline
from wikistrata.evaluate import EvalReport, LabeledCorpus, cross_validate
from wikistrata.esa import SparseVector
from wikistrata.pipeline import _STAGES, StageError, merge_config, run_pipeline

from conftest import fixture_cfg

SYNTH = {"seed": 0, "n_topics": 3, "pages_per_topic": 15, "vocab_per_topic": 20, "depth": 1}
OTHER_LAMBDAS = {"strata": {"lambdas": [0.1, 0.05, 0.025]}}


def make_cfg(cache, **overrides):
    user = {"corpus": {"synthetic": dict(SYNTH)}, "cache": {"dir": str(cache)}}
    for section, values in overrides.items():
        user.setdefault(section, {}).update(values)
    return merge_config(user)


def snapshot(cache):
    return {name: (cache / name).read_bytes() for name in sorted(os.listdir(cache))}


# -- EvalReport.from_tsv -----------------------------------------------------

def reports():
    # class "c" is never predicted, so its precision is 0.0
    vectors = {d: SparseVector.from_dict({d % 2: 1.0}) for d in range(12)}
    labels = {d: "ab"[d % 2] if d < 9 else "c" for d in range(12)}
    labeled = LabeledCorpus(documents=tuple((d, ()) for d in range(12)), labels=labels)
    made = EvalReport(classes=("x", "y z"), fold_accuracies=(0.1, 1 / 3),
                      mean_accuracy=(0.1 + 1 / 3) / 2, confusion=((3, 1), (0, 2)),
                      subspace_dim=0, per_class_precision={"x": 1.0, "y z": 2 / 3},
                      per_class_recall={"x": 0.75, "y z": 1.0})
    return [cross_validate(labeled, vectors, 3, 0), made]


def test_report_round_trips_through_tsv():
    cv, made = reports()
    assert cv.per_class_precision["c"] == 0.0
    for report in (cv, made):
        assert EvalReport.from_tsv(report.to_tsv()) == report


def test_report_cut_at_any_line_is_rejected():
    text = reports()[0].to_tsv()
    lines = text.splitlines(keepends=True)
    for n in range(len(lines)):
        with pytest.raises(ValueError, match="not an EvalReport TSV"):
            EvalReport.from_tsv("".join(lines[:n]))


@pytest.mark.parametrize("edit", [
    lambda t: t[:-1],                                   # unterminated last line
    lambda t: t + "class\tc\t0\t0\n",                   # an extra line
    lambda t: t.replace("# subspace_dim", "# dim"),     # a renamed field
    lambda t: t.replace("confusion\ta\t", "confusion\tb\t"),  # a row under another class
    lambda t: t.replace("\t0\n", "\t0.0\n", 1),         # a float not in .17g form
])
def test_report_other_text_is_rejected(edit):
    text = reports()[0].to_tsv()
    with pytest.raises(ValueError, match="not an EvalReport TSV"):
        EvalReport.from_tsv(edit(text))


# -- what a rerun reads ------------------------------------------------------

@pytest.mark.parametrize("source", ["synthetic", "file"])
def test_full_hit_reads_no_stage_input(tmp_path, monkeypatch, source):
    cache = tmp_path / "cache"
    cfg = make_cfg(cache) if source == "synthetic" else fixture_cfg(tmp_path, cache)
    cold = run_pipeline(cfg)

    def forbidden(*args, **kwargs):
        raise AssertionError("an all-hit run called a stage input loader")

    for module, name in ((esa, "index_from_freqs"), (pipeline, "_index_from_tsv"),
                         (corpus_mod, "parse_corpus"),
                         (esa, "load_vector_set"), (evaluate, "cross_validate"),
                         (catgraph, "build_graph"), (catgraph, "leaf_sets")):
        monkeypatch.setattr(module, name, forbidden)
    hit = run_pipeline(cfg)
    assert {status for _, status in hit.stages} == {"hit"}
    assert hit.reports == cold.reports
    assert hit.artifacts == cold.artifacts


def test_lambda_rerun_equals_cold_run(tmp_path):
    run_pipeline(make_cfg(tmp_path / "warm"))
    warm = run_pipeline(make_cfg(tmp_path / "warm", **OTHER_LAMBDAS))
    cold = run_pipeline(make_cfg(tmp_path / "cold", **OTHER_LAMBDAS))
    assert [s for s, status in warm.stages if status == "run"] == [
        "vectorize_stratified", "evaluate"]
    assert warm.reports == cold.reports
    assert snapshot(tmp_path / "warm") == snapshot(tmp_path / "cold")


def test_untruncated_support_rerun_equals_cold_run(tmp_path):
    """At a max_nnz that cuts category tables, untruncated support gives
    other stratified vectors, and a rerun to it writes a cold run's bytes."""
    truncated = {"catvec": {"max_nnz": 5}}
    untruncated = dict(truncated, strata={"use_truncated_support": False})
    run_pipeline(make_cfg(tmp_path / "warm", **truncated))
    before = snapshot(tmp_path / "warm")
    warm = run_pipeline(make_cfg(tmp_path / "warm", **untruncated))
    cold = run_pipeline(make_cfg(tmp_path / "cold", **untruncated))
    assert [s for s, status in warm.stages if status == "run"] == [
        "vectorize_stratified", "evaluate"]
    assert snapshot(tmp_path / "warm")["stratified.esvs"] != before["stratified.esvs"]
    assert warm.reports == cold.reports
    assert snapshot(tmp_path / "warm") == snapshot(tmp_path / "cold")


@pytest.mark.parametrize("source", ["synthetic", "file"])
@pytest.mark.parametrize("stage", [row[0] for row in _STAGES[1:]])
def test_a_stage_rerun_alone_reads_its_inputs_from_disk(tmp_path, source, stage):
    """Every stage after ingest reads an artifact that a cold run hands it
    in memory. With only that stage's outputs deleted, the stages before
    it hit, so it parses their files, and must write the same bytes."""
    cache = tmp_path / "cache"
    cfg = make_cfg(cache) if source == "synthetic" else fixture_cfg(tmp_path, cache)
    cold = run_pipeline(cfg)
    before = snapshot(cache)
    outputs = {row[0]: row[3] for row in _STAGES}[stage]
    for name in outputs:
        (cache / name).unlink()
    again = run_pipeline(cfg)
    assert [s for s, status in again.stages if status == "run"] == [stage]
    assert again.reports == cold.reports
    assert snapshot(cache) == before


def test_corrupt_report_is_a_stage_error(tmp_path):
    cfg = make_cfg(tmp_path / "cache")
    run_pipeline(cfg)
    report = tmp_path / "cache" / "report_stratified.tsv"
    report.write_text(report.read_text()[:-1])
    with pytest.raises(StageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "evaluate"


# -- interrupted writes ------------------------------------------------------

class Interrupted(BaseException):
    """Stands in for a kill: no stage catches it."""


@pytest.mark.parametrize("change, stage, victim", [
    (OTHER_LAMBDAS, "vectorize_stratified", "stratified.esvs"),
    # catvecs writes catweights.tsv before catvecs.esvs, so the cut leaves
    # the new catweights.tsv beside the old vector sets
    ({"catvec": {"max_nnz": 4}}, "catvecs", "catvecs.esvs"),
])
def test_interrupted_write_leaves_a_rerunnable_cache(tmp_path, monkeypatch, change, stage,
                                                     victim):
    """Run config A, cut config B while it writes ``victim``, rerun A."""
    cache = tmp_path / "cache"
    first = run_pipeline(make_cfg(cache))
    before = snapshot(cache)
    limit = len(before[victim]) // 2

    class HalfFile:
        def __init__(self, fh):
            self.fh, self.written = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if self.written + len(data) > limit:
                self.fh.write(data[:limit - self.written])
                raise Interrupted
            self.written += len(data)
            return self.fh.write(data)

    def open_halfway(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return HalfFile(fh) if os.path.basename(path).startswith(victim) else fh

    monkeypatch.setattr(esa, "open", open_halfway, raising=False)
    with pytest.raises(Interrupted):
        run_pipeline(make_cfg(cache, **change))
    monkeypatch.undo()
    assert (cache / victim).read_bytes() == before[victim]
    if victim == "catvecs.esvs":
        assert (cache / "catweights.tsv").read_bytes() != before["catweights.tsv"]

    again = run_pipeline(make_cfg(cache))
    assert dict(again.stages)[stage] == "run"
    assert again.reports == first.reports
    assert snapshot(cache) == before
