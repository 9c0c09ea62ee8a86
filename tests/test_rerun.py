"""Warm reruns: reports read back from ``evaluate``'s TSVs, stage inputs
parsed only by stages that compute, a stage that reruns alone reading
from disk what a cold run hands over in memory, artifact writes that
an interruption cannot leave half done, a ``weights.tsv`` that no longer
names the graph's edges, an ``arborescence.tsv`` that is not a tree of the
graph, and runs that share a cache directory."""

import builtins
import json
import os
import re
import subprocess
import sys

import pytest

from wikistrata import catgraph, cli, corpus as corpus_mod, esa, evaluate, pipeline
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
                         (esa, "_read_vector_set"), (evaluate, "_cross_validate"),
                         (catgraph, "build_graph"), (catgraph, "leaf_sets"),
                         (catgraph, "_component_tables")):
        monkeypatch.setattr(module, name, forbidden)
    hit = run_pipeline(cfg)
    assert {status for _, status in hit.stages} == {"hit"}
    assert hit.reports == cold.reports
    assert hit.artifacts == cold.artifacts


def test_eval_seed_rerun_reads_neither_index_nor_vocabulary(tmp_path, monkeypatch):
    """evaluate takes its page ids from the vector set it classifies, so
    its compute parses neither index.tsv nor vocab.tsv (vectorize_baseline,
    which reruns too, reads the index)."""
    run_pipeline(make_cfg(tmp_path / "warm"))
    seed = {"eval": {"seed": 1}}

    def forbidden(*args):
        raise AssertionError("evaluate parsed index.tsv or vocab.tsv")

    for name, _status, run in pipeline.run_stages(make_cfg(tmp_path / "warm", **seed)):
        if name == "vectorize_stratified":  # the next stage is evaluate
            monkeypatch.setattr(pipeline, "_index_from_tsv", forbidden)
            monkeypatch.setattr(pipeline, "_vocab_from_tsv", forbidden)
    monkeypatch.undo()
    cold = run_pipeline(make_cfg(tmp_path / "cold", **seed))
    assert [s for s, status in run.result.stages if status == "run"] == [
        "vectorize_baseline", "evaluate"]
    assert {m: pipeline._report(run, m) for m in pipeline._MODES} == cold.reports
    assert snapshot(tmp_path / "warm") == snapshot(tmp_path / "cold")


def test_lambda_rerun_ignores_the_bytes_of_catweights_tsv(tmp_path):
    """No stage reads catweights.tsv: vectorize_stratified builds its tables
    from the index, so garbage there changes nothing it writes."""
    run_pipeline(make_cfg(tmp_path / "warm"))
    (tmp_path / "warm" / "catweights.tsv").write_text("not\ta table\n")
    warm = run_pipeline(make_cfg(tmp_path / "warm", **OTHER_LAMBDAS))
    cold = run_pipeline(make_cfg(tmp_path / "cold", **OTHER_LAMBDAS))
    assert [s for s, status in warm.stages if status == "run"] == [
        "vectorize_stratified", "evaluate"]
    assert warm.reports == cold.reports
    for name in ("stratified.esvs", "report_baseline.tsv", "report_stratified.tsv"):
        assert (tmp_path / "warm" / name).read_bytes() == (tmp_path / "cold" / name).read_bytes()


def test_lambda_rerun_equals_cold_run(tmp_path):
    run_pipeline(make_cfg(tmp_path / "warm"))
    warm = run_pipeline(make_cfg(tmp_path / "warm", **OTHER_LAMBDAS))
    cold = run_pipeline(make_cfg(tmp_path / "cold", **OTHER_LAMBDAS))
    assert [s for s, status in warm.stages if status == "run"] == [
        "vectorize_stratified", "evaluate"]
    assert warm.reports == cold.reports
    assert snapshot(tmp_path / "warm") == snapshot(tmp_path / "cold")


def test_lambda_rerun_neither_opens_nor_evaluates_the_baseline(tmp_path, monkeypatch):
    """vectorize_baseline cross-validates the baseline set, and a λ-only
    rerun hits it, so the baseline report is read back, and neither
    baseline.esvs is opened (but to hash it for the keys) nor the baseline
    cross-validated again."""
    cache = tmp_path / "warm"
    run_pipeline(make_cfg(cache))
    report = cache / "report_baseline.tsv"
    os.utime(report, ns=(10**18, 10**18))  # a rewrite now would give another mtime
    before = report.read_bytes(), report.stat().st_mtime_ns, report.stat().st_ino
    opened, evaluated, hashing = [], [], []
    real_open, real_hash, real_cv = builtins.open, pipeline._Cache.file_hash, evaluate._cross_validate

    def recording_open(file, mode="r", *args, **kwargs):
        if str(file).endswith("baseline.esvs") and not set(mode) & set("wax+") and not hashing:
            opened.append(file)
        return real_open(file, mode, *args, **kwargs)

    def file_hash(self, name):
        hashing.append(name)
        try:
            return real_hash(self, name)
        finally:
            hashing.pop()

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(pipeline._Cache, "file_hash", file_hash)
    monkeypatch.setattr(evaluate, "_cross_validate", lambda corpus, vs, *args: (
        evaluated.append(vs.keys), real_cv(corpus, vs, *args))[1])
    warm = run_pipeline(make_cfg(cache, **OTHER_LAMBDAS))
    monkeypatch.undo()
    assert [s for s, status in warm.stages if status == "run"] == [
        "vectorize_stratified", "evaluate"]
    assert opened == [] and len(evaluated) == 1  # the stratified set only
    assert (report.read_bytes(), report.stat().st_mtime_ns, report.stat().st_ino) == before
    cold = run_pipeline(make_cfg(tmp_path / "cold", **OTHER_LAMBDAS))
    assert warm.reports == cold.reports
    assert snapshot(cache) == snapshot(tmp_path / "cold")


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
    """An all-hit rerun reads each report back, and a corrupt one is a
    StageError naming the stage that wrote it."""
    cfg = make_cfg(tmp_path / "cache")
    run_pipeline(cfg)
    for name, writer in (("report_baseline.tsv", "vectorize_baseline"),
                         ("report_stratified.tsv", "evaluate")):
        report = tmp_path / "cache" / name
        good = report.read_text()
        report.write_text(good[:-1])
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == writer
        assert isinstance(err.value.cause, ValueError)
        report.write_text(good)


# -- interrupted writes ------------------------------------------------------

class Interrupted(BaseException):
    """Stands in for a kill: no stage catches it."""


def test_every_file_moved_into_the_cache_is_one_cache_write(tmp_path, monkeypatch):
    """On a cold run, a lambda-only rerun and an all-hit rerun, the files
    that ``os.replace`` moves into the cache directory are exactly the
    names passed to ``_Cache.write``, in order."""
    cache = tmp_path / "cache"
    moved, written = [], []
    real_replace, real_write = os.replace, pipeline._Cache.write

    def replace(src, dst):
        if os.path.dirname(dst) == str(cache):
            moved.append(os.path.basename(dst))
        return real_replace(src, dst)

    def write(self, name, data):
        written.append(name)
        return real_write(self, name, data)

    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(pipeline._Cache, "write", write)
    lambda_only = {"manifest.json", "stratified.esvs", "report_stratified.tsv",
                   "summary_stratified.txt"}
    for cfg, names in ((make_cfg(cache), {*pipeline._ARTIFACTS, "manifest.json"}),
                       (make_cfg(cache, **OTHER_LAMBDAS), lambda_only),
                       (make_cfg(cache, **OTHER_LAMBDAS), set())):
        moved.clear()
        written.clear()
        run_pipeline(cfg)
        assert moved == written and set(written) == names


@pytest.mark.parametrize("change, stage, victim", [
    (OTHER_LAMBDAS, "vectorize_stratified", "stratified.esvs"),
    # catvecs writes catweights.tsv before catvecs.esvs, so the cut leaves
    # the new catweights.tsv beside the old vector sets
    ({"catvec": {"max_nnz": 4}}, "catvecs", "catvecs.esvs"),
    # an eval change reruns both cross-validations, baseline first, so the
    # cut leaves the new baseline report beside the old stratified one
    ({"eval": {"k": 3}}, "evaluate", "report_stratified.tsv"),
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
    if victim == "report_stratified.tsv":
        assert (cache / "report_baseline.tsv").read_bytes() != before["report_baseline.tsv"]

    again = run_pipeline(make_cfg(cache))
    assert dict(again.stages)[stage] == "run"
    assert again.reports == first.reports
    assert snapshot(cache) == before


# -- weights.tsv is read against the graph -----------------------------------

def _reversed(rows):
    return rows[::-1]


def _last_dropped(rows):
    return rows[:-1]


def _two_swapped(rows):
    return [rows[1], rows[0], *rows[2:]]


@pytest.mark.parametrize("edit", [_reversed, _last_dropped, _two_swapped])
def test_edited_weights_tsv_fails_arborify_and_keeps_the_tree(tmp_path, edit):
    """Rows that keep every edge's weight but not the graph's edge order,
    or lose an edge, fail the ``arborify`` rerun naming the ``weights``
    line, and no later artifact changes; the cold file, put back, reruns
    to the cold run's bytes."""
    cache = tmp_path / "cache"
    cfg = fixture_cfg(tmp_path, cache)
    run_pipeline(cfg)
    cold = snapshot(cache)
    header, *rows = cold["weights.tsv"].decode().splitlines()
    assert len(rows) >= 3
    (cache / "weights.tsv").write_text("\n".join([header, *edit(rows), ""]))
    with pytest.raises(StageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "arborify"
    assert str(err.value.cause).startswith("weights line ")
    for name in ("arborescence.tsv", "stratified.esvs"):
        assert (cache / name).read_bytes() == cold[name], name
    (cache / "weights.tsv").write_bytes(cold["weights.tsv"])
    again = run_pipeline(cfg)
    assert dict(again.stages)["arborify"] == "run"
    assert snapshot(cache) == cold


# -- arborescence.tsv is read against the graph ------------------------------

@pytest.mark.parametrize("edit, node", [
    (lambda rows: rows[:-1], "p:7"),
    (lambda rows: [*rows, "c:99\tc:0\t0.5"], "c:99"),
    (lambda rows: [*rows[:-1], rows[-1].replace("\tc:4\t", "\tc:0\t")], "p:7"),
], ids=["last-row-dropped", "row-for-a-node-not-in-the-graph", "parent-not-a-category"])
def test_edited_arborescence_tsv_fails_vectorize_stratified_naming_the_node(tmp_path, edit,
                                                                            node):
    """A tree file that lacks a graph node, has a row for a node the graph
    lacks, or gives page 7 a parent that is not one of its categories fails
    the ``vectorize_stratified`` rerun naming the file and the node, and
    the stratified set and both reports keep their bytes."""
    cache = tmp_path / "cache"
    cfg = fixture_cfg(tmp_path, cache)
    run_pipeline(cfg)
    cold = snapshot(cache)
    header, *rows = cold["arborescence.tsv"].decode().splitlines()
    assert rows[-1].startswith("p:7\tc:4\t")
    (cache / "arborescence.tsv").write_text("\n".join([header, *edit(rows), ""]))
    with pytest.raises(StageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "vectorize_stratified"
    assert re.search(rf"arborescence\b.*\b{node}\b", str(err.value.cause)), err.value.cause
    for name in ("stratified.esvs", "report_baseline.tsv", "report_stratified.tsv"):
        assert (cache / name).read_bytes() == cold[name], name


# -- runs that share a cache directory ---------------------------------------

def test_second_run_on_a_held_cache_is_refused_and_writes_nothing(tmp_path):
    """Two runs interleaved on one warm cache: A, at the default lambdas,
    advanced through ``arborify``, then B, at lambdas 0, which once served
    A its stratified set and report. B is refused before it writes, and A's
    reports equal a fresh A run's, then and after B runs alone. Under this
    crosstalk, A's and B's stratified accuracies differ."""
    cache, corpus = tmp_path / "cache", {"synthetic": dict(SYNTH, crosstalk=0.5)}
    a_cfg = make_cfg(cache, corpus=corpus)
    b_cfg = make_cfg(cache, corpus=corpus, strata={"lambdas": [0, 0, 0]})
    run_pipeline(a_cfg)
    fresh = run_pipeline(make_cfg(tmp_path / "fresh", corpus=corpus)).reports
    a = pipeline.run_stages(a_cfg)
    for name, _status, run in a:
        if name == "arborify":
            break
    held = snapshot(cache)
    with pytest.raises(pipeline.ConfigError,
                       match=f"^cache directory {re.escape(repr(str(cache)))} is held by another run$"):
        next(pipeline.run_stages(b_cfg))
    assert snapshot(cache) == held
    for name, _status, run in a:
        pass
    assert {mode: pipeline._report(run, mode) for mode in pipeline._MODES} == fresh
    b_accuracy = run_pipeline(b_cfg).reports["stratified"].mean_accuracy
    assert b_accuracy != fresh["stratified"].mean_accuracy
    assert run_pipeline(a_cfg).reports == fresh


def test_run_refused_on_a_cache_another_process_holds(tmp_path, capsys):
    """A child process holds the cache directory: ``wikistrata run`` exits 2
    naming it and leaves every file's bytes as they were; once the child
    lets go, the same run exits 0."""
    pytest.importorskip("fcntl")
    cache = tmp_path / "cache"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"corpus": {"synthetic": SYNTH}, "cache": {"dir": str(cache)}}))
    run_pipeline(make_cfg(cache))
    before = snapshot(cache)
    capsys.readouterr()
    with subprocess.Popen(
            [sys.executable, "-c", "import fcntl, os, sys; fd = os.open(sys.argv[1], os.O_RDONLY); "
             "fcntl.flock(fd, fcntl.LOCK_EX); print('held', flush=True); sys.stdin.read()",
             str(cache)], stdin=subprocess.PIPE, stdout=subprocess.PIPE) as child:
        try:
            assert child.stdout.readline() == b"held\n"
            code = cli.main(["run", "--config", str(config)])
        finally:
            child.stdin.close()  # the child reads to the end and lets go
            child.wait(timeout=60)
    assert child.returncode == 0 and code == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: cache directory {str(cache)!r} is held by another run\n")
    assert snapshot(cache) == before
    assert cli.main(["run", "--config", str(config)]) == cli.EXIT_OK
    assert snapshot(cache) == before
