"""The per-process loader memo: a rerun that only changes lambda parses no
unchanged cache input twice and builds each level's stratum weights once, a
cold run neither reads nor fills the memo, and memo-served runs write what
memo-free runs write. Also the artifact digests: taken as a file is written,
read in chunks, and kept per process only for settled files, and manifests
that are not a JSON object of digest maps."""

import builtins
import hashlib
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from wikistrata import arbor, catgraph, corpus as corpus_mod, evaluate, pipeline, strata
from wikistrata.cli import EXIT_OK, main
from wikistrata.pipeline import _MEMO, merge_config, run_pipeline

from conftest import settle

SYNTH = {"seed": 0, "n_topics": 3, "pages_per_topic": 15, "vocab_per_topic": 20, "depth": 1}
LAMBDAS = {"A": [0.5, 0.25, 0.125], "B": [0.1, 0.05, 0.025], "flat": [1.0, 1.0, 1.0],
           "custom": [0.3, 0.2, 0.1], "two": [0.5, 0.25]}
# what a lambda-only rerun parses or builds when the memo holds nothing
EVERY_PARSE = sorted(["filtered.jsonl", "graph", "leaf_sets", "vocab.tsv", "index.tsv",
                      "tables", "arborescence.tsv", "labels.tsv", "level_weights"])


def make_cfg(cache, lambdas="A", **overrides):
    user = {"corpus": {"synthetic": dict(SYNTH)}, "cache": {"dir": str(cache)},
            "strata": {"lambdas": LAMBDAS[lambdas]}}
    for section, values in overrides.items():
        user.setdefault(section, {}).update(values)
    return merge_config(user)


def snapshot(cache):
    return {name: (cache / name).read_bytes() for name in sorted(os.listdir(cache))}


def kept():
    """The memo's keys and the identity of each value, by loader name."""
    return {name: (key, id(value)) for name, (key, value) in _MEMO.items()}


@pytest.fixture()
def parses(monkeypatch):
    """The cache inputs parsed and the category values and level weights
    built, in call order."""
    calls = []
    hooks = [(corpus_mod, "parse_corpus", "filtered.jsonl"),
             (pipeline, "_vocab_from_tsv", "vocab.tsv"),
             (pipeline, "_index_from_tsv", "index.tsv"),
             (arbor, "_tree_from_tsv", "arborescence.tsv"),
             (pipeline, "_parse_labels", "labels.tsv"),
             (catgraph, "build_graph", "graph"),
             (catgraph, "leaf_sets", "leaf_sets"),
             (catgraph, "_component_tables", "tables"),
             (strata, "_level_weights", "level_weights")]
    for module, name, label in hooks:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _real=real, _label=label, **k: (
            calls.append(_label), _real(*a, **k))[1])
    return calls


# -- what a rerun parses -----------------------------------------------------

def test_second_lambda_rerun_parses_no_cache_input(tmp_path, parses, monkeypatch):
    cache = tmp_path / "cache"
    run_pipeline(make_cfg(cache))
    parses.clear()
    run_pipeline(make_cfg(cache, "B"))
    assert sorted(parses) == EVERY_PARSE
    assert sorted(_MEMO) == sorted(["store", "graph", "leaf_sets", "vocabulary", "index",
                                    "cat_weights", "tree", "labels", "level_weights",
                                    "report_baseline"])
    parses.clear()
    read = []
    real_read = pipeline._Cache.read_text
    monkeypatch.setattr(pipeline._Cache, "read_text",
                        lambda self, name: (read.append(name), real_read(self, name))[1])
    rerun = run_pipeline(make_cfg(cache, "flat"))
    assert [s for s, status in rerun.stages if status == "run"] == [
        "vectorize_stratified", "evaluate"]
    assert parses == []
    assert read == []


def test_cold_run_neither_reads_nor_fills_the_memo(tmp_path, parses):
    run_pipeline(make_cfg(tmp_path / "one", "B"))
    assert _MEMO == {}
    cold = list(parses)
    assert {"graph", "leaf_sets", "tables", "level_weights"} <= set(cold)
    run_pipeline(make_cfg(tmp_path / "one"))  # fills the memo with a cold run's bytes
    before = kept()
    assert "level_weights" in before
    parses.clear()
    run_pipeline(make_cfg(tmp_path / "two"))  # a cold run that writes those bytes again
    assert parses == cold
    assert kept() == before
    assert snapshot(tmp_path / "one") == snapshot(tmp_path / "two")


def test_other_bytes_parse_again(tmp_path, parses):
    cache = tmp_path / "cache"
    run_pipeline(make_cfg(cache))
    run_pipeline(make_cfg(cache, "B"))
    parses.clear()
    with open(cache / "arborescence.tsv", "a", encoding="utf-8") as fh:
        fh.write("\n")  # other bytes, the same tree
    rerun = run_pipeline(make_cfg(cache, "flat"))
    assert [s for s, status in rerun.stages if status == "run"] == [
        "vectorize_stratified", "evaluate"]
    assert parses == ["arborescence.tsv", "level_weights"]

    other, corpus = tmp_path / "other", {"synthetic": dict(SYNTH, seed=1, pages_per_topic=16)}
    run_pipeline(make_cfg(other, corpus=corpus))
    parses.clear()
    run_pipeline(make_cfg(other, "B", corpus=corpus))
    assert sorted(parses) == EVERY_PARSE


def test_lambda_sweep_builds_the_level_weights_once(tmp_path, parses):
    """tenth, flat, custom and back to A after a cold run at A: the first
    rerun builds the level weights and fills the memo, the others take
    them from it, and each writes the stratified set a memo-free run
    writes at its lambdas."""
    cache = tmp_path / "cache"
    run_pipeline(make_cfg(cache))
    parses.clear()
    for lambdas in ["B", "flat", "custom", "A"]:
        rerun = run_pipeline(make_cfg(cache, lambdas))
        assert [s for s, status in rerun.stages if status == "run"] == [
            "vectorize_stratified", "evaluate"]
        memo = dict(_MEMO)
        _MEMO.clear()
        fresh = run_pipeline(make_cfg(tmp_path / lambdas, lambdas))
        _MEMO.update(memo)
        assert rerun.reports == fresh.reports
        assert ((cache / "stratified.esvs").read_bytes()
                == (tmp_path / lambdas / "stratified.esvs").read_bytes())
    assert [p for p in parses if p == "level_weights"] == ["level_weights"] * 5  # 1 + 4 cold


@pytest.mark.parametrize("change", ["max_nnz", "untruncated", "levels", "arborescence"])
def test_what_the_level_weights_depend_on_builds_them_again(tmp_path, parses, change):
    """A rerun that changes catvec.max_nnz (here without cutting any table,
    so only catvecs and vectorize_stratified rerun), the support (from
    tables cut at 5 terms), the number of lambdas or the bytes of
    arborescence.tsv builds the level weights again, and writes what a
    memo-free run writes."""
    cache, lambdas = tmp_path / "cache", "B"
    overrides = {"catvec": {"max_nnz": 5}} if change == "untruncated" else {}
    run_pipeline(make_cfg(cache, **overrides))
    run_pipeline(make_cfg(cache, "B", **overrides))
    assert "level_weights" in _MEMO
    if change == "max_nnz":
        overrides = {"catvec": {"max_nnz": 999}}
    elif change == "untruncated":
        overrides["strata"] = {"use_truncated_support": False}
    elif change == "levels":
        lambdas = "two"
    else:
        with open(cache / "arborescence.tsv", "a", encoding="utf-8") as fh:
            fh.write("\n")  # other bytes, the same tree
    parses.clear()
    rerun = run_pipeline(make_cfg(cache, lambdas, **overrides))
    ran = [s for s, status in rerun.stages if status == "run" and s != "evaluate"]
    assert ran == ["catvecs"] * (change == "max_nnz") + ["vectorize_stratified"]
    assert parses.count("level_weights") == 1
    _MEMO.clear()
    run_pipeline(make_cfg(tmp_path / "fresh", lambdas, **overrides))
    assert ((cache / "stratified.esvs").read_bytes()
            == (tmp_path / "fresh" / "stratified.esvs").read_bytes())


# -- the reports' memo ---------------------------------------------------------

def test_a_second_settled_hit_opens_nothing_but_the_manifest(tmp_path, monkeypatch):
    """After one hit on a settled cache, the next all-hit run opens no file
    under the cache directory, in any mode, except ``manifest.json``, and
    parses no report."""
    cache = tmp_path / "cache"
    cold = run_pipeline(make_cfg(cache))
    settle(cache)
    run_pipeline(make_cfg(cache))
    opened, parsed = [], []
    real_open, real_from_tsv = builtins.open, evaluate.EvalReport.from_tsv

    def spying_open(path, *args, **kwargs):
        opened.append(os.path.relpath(path, cache))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spying_open)
    monkeypatch.setattr(evaluate.EvalReport, "from_tsv", staticmethod(
        lambda text: (parsed.append(text), real_from_tsv(text))[1]))
    hit = run_pipeline(make_cfg(cache))
    monkeypatch.undo()
    assert {status for _stage, status in hit.stages} == {"hit"}
    assert [p for p in opened if not p.startswith("..")] == ["manifest.json"]
    assert parsed == []
    assert hit.reports == cold.reports


@pytest.mark.parametrize("name, writer", [("report_baseline.tsv", "vectorize_baseline"),
                                          ("report_stratified.tsv", "evaluate")])
def test_a_report_edited_after_a_memoized_hit_fails_its_writer(tmp_path, name, writer):
    """An edit in place that keeps the report's size and mtime changes its
    ctime, so the next run hashes it again, finds another digest, parses
    it and names the stage that wrote it."""
    cache = tmp_path / "cache"
    run_pipeline(make_cfg(cache))
    settle(cache)
    for _ in range(2):  # the second is served from the memo
        run_pipeline(make_cfg(cache))
    assert name in pipeline._HASHED[str(cache)] and name[:-4] in _MEMO
    path = cache / name
    before = os.stat(path)
    with open(path, "r+b") as fh:
        data = fh.read()
        fh.seek(0)
        fh.write(data.replace(b"\t", b" ", 1))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    with pytest.raises(pipeline.StageError) as err:
        run_pipeline(make_cfg(cache))
    assert err.value.stage == writer and isinstance(err.value.cause, ValueError)


def test_each_hit_gets_its_own_copy_of_a_kept_report(tmp_path):
    """Two hits return reports that are equal but not the same objects,
    and a change to one report's dicts does not reach the next run's."""
    cache = tmp_path / "cache"
    run_pipeline(make_cfg(cache))
    first, second = (run_pipeline(make_cfg(cache)).reports for _ in range(2))
    assert "report_stratified" in _MEMO
    for mode in ("baseline", "stratified"):
        assert first[mode] == second[mode] and first[mode] is not second[mode]
        assert first[mode].per_class_precision is not second[mode].per_class_precision
        for cls in second[mode].per_class_precision:
            second[mode].per_class_precision[cls] = -1.0
            second[mode].per_class_recall[cls] = -1.0
    third = run_pipeline(make_cfg(cache)).reports
    for mode in ("baseline", "stratified"):
        text = (cache / f"report_{mode}.tsv").read_bytes().decode("utf-8")
        assert third[mode] == evaluate.EvalReport.from_tsv(text) == first[mode]


# -- what a memo-served run writes --------------------------------------------

def test_memo_served_runs_write_what_memo_free_runs_write(tmp_path):
    """A, B, A, flat and A untruncated in one cache, the memo kept across
    the runs, against the same runs in another cache with the memo cleared
    before each: a value changed in place by one run would show in a later one."""
    untruncated = {"strata": {"use_truncated_support": False}}
    for lambdas, overrides in [("A", {}), ("B", {}), ("A", {}), ("flat", {}), ("A", untruncated)]:
        served = run_pipeline(make_cfg(tmp_path / "served", lambdas, **overrides))
        memo = dict(_MEMO)
        _MEMO.clear()
        fresh = run_pipeline(make_cfg(tmp_path / "fresh", lambdas, **overrides))
        _MEMO.clear()
        _MEMO.update(memo)
        assert served.stages == fresh.stages
        assert served.reports == fresh.reports
        assert snapshot(tmp_path / "served") == snapshot(tmp_path / "fresh")
    assert "tree" in _MEMO


def test_memoized_arrays_are_read_only(tmp_path):
    run_pipeline(make_cfg(tmp_path / "cache"))
    run_pipeline(make_cfg(tmp_path / "cache", "B"))
    index, tables = _MEMO["index"][1], _MEMO["cat_weights"][1]
    arrays = [index.row_ptr, index.term_ids, index.freqs, index.tfidfs, *index.term_columns,
              tables.ptr, tables.dims, tables.weights, *_MEMO["level_weights"][1]]
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        tables.weights[0] = 0.0


# -- the cache's digests and manifest ---------------------------------------

@pytest.mark.parametrize("chunk", [pipeline._CHUNK, 7])
def test_file_hash_is_the_sha256_of_the_whole_file(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(pipeline, "_CHUNK", chunk)
    data = bytes(range(256)) * (pipeline._CHUNK // 256 * 2 + 3) + b"tail"
    assert len(data) > 2 * chunk
    (tmp_path / "big.bin").write_bytes(data)
    assert pipeline._Cache(str(tmp_path)).file_hash("big.bin") == hashlib.sha256(data).digest()


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.text(), st.lists(st.binary(max_size=40), max_size=5)))
@example("t\u00e9l\u00e9 \u2603 \U0001f600\n")
@example([])
@example([b"", b"ab", b"", b"c"])
def test_write_takes_the_sha256_of_the_bytes_it_wrote(data):
    """Of a file that a stage's entry holds, ``write`` keeps the digest of
    exactly the bytes it wrote: a str as UTF-8, or each block of a one-shot
    iterable, empty blocks and no blocks at all included."""
    with tempfile.TemporaryDirectory() as directory:
        cache = pipeline._Cache(directory)
        cache.write("labels.tsv", data if isinstance(data, str) else iter(data))
        with open(cache.path("labels.tsv"), "rb") as fh:
            written = fh.read()
        assert written == (data.encode("utf-8") if isinstance(data, str) else b"".join(data))
        assert cache.file_hash("labels.tsv") == hashlib.sha256(written).digest()
        cache.write("pagevecs.esvs", [written])  # which no entry holds: not hashed
        assert "pagevecs.esvs" not in cache._digests


# The ESVS header (12 bytes), the first key (8), its ESAV header (15) and
# its first entry's u32 dimension: the lowest byte of the first weight.
FIRST_WEIGHT = 12 + 8 + 15 + 4


def flipped(data: bytes) -> bytes:
    return data[:FIRST_WEIGHT] + bytes([data[FIRST_WEIGHT] ^ 1]) + data[FIRST_WEIGHT + 1:]


def edit_in_place(path):
    with open(path, "r+b") as fh:
        data = fh.read()
        fh.seek(0)
        fh.write(flipped(data))


def moved_over(change):
    def edit(path):
        copy = path.with_name("copy")
        copy.write_bytes(change(path.read_bytes()))
        os.replace(copy, path)
    return edit


@pytest.mark.parametrize("edit, weights", [(edit_in_place, "run"), (moved_over(flipped), "run"),
                                           (moved_over(lambda data: data), "hit")])
def test_a_kept_digest_stands_only_for_the_file_it_was_read_from(tmp_path, artifact_reads,
                                                                   edit, weights):
    """After a hit that keeps every settled artifact's digest, an edit of
    baseline.esvs that keeps its size and mtime, in place or by a copy
    moved over it, makes weights miss; a copy of the same bytes is read
    again, and weights hits. No other artifact is read."""
    cache = tmp_path / "cache"
    run_pipeline(make_cfg(cache))
    settle(cache)
    run_pipeline(make_cfg(cache))
    path = cache / "baseline.esvs"
    assert "baseline.esvs" in pipeline._HASHED[str(cache)]
    before = os.stat(path)
    edit(path)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    artifact_reads.clear()
    stages = dict(run_pipeline(make_cfg(cache)).stages)
    assert stages["weights"] == weights and stages["vectorize_baseline"] == "hit"
    assert artifact_reads == ["baseline.esvs"]


@pytest.mark.parametrize("mtime", [None, 10**9, 4 * 10**18])  # as written, far past, far future
@pytest.mark.parametrize("margin, kept", [(1, True), (0, False), (-1, False)])
def test_only_a_settled_file_keeps_its_digest(tmp_path, mtime, margin, kept):
    """A digest is kept when the file's mtime and ctime are both older than
    the manifest's time, and not when the newer of them equals it."""
    path = tmp_path / "x.tsv"
    path.write_bytes(b"x")
    if mtime is not None:
        os.utime(path, ns=(mtime, mtime))
    st = os.stat(path)
    cache = pipeline._Cache(str(tmp_path))
    cache.settled_before = max(st.st_mtime_ns, st.st_ctime_ns) + margin
    assert cache.file_hash("x.tsv") == hashlib.sha256(b"x").digest()
    assert ("x.tsv" in pipeline._HASHED[str(tmp_path)]) is kept


def test_a_file_changed_while_it_is_read_keeps_no_digest(tmp_path, monkeypatch):
    """A file that changes between the identity taken before its read and
    the one taken after keeps no digest, though it is settled."""
    path = tmp_path / "x.tsv"
    path.write_bytes(b"x")
    real_fstat, calls = os.fstat, []

    def fstat_then_append(fd):
        st = real_fstat(fd)
        calls.append(fd)
        if len(calls) == 1:  # as if another process wrote between the two
            with open(path, "ab") as fh:
                fh.write(b"y")
        return st

    cache = pipeline._Cache(str(tmp_path))
    cache.settled_before = 2**62  # after every file's times
    monkeypatch.setattr(os, "fstat", fstat_then_append)
    digest = cache.file_hash("x.tsv")
    monkeypatch.undo()
    assert len(calls) == 2 and digest == hashlib.sha256(b"xy").digest()
    assert pipeline._HASHED[str(tmp_path)] == {}


def test_the_manifest_sets_the_settled_time(tmp_path):
    """The settled time is the older of the manifest's mtime and ctime; with
    no manifest, no file is settled, however old."""
    (tmp_path / "x.tsv").write_bytes(b"x")
    os.utime(tmp_path / "x.tsv", ns=(10**9, 10**9))
    cache = pipeline._Cache(str(tmp_path))
    cache.file_hash("x.tsv")
    assert pipeline._HASHED[str(tmp_path)] == {}
    manifest = tmp_path / "manifest.json"
    manifest.write_text("{}")
    os.utime(manifest, ns=(2 * 10**9, 2 * 10**9))
    assert pipeline._Cache(str(tmp_path)).settled_before == 2 * 10**9
    os.utime(manifest, ns=(4 * 10**18, 4 * 10**18))
    st = os.stat(manifest)
    assert pipeline._Cache(str(tmp_path)).settled_before == st.st_ctime_ns


def test_digests_kept_for_one_directory_serve_no_other(tmp_path, artifact_reads):
    """The per-process digests hold one cache directory: a cache on another
    directory drops them and reads its own file."""
    a, b = tmp_path / "a", tmp_path / "b"
    for directory in (a, b):
        directory.mkdir()
        (directory / "x.tsv").write_text(directory.name)
        (directory / "manifest.json").write_text("{}")
        settle(directory)
    assert pipeline._Cache(str(a)).file_hash("x.tsv") == hashlib.sha256(b"a").digest()
    assert list(pipeline._HASHED) == [str(a)] and "x.tsv" in pipeline._HASHED[str(a)]
    assert pipeline._Cache(str(b)).file_hash("x.tsv") == hashlib.sha256(b"b").digest()
    assert list(pipeline._HASHED) == [str(b)]
    assert pipeline._Cache(str(a)).file_hash("x.tsv") == hashlib.sha256(b"a").digest()
    assert artifact_reads == ["x.tsv"] * 3


# the last is of the older format: one hash of the input digests per stage
@pytest.mark.parametrize("manifest", ['{"ingest": ', "[1, 2]", '{"evaluate": 5}',
                                      json.dumps({"ingest": "0" * 64, "evaluate": "f" * 64})])
def test_unreadable_manifest_is_absent(tmp_path, manifest):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"corpus": {"synthetic": SYNTH},
                                  "cache": {"dir": str(tmp_path / "cache")}}))
    assert main(["run", "--config", str(config)]) == EXIT_OK
    (tmp_path / "cache" / "manifest.json").write_text(manifest)
    assert main(["run", "--config", str(config)]) == EXIT_OK
    cold = tmp_path / "cold.json"
    cold.write_text(json.dumps({"corpus": {"synthetic": SYNTH},
                                "cache": {"dir": str(tmp_path / "cold")}}))
    assert main(["run", "--config", str(cold)]) == EXIT_OK
    assert snapshot(tmp_path / "cache") == snapshot(tmp_path / "cold")
