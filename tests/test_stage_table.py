"""Stage keys come from what each stage declares in ``pipeline._STAGES``:
a stage reruns when an artifact it reads changes, and when the bytes of a
file its config names change, but not when only that file's path does.
Each stage's manifest entry is the digest of each of those inputs."""

import builtins
import collections
import hashlib
import json
import os
import shutil

import pytest

from wikistrata import esa, pipeline
from wikistrata.corpus import CorpusError
from wikistrata.pipeline import merge_config, run_pipeline

from conftest import FIXTURE_PATH

SYNTH = {"seed": 0, "n_topics": 3, "pages_per_topic": 15, "vocab_per_topic": 20, "depth": 1}
ALL_STAGES = [
    "ingest", "filter", "vocab", "index", "vectorize_baseline", "catvecs", "weights",
    "arborify", "vectorize_stratified", "evaluate",
]


def snapshot(cache):
    return {name: (cache / name).read_bytes() for name in sorted(os.listdir(cache))}


def ran(result):
    return [name for name, status in result.stages if status == "run"]


def file_cfg(cache, corpus, labels, **sections):
    return merge_config({"corpus": {"path": str(corpus), "labels": str(labels)},
                         "eval": {"k": 2}, "cache": {"dir": str(cache)}, **sections})


def fixture_labels(path):
    # pages labeled by their first category, as in test_pipeline
    first_category = {0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 5: 4, 6: 1, 7: 3}
    path.write_text("".join(f"{p}\t{'music' if c in (1, 4) else 'science'}\n"
                            for p, c in first_category.items()))
    return path


# -- file changes the old keys missed ----------------------------------------

def two_cycle_corpus(root):
    """Categories 0 and 1, each the other's parent; three pages in each."""
    records = [{"kind": "meta", "root": root, "version": 1},
               {"kind": "category", "id": 0, "title": "A", "parents": [1]},
               {"kind": "category", "id": 1, "title": "B", "parents": [0]}]
    texts = ["alpha beta gamma", "beta gamma delta", "alpha delta",
             "omega psi chi", "psi chi phi", "omega phi"]
    records += [{"kind": "page", "id": pid, "title": f"P{pid}", "text": text,
                 "categories": [pid // 3], "links": []} for pid, text in enumerate(texts)]
    return "".join(json.dumps(r) + "\n" for r in records)


def test_meta_root_change_reruns_arborify(tmp_path):
    corpus, labels = tmp_path / "corpus.jsonl", tmp_path / "labels.tsv"
    labels.write_text("".join(f"{pid}\t{'ab'[pid // 3]}\n" for pid in range(6)))
    corpus.write_text(two_cycle_corpus(0))
    run_pipeline(file_cfg(tmp_path / "warm", corpus, labels))
    rooted_at_0 = (tmp_path / "warm" / "arborescence.tsv").read_bytes()

    corpus.write_text(two_cycle_corpus(1))
    warm = run_pipeline(file_cfg(tmp_path / "warm", corpus, labels))
    cold = run_pipeline(file_cfg(tmp_path / "cold", corpus, labels))
    assert dict(warm.stages)["arborify"] == "run"
    assert (tmp_path / "warm" / "arborescence.tsv").read_bytes() != rooted_at_0
    assert snapshot(tmp_path / "warm") == snapshot(tmp_path / "cold")
    assert warm.reports == cold.reports


def test_stopwords_are_keyed_by_content_and_inputs_not_by_path(tmp_path):
    labels = fixture_labels(tmp_path / "labels.tsv")
    stopwords = tmp_path / "stopwords.txt"
    stopwords.write_text("war\n")
    warm = tmp_path / "warm"
    sections = {"analyzer": {"stopwords": str(stopwords)}}
    run_pipeline(file_cfg(warm, FIXTURE_PATH, labels, **sections))
    before = snapshot(warm)

    stopwords.write_text("war\nbach\nmelody\n")  # edited in place
    edited = run_pipeline(file_cfg(warm, FIXTURE_PATH, labels, **sections))
    assert {"filter", "vocab", "index"} <= set(ran(edited))
    assert (warm / "vocab.tsv").read_bytes() != before["vocab.tsv"]
    cold = run_pipeline(file_cfg(tmp_path / "cold", FIXTURE_PATH, labels, **sections))
    assert snapshot(warm) == snapshot(tmp_path / "cold")
    assert edited.reports == cold.reports

    # the same bytes under other paths
    corpus_copy = tmp_path / "moved" / "corpus.jsonl"
    corpus_copy.parent.mkdir()
    shutil.copyfile(FIXTURE_PATH, corpus_copy)
    labels_copy = corpus_copy.parent / "labels.tsv"
    shutil.copyfile(labels, labels_copy)
    moved = run_pipeline(file_cfg(warm, corpus_copy, labels_copy, **sections))
    assert dict(moved.stages)["ingest"] == "hit"
    assert ran(moved) == []


# -- every stage declares what it reads --------------------------------------

@pytest.fixture(scope="module")
def warm_caches(tmp_path_factory):
    """A warm cache per corpus source, with the config that made it."""
    root = tmp_path_factory.mktemp("warm")
    labels = fixture_labels(root / "labels.tsv")
    caches = {}
    for source in ("synthetic", "file"):
        cache = root / source
        if source == "file":
            cfg = file_cfg(cache, FIXTURE_PATH, labels)
        else:
            cfg = merge_config({"corpus": {"synthetic": dict(SYNTH)}, "cache": {"dir": str(cache)}})
        run_pipeline(cfg)
        caches[source] = (cache, cfg)
    return caches


def record_reads(monkeypatch, cache_dir):
    """Record, by stage (None outside any stage's compute), the cache
    artifacts opened for reading: through ``_Cache.read_text``,
    ``esa.load_vector_set`` and ``open``. Opens made to hash a file for a
    key are left out."""
    reads = collections.defaultdict(set)
    computing, hashing = [], []

    def note(path):
        if not hashing and os.path.dirname(os.path.abspath(path)) == cache_dir:
            reads[computing[-1] if computing else None].add(os.path.basename(path))

    real_open, real_read_text = builtins.open, pipeline._Cache.read_text
    real_load, real_hash, real_stage = esa.load_vector_set, pipeline._Cache.file_hash, pipeline._stage

    def open_for_reading(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+"):
            note(file)
        return real_open(file, mode, *args, **kwargs)

    def read_text(self, name):
        note(self.path(name))
        return real_read_text(self, name)

    def load_vector_set(path):
        note(path)
        return real_load(path)

    def file_hash(self, name):
        hashing.append(name)
        try:
            return real_hash(self, name)
        finally:
            hashing.pop()

    def stage(run, name, key, outputs, compute):
        def recorded():
            computing.append(name)
            try:
                return compute()
            finally:
                computing.pop()
        real_stage(run, name, key, outputs, recorded)

    monkeypatch.setattr(builtins, "open", open_for_reading)
    monkeypatch.setattr(pipeline._Cache, "read_text", read_text)
    monkeypatch.setattr(esa, "load_vector_set", load_vector_set)
    monkeypatch.setattr(pipeline._Cache, "file_hash", file_hash)
    monkeypatch.setattr(pipeline, "_stage", stage)
    return reads


def declared(reads, sections):
    """The artifacts that a row's reads reach: those of its manifest entry or memo key."""
    return pipeline._reach(reads, sections) & pipeline._WRITER.keys()


def test_each_artifact_has_one_row_and_one_writing_stage():
    """Every artifact is written by exactly one stage, and every declared
    input has a loader that parses it back, from its row of ``_VALUES``.
    A stage row reads only values, and a value row at most the one artifact
    it parses, first."""
    writers = collections.Counter(o for _n, _r, _s, outputs, _c in pipeline._STAGES for o in outputs)
    assert set(writers.values()) == {1}
    parsed = [a for row in pipeline._VALUES.values() for a in row.reads if a in pipeline._WRITER]
    assert len(parsed) == len(set(parsed)) == len(pipeline._LOADER)
    for name, row in pipeline._VALUES.items():
        assert set(row.reads[1:]) <= pipeline._VALUES.keys(), name
    for _name, reads, sections, *_rest in pipeline._STAGES:
        assert set(reads) <= pipeline._VALUES.keys()
        for artifact in declared(reads, sections):
            loader = pipeline._LOADER[artifact]
            value = pipeline._VALUES[loader]
            assert value.load and value.reads[0] == artifact, artifact


@pytest.mark.parametrize("source", ["synthetic", "file"])
@pytest.mark.parametrize("stage", ALL_STAGES)
def test_stage_reads_exactly_its_declared_inputs(tmp_path, monkeypatch, warm_caches, source,
                                                  stage):
    """Drop one stage's manifest entry in a warm cache and rerun: only that
    stage runs, it rewrites the same bytes, and the artifacts its compute
    opens are its declared inputs. (Each declared input is also read, so
    no key depends on bytes its stage ignores.)"""
    warm, cfg = warm_caches[source]
    cache = tmp_path / "cache"
    shutil.copytree(warm, cache)
    cfg = dict(cfg, cache={"dir": str(cache)})
    manifest = json.loads((cache / "manifest.json").read_text())
    del manifest[stage]
    (cache / "manifest.json").write_text(json.dumps(manifest))

    inputs = {name: declared(reads, sections) for name, reads, sections, *_ in pipeline._STAGES}
    assert list(inputs) == ALL_STAGES
    reads = record_reads(monkeypatch, str(cache))
    result = run_pipeline(cfg)
    monkeypatch.undo()
    assert ran(result) == [stage]
    assert snapshot(cache) == snapshot(warm)
    assert reads[stage] == inputs[stage]


@pytest.mark.parametrize("source", ["synthetic", "file"])
@pytest.mark.parametrize("value", [name for name, row in pipeline._VALUES.items() if row.load])
def test_value_reads_exactly_its_declared_artifacts(monkeypatch, warm_caches, source, value):
    """Loaded alone in a new run over a warm cache, with the memo empty, a
    value opens exactly the artifacts its ``_VALUES`` row reaches, those of
    the values it reads included: what its memo key comes from."""
    warm, cfg = warm_caches[source]
    run = pipeline._Run(cfg, pipeline._read_files(cfg))
    reads = record_reads(monkeypatch, str(warm))
    getattr(run, value)
    monkeypatch.undo()
    row = pipeline._VALUES[value]
    assert reads[None] == declared(row.reads, row.sections)


def test_stopword_file_with_a_byte_order_mark_reads_as_without_it(tmp_path):
    labels = fixture_labels(tmp_path / "labels.tsv")
    caches = {}
    for name, data in [("plain", b"war\nbach\n"), ("bom", b"\xef\xbb\xbfwar\nbach\n")]:
        stopwords = tmp_path / f"{name}.txt"
        stopwords.write_bytes(data)
        caches[name] = tmp_path / name
        run_pipeline(file_cfg(caches[name], FIXTURE_PATH, labels,
                              analyzer={"stopwords": str(stopwords)}))
    for artifact in ("vocab.tsv", "index.tsv"):
        assert (caches["bom"] / artifact).read_bytes() == (caches["plain"] / artifact).read_bytes()
    assert "war\t" not in (caches["bom"] / "vocab.tsv").read_text()


@pytest.mark.parametrize("lowercase, terms", [(True, ["cat", "dog"]),
                                               (False, ["cat", "the", "dog", "and"])])
def test_stopwords_are_folded_exactly_when_the_tokens_are(tmp_path, lowercase, terms):
    stopwords = tmp_path / "stopwords.txt"
    stopwords.write_text("The\nAnd\n")
    cfg = merge_config({"corpus": {"synthetic": dict(SYNTH)}, "cache": {"dir": str(tmp_path)},
                        "analyzer": {"stopwords": str(stopwords), "lowercase": lowercase}})
    analyzer = pipeline._Run(cfg, pipeline._read_files(cfg)).analyzer
    assert analyzer.analyze("The cat And the dog and") == terms


def test_corpus_and_labels_files_with_a_byte_order_mark_read_as_without_it(tmp_path):
    plain = {"corpus": FIXTURE_PATH, "labels": fixture_labels(tmp_path / "labels.tsv")}
    bom = {"corpus": tmp_path / "bom.jsonl", "labels": tmp_path / "bom.tsv"}
    for key, path in bom.items():
        with open(plain[key], "rb") as fh:
            path.write_bytes(b"\xef\xbb\xbf" + fh.read())
    caches = {"plain": tmp_path / "plain", "bom": tmp_path / "bom"}
    for name, files in (("plain", plain), ("bom", bom)):
        run_pipeline(file_cfg(caches[name], files["corpus"], files["labels"]))
    names = sorted(os.listdir(caches["plain"]))
    assert names == sorted(os.listdir(caches["bom"]))
    # the corpus, the labels, every vector set and both reports; only the
    # manifest, which holds the input files' digests, differs
    for name in names:
        same = (caches["bom"] / name).read_bytes() == (caches["plain"] / name).read_bytes()
        assert same == (name != "manifest.json"), name


def test_blank_lines_in_the_labels_file_are_skipped(tmp_path):
    """A labels file with an interior, a whitespace-only and a trailing blank
    line runs, keeps its own bytes as ``labels.tsv``, and gives the reports
    of the same labels without those lines."""
    plain = fixture_labels(tmp_path / "labels.tsv")
    lines = plain.read_text().splitlines(keepends=True)
    blank = tmp_path / "blank.tsv"
    blank.write_text("".join(lines[:3] + ["\n", " \t \n"] + lines[3:] + ["\n"]))
    caches = {"plain": tmp_path / "plain", "blank": tmp_path / "blank"}
    for name, labels in (("plain", plain), ("blank", blank)):
        run_pipeline(file_cfg(caches[name], FIXTURE_PATH, labels))
    assert (caches["blank"] / "labels.tsv").read_bytes() == blank.read_bytes()
    reports = [name for name in os.listdir(caches["plain"]) if name.startswith("report_")]
    assert len(reports) == 2
    for name in reports:
        assert (caches["blank"] / name).read_bytes() == (caches["plain"] / name).read_bytes()


def test_a_labels_error_counts_the_blank_lines_before_it():
    with pytest.raises(CorpusError, match=r"^labels line 4: .*'2 science'"):
        pipeline._parse_labels("0\ta\n\n \n2 science\n")


@pytest.mark.parametrize("pid", ["1_0", "+7", " 7", "7 ", "-1", "\uff17", "\u0667"])
def test_a_labels_page_id_other_than_ascii_digits_names_its_line(pid):
    """``int()`` reads each of these as a page id; a labels file means none."""
    with pytest.raises(CorpusError, match=r"^labels line 2: expected <page id><TAB><label>"):
        pipeline._parse_labels(f"0\ta\n{pid}\tb\n")


def test_vocab_lines_out_of_id_order_keep_each_df_with_its_id():
    voc = pipeline._vocab_from_tsv("b\t1\t5\na\t0\t3\n")
    assert voc.id_to_term == ("a", "b") and voc.doc_freq == (3, 5)


# -- what the manifest records ----------------------------------------------

def test_each_entry_is_the_digest_of_each_declared_input(tmp_path):
    """After a cold run, each stage's entry maps exactly the artifacts and
    config sections its row reaches to their digests, an artifact's to the
    SHA-256 of its bytes."""
    cache = tmp_path / "cache"
    run_pipeline(merge_config({"corpus": {"synthetic": dict(SYNTH)}, "cache": {"dir": str(cache)}}))
    manifest = json.loads((cache / "manifest.json").read_text())
    assert sorted(manifest) == sorted(ALL_STAGES)
    for name, reads, sections, _outputs, _compute in pipeline._STAGES:
        entry, inputs = manifest[name], declared(reads, sections)
        assert sorted(entry) == sorted(pipeline._reach(reads, sections) - pipeline._VALUES.keys())
        for artifact in inputs:
            assert entry[artifact] == hashlib.sha256((cache / artifact).read_bytes()).hexdigest()
        for section in entry.keys() - inputs:
            assert section in pipeline.DEFAULT_CONFIG and len(entry[section]) == 64


def test_lambda_rerun_changes_only_the_digests_it_touched(tmp_path):
    cache = tmp_path / "cache"
    user = {"corpus": {"synthetic": dict(SYNTH)}, "cache": {"dir": str(cache)}}
    run_pipeline(merge_config(user))
    before = json.loads((cache / "manifest.json").read_text())
    run_pipeline(merge_config(dict(user, strata={"lambdas": [0.1, 0.05, 0.025]})))
    after = json.loads((cache / "manifest.json").read_text())

    def changed(stage):
        return sorted(k for k in after[stage] if after[stage][k] != before[stage][k])
    assert [s for s in ALL_STAGES if after[s] != before[s]] == [
        "vectorize_stratified", "evaluate"]
    assert changed("vectorize_stratified") == ["strata"]
    assert changed("evaluate") == ["stratified.esvs"]


def test_all_hit_run_leaves_the_manifest_untouched(tmp_path):
    cache = tmp_path / "cache"
    cfg = merge_config({"corpus": {"synthetic": dict(SYNTH)}, "cache": {"dir": str(cache)}})
    run_pipeline(cfg)
    manifest = cache / "manifest.json"
    os.utime(manifest, ns=(10**9, 10**9))  # a rewrite now would give another mtime
    before = manifest.read_bytes()
    assert ran(run_pipeline(cfg)) == []
    assert manifest.read_bytes() == before
    assert manifest.stat().st_mtime_ns == 10**9


# -- the one rule: _Cache.kept -----------------------------------------------

DIGESTS = {"a.txt": "1" * 64, "eval": "2" * 64}


@pytest.fixture()
def found_cache(tmp_path):
    """A cache whose manifest, as found, records stage ``s`` with DIGESTS
    and one more key, and whose output ``out.txt`` exists."""
    (tmp_path / "out.txt").write_text("out")
    (tmp_path / "manifest.json").write_text(json.dumps({"s": dict(DIGESTS, extra="3" * 64)}))
    return pipeline._Cache(str(tmp_path))


@pytest.mark.parametrize("inputs", [{}, DIGESTS])
def test_absent_entry_keeps_nothing(found_cache, inputs):
    assert not found_cache.kept("t", inputs, [])
    assert not found_cache.kept("t", inputs, ["out.txt"])


def test_entry_that_holds_the_digests_and_more_keeps_them(found_cache):
    assert found_cache.kept("s", DIGESTS, ["out.txt"])
    assert found_cache.kept("s", {"eval": DIGESTS["eval"]}, ["out.txt"])


def test_one_changed_digest_or_missing_output_keeps_nothing(found_cache):
    assert not found_cache.kept("s", dict(DIGESTS, eval="4" * 64), ["out.txt"])
    assert not found_cache.kept("s", dict(DIGESTS, new="1" * 64), ["out.txt"])
    assert not found_cache.kept("s", DIGESTS, ["out.txt", "missing.txt"])


def test_kept_after_forget_keeps_nothing(found_cache):
    found_cache.forget("s")
    assert "s" not in found_cache.manifest
    with open(found_cache.manifest_path) as fh:
        assert "s" not in json.load(fh)
    assert not found_cache.kept("s", DIGESTS, ["out.txt"])
    assert not hasattr(found_cache, "found")
