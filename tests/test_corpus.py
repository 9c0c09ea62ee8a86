import dataclasses
import json

import pytest

from wikistrata import pipeline
from wikistrata.corpus import (
    CorpusError,
    FilterConfig,
    PageRecord,
    filter_pages,
    gen_synthetic_wiki,
    parse_corpus,
    serialize_corpus,
)
from wikistrata.textproc import Analyzer


def test_minimal_valid_corpus():
    store = parse_corpus(
        '{"kind":"meta","root":0,"version":1}\n'
        '{"kind":"category","id":0,"title":"Root","parents":[]}\n'
    )
    assert store.n_pages == 0
    assert len(store.categories) == 1


def test_dangling_category_reference_names_the_id():
    text = (
        '{"kind":"meta","root":0,"version":1}\n'
        '{"kind":"category","id":0,"title":"Root","parents":[]}\n'
        '{"kind":"page","id":1,"title":"P","text":"x","categories":[99],"links":[]}\n'
    )
    with pytest.raises(CorpusError, match="99"):
        parse_corpus(text)


def test_malformed_line_reports_line_number():
    text = '{"kind":"meta","root":0,"version":1}\nnot json\n'
    with pytest.raises(CorpusError, match="line 2"):
        parse_corpus(text)


def test_duplicate_page_id_rejected():
    text = (
        '{"kind":"meta","root":0,"version":1}\n'
        '{"kind":"category","id":0,"title":"Root","parents":[]}\n'
        '{"kind":"page","id":1,"title":"A","text":"x","categories":[],"links":[]}\n'
        '{"kind":"page","id":1,"title":"B","text":"y","categories":[],"links":[]}\n'
    )
    with pytest.raises(CorpusError, match="duplicate page id 1"):
        parse_corpus(text)


def test_missing_root_rejected():
    text = '{"kind":"meta","root":7,"version":1}\n{"kind":"category","id":0,"title":"R","parents":[]}\n'
    with pytest.raises(CorpusError, match="root"):
        parse_corpus(text)


_META = '{"kind":"meta","root":0,"version":1}\n'
_ROOT = '{"kind":"category","id":0,"title":"Root","parents":[]}\n'
_PAGE = {"kind": "page", "id": 1, "title": "P", "text": "x", "categories": [0], "links": []}


@pytest.mark.parametrize("lines, line, message", [
    (['{"kind":"meta","root":0.9,"version":1}\n', _ROOT], 1, "'root' must be an integer"),
    (['{"kind":"meta","root":"0","version":1}\n', _ROOT], 1, "'root' must be an integer"),
    ([_META, _ROOT, dict(_PAGE, id=1.7)], 3, "'id' must be an integer"),
    ([_META, _ROOT, dict(_PAGE, id=True)], 3, "'id' must be an integer"),
    ([_META, _ROOT, dict(_PAGE, id="1")], 3, "'id' must be an integer"),
    ([_META, _ROOT, dict(_PAGE, text=None)], 3, "'text' must be a string"),
    ([_META, _ROOT, dict(_PAGE, text=7)], 3, "'text' must be a string"),
    ([_META, _ROOT, dict(_PAGE, categories="0")], 3, "'categories' must be a list of integers"),
    ([_META, _ROOT, dict(_PAGE, categories=[False])], 3,
     "'categories' must be a list of integers"),
    ([_META, _ROOT, dict(_PAGE, links=[2.5, "4"])], 3, "'links' must be a list of integers"),
    ([_META, _ROOT, dict(_PAGE, links={"2": 1})], 3, "'links' must be a list of integers"),
    ([_META, '{"kind":"category","id":0.0,"title":"Root","parents":[]}\n'], 2,
     "'id' must be an integer"),
    ([_META, '{"kind":"category","id":0,"title":"Root","parents":["1"]}\n'], 2,
     "'parents' must be a list of integers"),
], ids=["root=float", "root=str", "page-id=float", "page-id=bool", "page-id=str", "text=null",
        "text=int", "categories=str", "categories=[bool]", "links=[float,str]", "links=object",
        "category-id=float", "parents=[str]"])
def test_fields_are_taken_only_as_their_json_type(lines, line, message):
    """No field is coerced: not root 0.9 to 0, id 1.7 to 1, text null to
    'None', categories "0" to (0,), nor links [2.5, "4"] to (2, 4)."""
    text = "".join(r if isinstance(r, str) else json.dumps(r) + "\n" for r in lines)
    with pytest.raises(CorpusError, match=f"line {line}: .*{message}"):
        parse_corpus(text)


@pytest.mark.parametrize("lines, line, field", [
    ([_META, _ROOT, dict(_PAGE, text="a\ud800b")], 3, "text"),
    ([_META, _ROOT, dict(_PAGE, title="\udfff")], 3, "title"),
    ([_META, json.dumps({"kind": "category", "id": 0, "title": "R\udc80", "parents": []})], 2,
     "title"),
], ids=["page-text", "page-title", "category-title"])
def test_lone_surrogate_is_rejected_naming_the_line(lines, line, field):
    """A JSON escape can hold a lone surrogate, which serialize_corpus could
    not write out as UTF-8; an escaped pair is one character and stays."""
    text = "".join(r if isinstance(r, str) else json.dumps(r) + "\n" for r in lines)
    assert "\\ud" in text  # escaped, as a file holds it
    with pytest.raises(CorpusError, match=f"line {line}: .*'{field}' holds the lone surrogate"):
        parse_corpus(text)
    paired = [_META, _ROOT, json.dumps(dict(_PAGE, text="a\U0001f600b"))]
    assert parse_corpus("".join(paired)).pages[0].text == "a\U0001f600b"


def test_fixture_counts_match_raw_line_scan(fixture_text, fixture_store):
    # Independent oracle: count records straight off the file lines.
    n_pages = n_cats = n_memberships = 0
    for line in fixture_text.splitlines():
        rec = json.loads(line)
        if rec["kind"] == "page":
            n_pages += 1
            n_memberships += len(set(rec["categories"]))
        elif rec["kind"] == "category":
            n_cats += 1
    assert fixture_store.n_pages == n_pages == 8
    assert len(fixture_store.categories) == n_cats == 5
    assert sum(len(p.category_ids) for p in fixture_store.pages) == n_memberships == 13


def test_roundtrip_is_identity(fixture_store):
    text = serialize_corpus(fixture_store)
    assert serialize_corpus(parse_corpus(text)) == text


def test_filter_all_zero_thresholds_is_identity(fixture_store, analyzer):
    out = filter_pages(fixture_store, FilterConfig(0, 0, 0), analyzer)
    assert [p.page_id for p in out.pages] == [p.page_id for p in fixture_store.pages]


def test_zero_distinct_term_threshold_analyzes_no_page(fixture_store):
    class RefusingAnalyzer:
        def analyze(self, text):
            raise AssertionError(f"analyzed {text!r}")

    out = filter_pages(fixture_store, FilterConfig(), RefusingAnalyzer())
    assert serialize_corpus(out) == serialize_corpus(fixture_store)


def test_default_filter_config_is_the_pipelines_default(tmp_path):
    synthetic = dict(seed=0, n_topics=3, pages_per_topic=15, vocab_per_topic=20, depth=1)
    cfg = pipeline.merge_config({"corpus": {"synthetic": synthetic},
                                 "cache": {"dir": str(tmp_path)}})
    run = pipeline._Run(cfg, pipeline._Cache(str(tmp_path)), pipeline._read_files(cfg))
    assert run.filter_cfg == FilterConfig()
    store, _labels = gen_synthetic_wiki(**synthetic)
    assert filter_pages(store, FilterConfig(), Analyzer()).n_pages == store.n_pages == 45


def test_filter_fixture_against_predicate_oracle(fixture_store, analyzer):
    cfg = FilterConfig(min_distinct_terms=3, min_in_links=1, min_out_links=1)
    # Oracle: apply the three predicates independently of filter_pages.
    in_deg = {p.page_id: 0 for p in fixture_store.pages}
    for p in fixture_store.pages:
        for t in p.out_links:
            in_deg[t] += 1
    expect = {
        p.page_id
        for p in fixture_store.pages
        if len(set(analyzer.analyze(p.text))) >= 3
        and in_deg[p.page_id] >= 1
        and len(p.out_links) >= 1
    }
    out = filter_pages(fixture_store, cfg, analyzer)
    assert {p.page_id for p in out.pages} == expect
    # The fixture is built so exactly the two short pages fall out.
    assert {p.page_id for p in fixture_store.pages} - expect == {6, 7}


@pytest.mark.parametrize("prefixes, dropped", [
    ((), {6, 8}),
    (("Music",), {0, 6, 8}),
    (("Music", "Hist"), {0, 1, 5, 6, 8}),
    (("Physics", "Science"), {2, 3, 4, 6, 8}),
], ids=["none", "music", "music-history", "science"])
def test_filter_exclusion_against_predicate_oracle(fixture_store, analyzer, prefixes, dropped):
    # page 6 has one distinct term; page 8 is in no category, so no
    # arborescence reaches it
    uncategorized = PageRecord(8, "Loose", "loose page text", (), (0,))
    store = dataclasses.replace(fixture_store, pages=fixture_store.pages + (uncategorized,))
    cfg = FilterConfig(min_distinct_terms=2, excluded_title_prefixes=prefixes)
    # Oracle: the categories left to each page, and the predicates one by one.
    excluded = {c.category_id for c in store.categories
                if any(c.title.startswith(prefix) for prefix in prefixes)}
    expect = {}
    for p in store.pages:
        left = tuple(c for c in p.category_ids if c not in excluded)
        if left and len(set(analyzer.analyze(p.text))) >= 2:
            expect[p.page_id] = left
    out = filter_pages(store, cfg, analyzer)
    assert {p.page_id: p.category_ids for p in out.pages} == expect
    assert {p.page_id for p in store.pages} - set(expect) == dropped
    assert out.categories == store.categories


def test_filter_idempotent(fixture_store, analyzer):
    cfg = FilterConfig(3, 1, 1)
    once = filter_pages(fixture_store, cfg, analyzer)
    twice = filter_pages(once, cfg, analyzer)
    assert serialize_corpus(once) == serialize_corpus(twice)


@pytest.mark.parametrize("bump", ["terms", "in", "out"])
def test_filter_monotone_in_thresholds(fixture_store, analyzer, bump):
    base = FilterConfig(2, 1, 1)
    raised = FilterConfig(
        base.min_distinct_terms + (2 if bump == "terms" else 0),
        base.min_in_links + (1 if bump == "in" else 0),
        base.min_out_links + (1 if bump == "out" else 0),
    )
    small = {p.page_id for p in filter_pages(fixture_store, raised, analyzer).pages}
    large = {p.page_id for p in filter_pages(fixture_store, base, analyzer).pages}
    assert small <= large


def test_synthetic_minimal_structure():
    store, labels = gen_synthetic_wiki(1, 2, 1, 5, 1)
    assert store.n_pages == 2
    assert len(store.categories) == 3  # root + one per topic
    assert set(labels.values()) == {"topic0", "topic1"}


def test_synthetic_same_seed_byte_identical():
    a, _ = gen_synthetic_wiki(5, 3, 4, 10, 2)
    b, _ = gen_synthetic_wiki(5, 3, 4, 10, 2)
    assert serialize_corpus(a) == serialize_corpus(b)


def test_synthetic_different_seed_differs():
    a, _ = gen_synthetic_wiki(5, 3, 4, 10, 2)
    b, _ = gen_synthetic_wiki(6, 3, 4, 10, 2)
    assert serialize_corpus(a) != serialize_corpus(b)


def test_synthetic_dominant_vocabulary_matches_label():
    store, labels = gen_synthetic_wiki(7, 4, 50, 40, 2)
    a = Analyzer(stemmer=lambda w: w)
    for page in store.pages:
        counts = {}
        for tok in a.analyze(page.text):
            if tok.startswith("t") and "w" in tok:
                topic = tok.split("w")[0][1:]
                if topic.isdigit():
                    counts[int(topic)] = counts.get(int(topic), 0) + 1
        dominant = max(counts, key=lambda t: counts[t])
        assert labels[page.page_id] == f"topic{dominant}"


def test_synthetic_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_synthetic_wiki(1, 0, 1, 1, 1)
