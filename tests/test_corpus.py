import dataclasses
import itertools
import json
import math

import pytest
from hypothesis import given, strategies as st

from wikistrata import pipeline
from wikistrata.corpus import (
    CategoryRecord,
    CorpusError,
    CorpusStore,
    FilterConfig,
    PageRecord,
    filter_pages,
    gen_synthetic_wiki,
    parse_corpus,
    serialize_corpus,
)
from wikistrata.textproc import Analyzer

from oracles import serialize_by_record, synthetic_wiki_by_methods


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
    ([_META, _ROOT, dict(_PAGE, title=5)], 3, "page 1: 'title' must be a non-empty string, got 5"),
    ([_META, _ROOT, dict(_PAGE, title=None)], 3,
     "page 1: 'title' must be a non-empty string, got None"),
    ([_META, _ROOT, dict(_PAGE, title=["a"])], 3,
     r"page 1: 'title' must be a non-empty string, got \['a'\]"),
    ([_META, _ROOT, dict(_PAGE, title="")], 3, "page 1: 'title' must be a non-empty string, got ''"),
    ([_META, '{"kind":"category","id":0,"title":null,"parents":[]}\n'], 2,
     "category 0: 'title' must be a non-empty string, got None"),
], ids=["root=float", "root=str", "page-id=float", "page-id=bool", "page-id=str", "text=null",
        "text=int", "categories=str", "categories=[bool]", "links=[float,str]", "links=object",
        "category-id=float", "parents=[str]", "title=int", "title=null", "title=[str]", "title=''",
        "category-title=null"])
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


_TOP = 2**63 - 1  # the largest id an int64 array holds


def _top_ids_corpus(line=None, field=None):
    """A corpus whose every id field holds ``_TOP``; on line ``line``,
    ``field`` holds ``_TOP + 1`` instead."""
    records = [
        {"kind": "meta", "root": _TOP, "version": 1},
        {"kind": "category", "id": _TOP, "title": "Root", "parents": []},
        {"kind": "category", "id": 0, "title": "C", "parents": [_TOP]},
        dict(_PAGE, id=_TOP, categories=[_TOP, 0], links=[0, _TOP]),
    ]
    if line is not None:
        rec = records[line - 1]
        rec[field] = [_TOP + 1] if isinstance(rec[field], list) else _TOP + 1
    return "".join(json.dumps(r) + "\n" for r in records)


@pytest.mark.parametrize("line, field", [(1, "root"), (2, "id"), (3, "parents"), (4, "id"),
                                         (4, "categories"), (4, "links")])
def test_an_id_at_2_63_is_rejected_naming_the_line(line, field):
    """The cache reads ids back into int64 arrays, which 2**63 overflows."""
    store = parse_corpus(_top_ids_corpus())
    assert store.root_category_id == store.pages[0].page_id == _TOP
    assert store.pages[0].category_ids == (0, _TOP) and store.pages[0].out_links == (0,)
    with pytest.raises(CorpusError, match=f"^line {line}: malformed .* record: '{field}' "
                                          f".*{2**63}.* not below 2\\*\\*63$"):
        parse_corpus(_top_ids_corpus(line, field))


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
    run = pipeline._Run(cfg, pipeline._read_files(cfg))
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


_BAD_PARAMS = [
    ("n_topics", 0), ("n_topics", 2.5), ("n_topics", True), ("pages_per_topic", 0),
    ("pages_per_topic", "3"), ("vocab_per_topic", 0), ("depth", 0), ("depth", 2.0),
    ("tokens_per_page", -3), ("tokens_per_page", None), ("shared_vocab", -2),
    ("junk_words_per_page", -1), ("junk_repeats", -1), ("junk_repeats", True),
    ("crosstalk", -0.1), ("crosstalk", 1.5), ("crosstalk", math.nan), ("crosstalk", "0.1"),
    ("crosstalk", True),
]


@pytest.mark.parametrize("name, value", _BAD_PARAMS,
                         ids=[f"{name}={value!r}" for name, value in _BAD_PARAMS])
def test_synthetic_rejects_each_bad_param_naming_it(name, value):
    """A count must be an int (not a bool) at or above its floor, 1 for the
    four structural counts and 0 for the rest; crosstalk a number in [0, 1]."""
    params = dict(seed=0, n_topics=2, pages_per_topic=2, vocab_per_topic=3, depth=2)
    with pytest.raises(ValueError, match=f"^{name} must be "):
        gen_synthetic_wiki(**dict(params, **{name: value}))


@pytest.mark.parametrize("seed", range(4))
def test_synthetic_draws_equal_the_random_method_oracle(seed):
    """The generator's straight getrandbits draws give the corpus and labels
    that random.Random's choice, randrange and shuffle give, over vocabulary
    sizes at and around powers of two (n = 1 included) and every branch."""
    grid = itertools.product([1, 2, 3, 8], [1, 2, 3, 4, 5, 8], [0, 1, 10], [0, 0.55, 1],
                             [0, 1, 40], [0, 3])
    for n_topics, vocab, shared, crosstalk, tokens, junk in grid:
        params = dict(seed=seed, n_topics=n_topics, pages_per_topic=2, vocab_per_topic=vocab,
                      depth=3, tokens_per_page=tokens, shared_vocab=shared,
                      crosstalk=crosstalk, junk_words_per_page=junk, junk_repeats=2)
        assert gen_synthetic_wiki(**params) == synthetic_wiki_by_methods(**params), params


_AWKWARD = ['}, {"kind": "page", "id": 9}', 'say "hi"', "back\\slash\\", "line\u2028sep",
            "next\x85line", "caf\u00e9 na\u00efve"]


def _awkward_store(with_pages: bool = True) -> CorpusStore:
    categories = [CategoryRecord(0, "Root", ())]
    pages = []
    if with_pages:
        categories += [CategoryRecord(i + 1, title, (0,)) for i, title in enumerate(_AWKWARD)]
        pages = [PageRecord(i, title, " ".join(reversed(_AWKWARD[:i + 1])), (i + 1,),
                            () if i == 2 else (i + 1, i + 7))
                 for i, title in enumerate(_AWKWARD)]
    return CorpusStore(tuple(pages), tuple(categories), 0)


@pytest.mark.parametrize("with_pages", [True, False], ids=["awkward-strings", "root-only"])
def test_serialize_equals_the_per_record_oracle_and_parses_back(with_pages):
    """Titles and texts holding the record separator, quotes, backslashes
    and line breaks, and a page without links, are written as a per-record
    json.dumps writes them, one line each, and read back to the same store."""
    store = _awkward_store(with_pages)
    text = serialize_corpus(store)
    assert text == serialize_by_record(store)
    assert len(text.splitlines()) == 1 + len(store.categories) + store.n_pages
    assert parse_corpus(text) == store


_TEXT = st.lists(st.characters(blacklist_categories=("Cs",)) | st.sampled_from(
    ['}, {"kind": ', '"', "\\", "\u2028", "\x85", "{", "}"]), min_size=1, max_size=8).map("".join)


@given(st.lists(st.tuples(_TEXT, _TEXT, st.booleans()), max_size=4))
def test_serialize_equals_the_per_record_oracle_on_any_strings(records):
    categories = (CategoryRecord(0, "Root", ()),) + tuple(
        CategoryRecord(i + 1, title, (0,)) for i, (title, _text, _linked) in enumerate(records))
    pages = tuple(PageRecord(i, title, text, (i + 1,), (i + 1,) if linked else ())
                  for i, (title, text, linked) in enumerate(records))
    store = CorpusStore(pages, categories, 0)
    text = serialize_corpus(store)
    assert text == serialize_by_record(store)
    assert parse_corpus(text) == store


def test_serialize_equals_the_per_record_oracle_on_fixture_and_synthetic(fixture_store):
    synthetic, _labels = gen_synthetic_wiki(3, 4, 5, 6, 3)
    for store in (fixture_store, synthetic):
        assert serialize_corpus(store) == serialize_by_record(store)
