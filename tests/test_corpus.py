import dataclasses
import itertools
import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from wikistrata import corpus as corpus_mod, pipeline
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

from oracles import parse_by_line, serialize_by_record, synthetic_wiki_by_methods


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


def _json_error(text: str) -> str:
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return str(exc)
    raise AssertionError(f"{text!r} is JSON")


@pytest.mark.parametrize("record", [
    '{"kind":"category","id":0,"title":"Root","parents":[]}{"kind":"page"}',  # two records
    '{"kind":"category","id":0,"title":"Root","parents":[]} x',  # trailing data
    '{"kind":"category","id":0,"title":"Root","parents":[]}\t, ',
    '\ufeff{"kind":"category","id":0,"title":"Root","parents":[]}',  # a byte order mark
], ids=["two-records", "trailing-data", "trailing-comma", "bom"])
def test_a_line_that_is_not_one_json_value_raises_json_loads_text(record):
    text = '{"kind":"meta","root":0,"version":1}\n' + record + "\n"
    message = f"line 2: invalid JSON: {_json_error(record.strip())}"
    with pytest.raises(CorpusError, match="^" + re.escape(message) + "$"):
        parse_corpus(text)


@given(st.text(alphabet='{}[]",:0123456789.eE+- \t\ufeffabnrtu\\', max_size=30))
def test_line_decoder_equals_json_loads(text):
    line = text.strip()
    try:
        want = ("value", json.loads(line))
    except json.JSONDecodeError as exc:
        want = ("error", str(exc))
    try:
        got = ("value", corpus_mod._decoded(line))
    except json.JSONDecodeError as exc:
        got = ("error", str(exc))
    assert got == want


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


# -- serialize_corpus refuses what its record templates would write wrong -----

_WRITABLE = CorpusStore((PageRecord(1, "P", "x", (0,), (2,)),),
                        (CategoryRecord(0, "Root", ()), CategoryRecord(2, "C", (0,))), 0)


def _with(category=None, page=None, **store):
    """``_WRITABLE`` with category 2, page 1 and the store's fields replaced."""
    c, p = _WRITABLE.categories[1], _WRITABLE.pages[0]
    return dataclasses.replace(
        _WRITABLE, categories=(_WRITABLE.categories[0], dataclasses.replace(c, **category or {})),
        pages=(dataclasses.replace(p, **page or {}),), **store)


@pytest.mark.parametrize("store, record, field, want", [
    (_with(root_category_id=False), "the meta record", "root_category_id", "an int"),
    (_with(root_category_id=0.0), "the meta record", "root_category_id", "an int"),
    (_with(category={"category_id": True}), "category True", "category_id", "an int"),
    (_with(category={"category_id": 2.0}), "category 2.0", "category_id", "an int"),
    (_with(category={"title": None}), "category 2", "title", "a str"),
    (_with(category={"parent_ids": (False,)}), "category 2", "parent_ids", "a tuple of ints"),
    (_with(category={"parent_ids": (0.0,)}), "category 2", "parent_ids", "a tuple of ints"),
    (_with(category={"parent_ids": [0]}), "category 2", "parent_ids", "a tuple of ints"),
    (_with(page={"page_id": True}), "page True", "page_id", "an int"),
    (_with(page={"page_id": 1.5}), "page 1.5", "page_id", "an int"),
    (_with(page={"page_id": "1"}), "page '1'", "page_id", "an int"),
    (_with(page={"title": b"P"}), "page 1", "title", "a str"),
    (_with(page={"text": 7}), "page 1", "text", "a str"),
    (_with(page={"category_ids": (True,)}), "page 1", "category_ids", "a tuple of ints"),
    (_with(page={"category_ids": (0, 2.0)}), "page 1", "category_ids", "a tuple of ints"),
    (_with(page={"out_links": (True,)}), "page 1", "out_links", "a tuple of ints"),
    (_with(page={"out_links": (2.5,)}), "page 1", "out_links", "a tuple of ints"),
], ids=["root=bool", "root=float", "category-id=bool", "category-id=float", "category-title=None",
        "parents=(bool,)", "parents=(float,)", "parents=list", "page-id=bool", "page-id=float",
        "page-id=str", "page-title=bytes", "text=int", "categories=(bool,)", "categories=(int,float)",
        "links=(bool,)", "links=(float,)"])
def test_serialize_refuses_a_field_its_template_would_write_wrong(store, record, field, want):
    """%d writes True as 1 and 1.5 as 1, where json.dumps wrote true and 1.5
    for parse_corpus to reject: each is refused, naming the record and field."""
    assert parse_corpus(serialize_corpus(_WRITABLE)) == _WRITABLE
    with pytest.raises(CorpusError, match=f"^cannot write {re.escape(record)}: {field} must be "
                                          f"{want}, got "):
        serialize_corpus(store)


def test_serialize_refuses_the_first_ill_typed_record_in_store_order():
    store = _with(category={"title": 3}, page={"page_id": True})
    with pytest.raises(CorpusError, match="^cannot write category 2: title must be a str"):
        serialize_corpus(store)


# -- parse_corpus against the line-by-line oracle ------------------------------

def _outcome(parse, text):
    try:
        return "store", parse(text)
    except CorpusError as exc:
        return "error", str(exc)


_HEAD = _META + "".join(json.dumps({"kind": "category", "id": i, "title": f"C{i}",
                                     "parents": [0] if i else []}) + "\n" for i in range(5))
_STRINGS = st.lists(st.sampled_from(["a", "Zeta", "é", '"', "\\", " "] * 4 + ["\ud800", "\x85", "\u2028"]),
                    min_size=1, max_size=4).map("".join)
# Categories 5 to 7 under the five of _HEAD, 8 never there; pages 0 to 4.
_RECORDS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("category"), "id": st.integers(5, 7),
                           "title": _STRINGS, "parents": st.lists(st.integers(0, 8), max_size=3)}),
    st.fixed_dictionaries({"kind": st.just("page"), "id": st.integers(0, 4), "title": _STRINGS,
                           "text": _STRINGS, "categories": st.lists(st.integers(0, 5), max_size=3),
                           "links": st.lists(st.integers(0, 6), max_size=3)}))
# One fault each: (key, value) to set, or a key to drop.
_FAULTS = [("id", True), ("id", 1.0), ("id", -1), ("id", 2**63), ("id", 2**63 - 1), ("id", "1"),
           ("parents", [0, 2**63]), ("categories", [False]), ("links", [1.5]), ("title", ""),
           ("title", "é\ud800"), ("text", None), ("text", "a\ud800"), ("kind", "widget"),
           "id", "title", "text", "parents", "links"]
_BROKEN_LINES = ["not json", '{"kind": "category", "id": 1', "\ufeff" + _ROOT.strip(),
                 _ROOT.strip() + "   x", _ROOT.strip() + " \t{}", "", "   ", "\t", "[]", '{"id": 1}',
                 _META.strip(), '{"kind": "meta", "root": 0, "version": 2}']


@st.composite
def _line(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(_BROKEN_LINES))
    rec = draw(_RECORDS)
    if draw(st.integers(0, 7)) == 0:
        fault = draw(st.sampled_from(_FAULTS))
        if isinstance(fault, tuple):
            rec[fault[0]] = fault[1]
        else:
            rec.pop(fault, None)
    # raw, a \x85 or \u2028 in a string breaks the line for str.splitlines()
    return json.dumps(rec, ensure_ascii=draw(st.integers(0, 3)) > 0)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 5), st.lists(_line(), max_size=8), st.booleans())
def test_parser_equals_the_line_by_line_oracle(head, lines, as_list):
    """Each drawn corpus reads to the same store, or fails with the same
    message, through parse_corpus and the loop it replaced: bad JSON, a BOM
    or data after spaces mid-file, ids that are bools, floats, negative or
    2**63, lone surrogates, duplicate ids, a record before the header, an
    unknown kind, a missing key, blank lines, and \\x85 or \\u2028 inside
    strings, written raw (which str.splitlines() breaks) or escaped."""
    text = (_HEAD if head else "") + "\n".join(lines) + "\n"
    corpus = text.split("\n") if as_list else text
    assert _outcome(parse_corpus, corpus) == _outcome(parse_by_line, corpus)


def test_parser_equals_the_line_by_line_oracle_on_fixture_and_synthetic(fixture_text):
    synthetic = serialize_corpus(gen_synthetic_wiki(3, 4, 5, 6, 3)[0])
    for text in (fixture_text, synthetic):
        assert parse_corpus(text) == parse_by_line(text)
