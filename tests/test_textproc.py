import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from wikistrata import esa, textproc
from wikistrata.textproc import Analyzer, Vocabulary, build_vocabulary, default_stem
from wikistrata.corpus import parse_corpus

from oracles import index_from_counts, vocabulary_from_terms


def test_empty_input():
    assert Analyzer().analyze("") == []


def test_all_stopwords():
    a = Analyzer(stopword_set=frozenset({"the"}))
    assert a.analyze("the The THE") == []


def test_reference_pipeline_oracle():
    # Oracle: re-apply the three steps with independent code.
    text = "The Cats chased two mice; dogs watched."
    a = Analyzer(stopword_set=frozenset({"the", "two"}))
    tokens = [t.lower() for t in re.findall(r"[0-9a-zA-Z]+", text)]
    expected = [default_stem(t) for t in tokens if t not in {"the", "two"}]
    assert a.analyze(text) == expected


def test_order_and_duplicates_preserved():
    assert Analyzer().analyze("b a b") == ["b", "a", "b"]


def test_digits_kept_and_underscore_splits():
    assert Analyzer().analyze("mai-juin 2001 a_b") == ["mai", "juin", "2001", "a", "b"]


def test_ascii_table_keeps_exactly_the_token_regexs_ascii_characters():
    for b in range(128):
        kept = textproc._TOKEN_RE.fullmatch(chr(b)) is not None
        assert textproc._ASCII_SPACES[b] == (b if kept else ord(" ")), b


# ASCII and non-ASCII separators split() and the regex may see differently,
# next to letters and digits with and without accents
_MIXED = "aZ09_ -\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u2028\u2029\u3000éÉçœß²½٣"


@given(st.text(st.sampled_from("aZ09_ -.\t\x0b\x1c\x1d\x1e\x1f")) | st.text(st.sampled_from(_MIXED))
       | st.text())
@example("a_b 2001\x0bc\x1cd\x1fe")
@example("mai-juin\x85caf\u00e9\xa0na\u00efve\u2028x_y")
def test_tokens_equal_the_token_regex(text):
    assert textproc._tokens(text) == textproc._TOKEN_RE.findall(text)


@given(st.text(max_size=200))
def test_analyze_idempotent_on_own_output(text):
    a = Analyzer()
    once = a.analyze(text)
    assert a.analyze(" ".join(once)) == once


@given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), max_size=30))
def test_default_stemmer_idempotent(word):
    assert default_stem(default_stem(word.lower())) == default_stem(word.lower())


def _one_page_store(text):
    import json
    lines = [
        '{"kind":"meta","root":0,"version":1}',
        '{"kind":"category","id":0,"title":"Root","parents":[]}',
        json.dumps({"kind": "page", "id": 0, "title": "P", "text": text,
                    "categories": [], "links": []}),
    ]
    return parse_corpus("\n".join(lines))


def test_vocabulary_single_page():
    voc = build_vocabulary(_one_page_store("a b a"), Analyzer(stemmer=lambda w: w), min_df=1)
    assert set(voc.term_to_id) == {"a", "b"}
    assert voc.df(voc.term_to_id["a"]) == 1
    assert voc.df(voc.term_to_id["b"]) == 1


def test_vocabulary_min_df_threshold():
    voc = build_vocabulary(_one_page_store("x y"), Analyzer(stemmer=lambda w: w), min_df=2)
    assert "x" not in voc


def test_vocabulary_fixture_df_oracle(fixture_store, analyzer):
    voc = build_vocabulary(fixture_store, analyzer, min_df=1)
    # Oracle: brute-force per-page set membership counts.
    for term, tid in voc.term_to_id.items():
        df = sum(
            1 for p in fixture_store.pages if term in set(analyzer.analyze(p.text))
        )
        assert voc.df(tid) == df


def test_vocabulary_ids_lexicographic(fixture_store, analyzer):
    voc = build_vocabulary(fixture_store, analyzer, min_df=1)
    assert list(voc.id_to_term) == sorted(voc.id_to_term)


def test_vocabulary_stable_across_runs(fixture_store, analyzer):
    a = build_vocabulary(fixture_store, analyzer, min_df=1)
    b = build_vocabulary(fixture_store, analyzer, min_df=1)
    assert a.term_to_id == b.term_to_id
    assert a.doc_freq == b.doc_freq


def test_empty_corpus_rejected():
    store = parse_corpus(
        '{"kind":"meta","root":0,"version":1}\n'
        '{"kind":"category","id":0,"title":"Root","parents":[]}\n'
    )
    with pytest.raises(ValueError):
        build_vocabulary(store, Analyzer(), 1)


def _identity(word):
    return word


def _pages(texts):
    return SimpleNamespace(pages=[SimpleNamespace(page_id=10 * i, text=t)
                                  for i, t in enumerate(texts)])


# words that fold, stem and split in every way the analyzer knows
_WORDS = st.sampled_from(["İstanbul", "ẞ", "ß", "The", "the", "cats", "cat", "Cats", "glasses",
                          "2001", "a_b", "mai-juin", "é", "É", "x", "_", " ", "\t", ".", ""])
_TEXTS = st.lists(st.lists(_WORDS, max_size=8).map(" ".join) | st.text(max_size=30),
                  min_size=1, max_size=6)


@given(texts=_TEXTS, stopwords=st.sets(st.sampled_from(["the", "a", "x", "ß", "2001"])),
       fold=st.booleans(), identity=st.booleans(), min_df=st.integers(1, 3))
@example(texts=["İstanbul ẞ", "istanbul ß"], stopwords=set(), fold=True, identity=False, min_df=1)
@example(texts=["The cat", "the cats"], stopwords={"the"}, fold=True, identity=False, min_df=1)
@example(texts=["2001 a_b", "", "the a THE"], stopwords={"the", "a"}, fold=True, identity=False,
         min_df=1)
@example(texts=["The Cats cats", "cats"], stopwords={"the"}, fold=False, identity=True, min_df=2)
def test_term_table_matches_the_per_page_oracle(texts, stopwords, fold, identity, min_df):
    """build_vocabulary and build_index, which share one _term_counts pass,
    against Counter(analyze(text)) per page, vocabulary_from_terms and
    index_from_counts."""
    analyzer = Analyzer(stopword_set=frozenset(stopwords), lowercase_fold=fold,
                        stemmer=_identity if identity else default_stem)
    store = _pages(texts)
    counts = {p.page_id: Counter(analyzer.analyze(p.text)) for p in store.pages}
    table = textproc._term_counts(analyzer, texts)
    assert list(table.terms) == sorted(set().union(*counts.values()))
    for i, c in enumerate(counts.values()):
        a, b = table.row_ptr[i], table.row_ptr[i + 1]
        assert np.all(np.diff(table.term_ids[a:b]) > 0)
        assert {table.terms[t]: f for t, f in zip(table.term_ids[a:b], table.counts[a:b])} == c
    want = vocabulary_from_terms(counts.values(), min_df)
    voc = build_vocabulary(store, analyzer, min_df)
    assert voc == want and voc.id_to_term == want.id_to_term and voc.doc_freq == want.doc_freq
    # the vocabulary's ids, and the same ids in reverse term order
    n = len(want)
    backwards = Vocabulary(term_to_id={t: n - 1 - i for t, i in want.term_to_id.items()},
                           doc_freq=want.doc_freq[::-1])
    for vocabulary in (want, backwards):
        index, oracle = esa.build_index(store, analyzer, vocabulary), index_from_counts(
            counts, vocabulary)
        assert index == oracle
        assert index.tfidfs.tobytes() == oracle.tfidfs.tobytes()
        for got, expect in zip(index.term_columns, oracle.term_columns):
            assert got.tobytes() == expect.tobytes()


@given(texts=_TEXTS, data=st.data())
@example(texts=["a b", "c"], data=None)
def test_kept_rows_of_a_term_table_are_the_table_of_their_texts(texts, data):
    """What the filter stage hands to vocab and index: the kept rows of the
    raw pages' table, over its terms, give the vocabulary and the index of
    the pass over the kept texts at any min_df, empty rows and no row at
    all included."""
    rows = ([1] if data is None else
            sorted(data.draw(st.sets(st.integers(0, len(texts) - 1)), label="rows")))
    table = textproc._term_counts(Analyzer(), texts)
    got = textproc._table_rows(table, np.array(rows, np.int64))
    want = textproc._term_counts(Analyzer(), [texts[i] for i in rows])
    assert got.terms == table.terms
    for name in ("row_ptr", "term_ids", "counts"):
        assert getattr(got, name).dtype == np.int64, name
    if not rows:
        for t in (got, want):
            with pytest.raises(ValueError, match="empty corpus"):
                textproc._vocabulary_from_table(t)
        return
    page_ids = tuple(range(len(rows)))
    for min_df in (-1, 0, 1, 2):
        voc = textproc._vocabulary_from_table(got, min_df)
        assert voc == textproc._vocabulary_from_table(want, min_df)
        assert esa._index_from_table(got, page_ids, voc) == esa._index_from_table(
            want, page_ids, voc)


def test_build_index_counts_the_last_page_of_an_id():
    store = SimpleNamespace(pages=[SimpleNamespace(page_id=1, text="b"),
                                   SimpleNamespace(page_id=0, text="a"),
                                   SimpleNamespace(page_id=1, text="a a")])
    voc = build_vocabulary(store, Analyzer(), 1)
    assert esa.build_index(store, Analyzer(), voc) == index_from_counts(
        {0: {"a": 1}, 1: {"a": 2}}, voc)
