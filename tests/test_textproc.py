import re

import pytest
from hypothesis import given, strategies as st

from wikistrata.textproc import Analyzer, build_vocabulary, default_stem
from wikistrata.corpus import parse_corpus


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
