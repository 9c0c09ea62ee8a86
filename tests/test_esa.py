import math
import random

import numpy as np
import pytest

from wikistrata.corpus import parse_corpus
from wikistrata.esa import (
    SparseVector,
    build_index,
    document_vector,
    load_vector_set,
    relatedness,
    save_vector_set,
    tfidf,
    word_vector,
)
from wikistrata.textproc import Analyzer, build_vocabulary

from oracles import load_vector, save_vector


def dense_matrix(index):
    """Independent oracle: the term x concept tfidf matrix, recomputed densely."""
    T = len(index.vocabulary)
    N = index.n_pages
    m = np.zeros((T, N))
    for col, pid in enumerate(index.page_ids):
        raw = np.zeros(T)
        for tid, f in index.page_term_freqs[pid].items():
            raw[tid] = (1 + math.log(f)) * math.log(N / index.vocabulary.df(tid))
        norm = np.linalg.norm(raw)
        if norm > 0:
            raw /= norm
        m[:, col] = raw
    return m


def page_rows(index):
    """Each page's unit tfidf row in term space, read back out of the
    index's term-major columns: {page id: {term id: weight}}."""
    ptr, concepts, weights = index.term_columns
    rows = {pid: {} for pid in index.page_ids}
    for tid in range(len(index.vocabulary)):
        for c, w in zip(concepts[ptr[tid]:ptr[tid + 1]].tolist(),
                        weights[ptr[tid]:ptr[tid + 1]].tolist()):
            rows[index.page_ids[c]][tid] = w
    return rows


def to_dense(vec, size):
    out = np.zeros(size)
    for d, w in zip(vec.dims, vec.weights):
        out[d] = w
    return out


class TestTfidf:
    def test_idf_vanishes_when_everywhere(self):
        assert tfidf(1, 10, 10) == 0.0

    def test_unit_factors(self):
        assert tfidf(1, 1, math.e) == pytest.approx(1.0)

    def test_direct_formula_evaluation(self):
        # (1 + ln 3) * ln 5, evaluated independently
        assert tfidf(3, 2, 10) == pytest.approx((1 + math.log(3)) * math.log(5), abs=1e-12)
        assert tfidf(3, 2, 10) == pytest.approx(3.37759, abs=1e-5)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            tfidf(0, 1, 10)
        with pytest.raises(ValueError):
            tfidf(1, 0, 10)
        with pytest.raises(ValueError):
            tfidf(1, 11, 10)

    def test_monotone_in_f_and_df(self):
        rng = random.Random(0)
        for _ in range(200):
            n = rng.randint(2, 1000)
            df = rng.randint(1, n - 1)
            f = rng.randint(1, 50)
            assert tfidf(f + 1, df, n) > tfidf(f, df, n)
            assert tfidf(f, df + 1, n) < tfidf(f, df, n)


class TestSparseVector:
    def test_sorted_dims_enforced(self):
        with pytest.raises(ValueError):
            SparseVector((2, 1), (0.5, 0.5))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            SparseVector((0,), (-1.0,))

    def test_dot_and_cosine(self):
        a = SparseVector.from_dict({0: 1.0, 2: 2.0})
        b = SparseVector.from_dict({2: 3.0, 5: 1.0})
        assert a.dot(b) == pytest.approx(6.0)
        assert a.cosine(a) == pytest.approx(1.0)

    def test_binary_roundtrip(self, tmp_path):
        v = SparseVector.from_dict({3: 0.25, 10: 1.5, 999: 1e-9})
        path = tmp_path / "v.esav"
        save_vector(path, v)
        assert load_vector(path) == v

    def test_vector_set_roundtrip(self, tmp_path):
        vs = {
            1: SparseVector.from_dict({0: 1.0}),
            7: SparseVector.zero(),
        }
        path = tmp_path / "s.esvs"
        save_vector_set(path, vs)
        assert load_vector_set(path) == vs


class TestBuildIndex:
    def test_single_page_zero_vector_reported(self):
        store = parse_corpus(
            '{"kind":"meta","root":0,"version":1}\n'
            '{"kind":"category","id":0,"title":"Root","parents":[]}\n'
            '{"kind":"page","id":0,"title":"P","text":"a b c","categories":[],"links":[]}\n'
        )
        a = Analyzer()
        voc = build_vocabulary(store, a, 1)
        index = build_index(store, a, voc)
        assert page_rows(index) == {0: {}}
        assert all(word_vector(index, t).is_zero() for t in range(len(voc)))

    def test_identical_pages_identical_vectors(self):
        store = parse_corpus(
            '{"kind":"meta","root":0,"version":1}\n'
            '{"kind":"category","id":0,"title":"Root","parents":[]}\n'
            '{"kind":"page","id":0,"title":"A","text":"x y z","categories":[],"links":[]}\n'
            '{"kind":"page","id":1,"title":"B","text":"x y z","categories":[],"links":[]}\n'
            '{"kind":"page","id":2,"title":"C","text":"q r","categories":[],"links":[]}\n'
        )
        a = Analyzer()
        index = build_index(store, a, build_vocabulary(store, a, 1))
        rows = page_rows(index)
        assert rows[0] == rows[1] and rows[0]

    def test_fixture_matrix_matches_dense_oracle(self, fixture_index):
        m = dense_matrix(fixture_index)
        for col, row in enumerate(page_rows(fixture_index).values()):
            got = to_dense(SparseVector.from_dict(row), len(fixture_index.vocabulary))
            np.testing.assert_allclose(got, m[:, col], atol=1e-12)

    def test_page_vectors_unit_or_zero_and_reported(self, fixture_index):
        # a page's row is zero exactly when each of its terms is in every page
        voc, n = fixture_index.vocabulary, fixture_index.n_pages
        for pid, row in page_rows(fixture_index).items():
            if row:
                assert abs(SparseVector.from_dict(row).norm() - 1.0) <= 1e-9
            assert (not row) == all(voc.df(t) == n for t in fixture_index.page_term_freqs[pid])

    def test_rebuild_bit_identical(self, fixture_store, analyzer, fixture_vocab):
        a = build_index(fixture_store, analyzer, fixture_vocab)
        b = build_index(fixture_store, analyzer, fixture_vocab)
        assert a == b and a.page_term_freqs == b.page_term_freqs
        for x, y in [(a.tfidfs, b.tfidfs), *zip(a.term_columns, b.term_columns)]:
            assert x.tobytes() == y.tobytes()


class TestWordVector:
    def test_single_posting_single_entry(self, fixture_index):
        voc = fixture_index.vocabulary
        tid = voc.term_to_id["organ"]  # only in page 0
        vec = word_vector(fixture_index, tid)
        assert vec.nnz == 1

    def test_df_equals_n_docs_gives_zero_vector(self):
        store = parse_corpus(
            '{"kind":"meta","root":0,"version":1}\n'
            '{"kind":"category","id":0,"title":"Root","parents":[]}\n'
            '{"kind":"page","id":0,"title":"A","text":"x a","categories":[],"links":[]}\n'
            '{"kind":"page","id":1,"title":"B","text":"x b","categories":[],"links":[]}\n'
        )
        a = Analyzer()
        index = build_index(store, a, build_vocabulary(store, a, 1))
        tid = index.vocabulary.term_to_id["x"]
        assert word_vector(index, tid).is_zero()

    def test_matches_transposed_matrix_column(self, fixture_index):
        m = dense_matrix(fixture_index)
        for tid in range(len(fixture_index.vocabulary)):
            got = to_dense(word_vector(fixture_index, tid), fixture_index.n_pages)
            np.testing.assert_allclose(got, m[tid, :], atol=1e-12)

    def test_unknown_term_raises(self, fixture_index):
        with pytest.raises(KeyError):
            word_vector(fixture_index, 10_000)


class TestRelatedness:
    def test_self_relatedness_one(self, fixture_index):
        tid = fixture_index.vocabulary.term_to_id["quantum"]
        assert relatedness(fixture_index, tid, tid) == pytest.approx(1.0)

    def test_disjoint_postings_zero(self, fixture_index):
        a = fixture_index.vocabulary.term_to_id["organ"]   # page 0 only
        b = fixture_index.vocabulary.term_to_id["particle"]  # page 4 only
        assert relatedness(fixture_index, a, b) == 0.0

    def test_matches_dense_cosine_oracle(self, fixture_index):
        m = dense_matrix(fixture_index)
        voc = fixture_index.vocabulary
        rng = random.Random(1)
        terms = list(range(len(voc)))
        for _ in range(50):
            a, b = rng.choice(terms), rng.choice(terms)
            va, vb = m[a, :], m[b, :]
            na, nb = np.linalg.norm(va), np.linalg.norm(vb)
            expect = 0.0 if na == 0 or nb == 0 else float(va @ vb / (na * nb))
            assert relatedness(fixture_index, a, b) == pytest.approx(expect, abs=1e-12)

    def test_unknown_term_raises_in_either_position(self, fixture_index):
        n = len(fixture_index.vocabulary)
        for bad in (-1, n):
            for a, b in ((bad, 0), (0, bad), (bad, bad)):
                with pytest.raises(KeyError, match=f"^'unknown term id {bad}'$"):
                    relatedness(fixture_index, a, b)
        # the first unknown id is the one named
        with pytest.raises(KeyError, match="^'unknown term id -1'$"):
            relatedness(fixture_index, -1, n)

    def test_symmetry_and_range(self, fixture_index):
        voc = fixture_index.vocabulary
        for a in range(len(voc)):
            for b in range(len(voc)):
                r = relatedness(fixture_index, a, b)
                assert 0.0 <= r <= 1.0
                assert abs(r - relatedness(fixture_index, b, a)) <= 1e-12


class TestDocumentVector:
    def test_no_known_terms_zero(self, fixture_index):
        assert document_vector(fixture_index, ["zzz", "qqq"]).is_zero()

    def test_single_shared_page_support(self, fixture_index):
        # "organ" occurs only in page 0; a document of just that term is
        # supported on that single concept with weight 1 after renormalization.
        vec = document_vector(fixture_index, ["organ"])
        assert vec.nnz == 1
        assert vec.weights[0] == pytest.approx(1.0)

    def test_matches_dense_oracle(self, fixture_index):
        m = dense_matrix(fixture_index)
        voc = fixture_index.vocabulary
        doc = ["quantum", "energy", "bach", "quantum", "war"]
        from collections import Counter
        counts = Counter(doc)
        acc = np.zeros(fixture_index.n_pages)
        sq = 0.0
        for term, f in counts.items():
            tid = voc.term_to_id[term]
            t = (1 + math.log(f)) * math.log(fixture_index.n_pages / voc.df(tid))
            sq += t * t
            acc += t * m[tid, :]
        expect = acc / math.sqrt(sq)
        expect /= np.linalg.norm(expect)
        got = to_dense(document_vector(fixture_index, doc), fixture_index.n_pages)
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_output_unit_or_zero(self, fixture_index):
        vec = document_vector(fixture_index, ["quantum", "wave", "physic"])
        assert abs(vec.norm() - 1.0) <= 1e-9
