"""The numpy concept-space kernel, the CSR-backed ``EsaIndex``, the array
cross-validation, the numpy ESVS codec, the one-pass categorical tfidf
table and the array-backed ``SparseVector`` arithmetic against the
dict-path, per-page, per-row scatter, ``struct``, per-term and tuple loops
they replaced, which are kept here as oracles.

Equality is exact (``==`` on vectors, byte equality on arrays, reports and
files): the kernel performs the same floating-point operations in the same
order, and the codec writes the same bytes.
"""

import copy
import dataclasses
import gc
import importlib.util
import math
import pickle
import random
import re
import struct
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wikistrata import (
    Analyzer,
    Vocabulary,
    catgraph,
    esa,
    evaluate,
    pipeline,
    strata,
    build_graph,
    build_index,
    build_vocabulary,
    gen_synthetic_wiki,
    leaf_sets,
    parse_corpus,
)
from wikistrata.arbor import ancestors, chu_liu_edmonds, reverse_and_cost
from wikistrata.catgraph import (
    CATEGORY,
    LeafSetIndex,
    Node,
    _component_tables,
    categorical_tfidf,
    category_term_weights,
    category_vector,
    weight_edges,
)
from wikistrata.esa import (
    SparseVector,
    concept_vectors,
    document_vector,
    load_vector_set,
    relatedness,
    save_vector_set,
    index_from_freqs,
    tfidf,
    word_vector,
)
from wikistrata.evaluate import EvalReport, LabeledCorpus, cross_validate, split_folds
from wikistrata.strata import StrataConfig, StrataVectorizer

from conftest import FIXTURE_PATH, _table_from_tsv, table_csr, table_dicts, tree_arrays
from oracles import (
    _pack_vector,
    categorical_tfidf_scan,
    classify,
    left_to_right_sum,
    load_vector,
    loop_weight_edges,
    save_vector,
    train_centroid,
    vocabulary_from_terms,
)


# -- oracles: the dict path as it was before the kernel ----------------------

def loop_index(page_term_freqs, vocabulary):
    """index_from_freqs as it was, one tfidf call per (page, term) and one
    ``unit()`` per page, as the mapping of the attributes it stored."""
    page_ids = tuple(sorted(page_term_freqs))
    n_pages = len(page_ids)
    page_vectors, page_tfidf, postings, zero_pages = {}, {}, {}, []
    for pid in page_ids:
        freqs = page_term_freqs[pid]
        weights = page_tfidf[pid] = {
            tid: tfidf(f, vocabulary.df(tid), n_pages) for tid, f in freqs.items()
        }
        vec = SparseVector.from_dict(weights).unit()
        if vec.is_zero():
            zero_pages.append(pid)
        page_vectors[pid] = vec
        for tid, f in sorted(freqs.items()):
            postings.setdefault(tid, []).append((pid, f))
    return {
        "page_ids": page_ids,
        "n_pages": n_pages,
        "concept_of_page": {pid: i for i, pid in enumerate(page_ids)},
        "page_vectors": page_vectors,
        "page_term_freqs": {pid: dict(page_term_freqs[pid]) for pid in page_ids},
        "postings": {tid: tuple(plist) for tid, plist in sorted(postings.items())},
        "zero_pages": tuple(zero_pages),
        "page_tfidf": page_tfidf,
    }


def _word_entries(views, term_id):
    """A word vector's entries as the old index kept them: each page of the
    term's postings whose unit page vector weighs the term, in page order."""
    dims, weights = [], []
    for pid, _f in views["postings"].get(term_id, ()):
        w = views["page_vectors"][pid].to_dict().get(term_id, 0.0)
        if w != 0.0:
            dims.append(views["concept_of_page"][pid])
            weights.append(w)
    return dims, weights


def assert_index_equals_loop(index, page_term_freqs, vocabulary):
    """Every attribute the index keeps equals the loop's: page ids, page
    count and frequencies as they were stored, the tfidfs as the pages'
    tfidf rows flattened in CSR order, and term_columns as the loop's word
    vectors."""
    want = loop_index(page_term_freqs, vocabulary)
    for name in ("page_ids", "n_pages", "page_term_freqs"):
        assert getattr(index, name) == want[name], name
    for freqs in index.page_term_freqs.values():
        assert all(type(t) is int and type(f) is int for t, f in freqs.items())
    assert index.tfidfs.tolist() == [w for pid in want["page_ids"]
                                     for _t, w in sorted(want["page_tfidf"][pid].items())]
    ptr, concepts, weights = [0], [], []
    for tid in range(len(vocabulary)):
        dims, ws = _word_entries(want, tid)
        concepts += dims
        weights += ws
        ptr.append(len(concepts))
    got_ptr, got_concepts, got_weights = index.term_columns
    assert got_ptr.dtype == got_concepts.dtype == np.int64
    assert (got_ptr.tolist(), got_concepts.tolist(), got_weights.tolist()) == (ptr, concepts,
                                                                              weights)


def dict_path_vector(views, weights):
    acc = {}
    sq = 0.0
    for tid in sorted(weights):
        t = weights[tid]
        if t == 0.0:
            continue
        sq += t * t
        for dim, w in zip(*_word_entries(views, tid)):
            acc[dim] = acc.get(dim, 0.0) + t * w
    if not acc or sq == 0.0:
        return SparseVector.zero()
    denom = math.sqrt(sq)
    return SparseVector.from_dict({d: v / denom for d, v in acc.items()}).unit()


def loop_concept_vectors(index, rows):
    """concept_vectors as it was: one dense scatter per (row, term)."""
    ptr, concepts, weights = index.term_columns
    acc = np.zeros(index.n_pages)
    out = []
    for row in rows:
        sq = 0.0
        for tid in sorted(row):
            t = row[tid]
            if t == 0.0:
                continue
            sq += t * t
            lo, hi = ptr[tid], ptr[tid + 1]
            if lo < hi:
                acc[concepts[lo:hi]] += t * weights[lo:hi]
        dims = np.flatnonzero(acc)
        values = acc[dims]
        acc[dims] = 0.0
        if sq == 0.0 or not dims.size:
            out.append(SparseVector.zero())
            continue
        values /= math.sqrt(sq)
        keep = values != 0.0
        dims, values = dims[keep], values[keep]
        n = math.sqrt(left_to_right_sum((values * values).tolist()))
        if n != 0.0:
            values /= n
        out.append(SparseVector(dims, values))
    return out


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g._dims.dtype == w._dims.dtype and g._weights.dtype == w._weights.dtype
        assert g._dims.tobytes() == w._dims.tobytes()
        assert g._weights.tobytes() == w._weights.tobytes()


def tuple_norm(v):
    return math.sqrt(left_to_right_sum(w * w for w in v.weights))


def tuple_dot(a, b):
    if a.nnz > b.nnz:
        a, b = b, a
    bmap = dict(zip(b.dims, b.weights))
    return left_to_right_sum(w * bmap[d] for d, w in zip(a.dims, a.weights) if d in bmap)


def tuple_cosine(a, b):
    na, nb = tuple_norm(a), tuple_norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return tuple_dot(a, b) / (na * nb)


def tuple_unit(v):
    n = tuple_norm(v)
    if n == 0.0:
        return v
    return SparseVector(v.dims, tuple(w / n for w in v.weights))


def scalar_cross_validate(corpus, vectors, k, seed):
    folds = split_folds(corpus, k, seed)
    classes = corpus.classes
    cls_index = {c: i for i, c in enumerate(classes)}
    confusion = [[0] * len(classes) for _ in classes]
    fold_accs = []
    for held_out in folds:
        held = set(held_out)
        train_vecs = {d: vectors[d] for d in corpus.doc_ids if d not in held}
        model = train_centroid(train_vecs, corpus.labels)
        correct = 0
        for doc_id in held_out:
            pred = classify(model, vectors[doc_id])
            true = corpus.labels[doc_id]
            confusion[cls_index[true]][cls_index[pred]] += 1
            if pred == true:
                correct += 1
        fold_accs.append(correct / len(held_out))
    dims = set()
    for v in vectors.values():
        dims.update(v.dims)
    precision = {}
    recall = {}
    for i, cls in enumerate(classes):
        col = sum(confusion[j][i] for j in range(len(classes)))
        row = sum(confusion[i])
        precision[cls] = confusion[i][i] / col if col else 0.0
        recall[cls] = confusion[i][i] / row if row else 0.0
    return EvalReport(
        classes=classes,
        fold_accuracies=tuple(fold_accs),
        mean_accuracy=left_to_right_sum(fold_accs) / len(fold_accs),
        confusion=tuple(tuple(row) for row in confusion),
        subspace_dim=len(dims),
        per_class_precision=precision,
        per_class_recall=recall,
    )


def per_term_category_weights(cid, index, ls, max_nnz, literal):
    """category_term_weights as it was: one categorical_tfidf scan, and one
    walk of the term's postings, per kept term."""
    agg = Counter()
    for pid in ls.pages_of(cid):
        for tid, f in index.page_term_freqs[pid].items():
            agg[tid] += f
    ranked = sorted(agg.items(), key=lambda kv: (-kv[1], kv[0]))[:max_nnz]
    return {tid: categorical_tfidf_scan(tid, cid, index, ls, literal) for tid, _ in ranked}


def counter_category_weights(cid, index, ls, max_nnz, literal):
    """category_term_weights as it was before the batched pass: two
    Counters filled one leaf page at a time."""
    leaves = ls.pages_of(cid)
    term_pages = np.bincount(index.term_ids, minlength=len(index.vocabulary)).tolist()
    sum_f, n_in = Counter(), Counter()
    for s in map(index._slices.__getitem__, leaves):
        terms = index.term_ids[s].tolist()
        sum_f.update(dict(zip(terms, index.freqs[s].tolist())))
        n_in.update(terms)
    ranked = sorted(sum_f.items(), key=lambda kv: (-kv[1], kv[0]))[:max_nnz]
    n = index.n_pages
    out = {}
    for tid, f in sorted(ranked):
        n_out = n - len(leaves) if literal else term_pages[tid] - n_in[tid]
        out[tid] = (1.0 + math.log(f)) * math.log(n / (1 + n_out))
    return out


def assert_same_table(got, want):
    assert got == want and list(got) == list(want)
    assert [w.hex() for w in got.values()] == [w.hex() for w in want.values()]


def per_pair_untruncated_tfidf(case, cfg, term_id, page_id):
    """Untruncated stratified tfidf as it was: one categorical_tfidf scan per
    (term, ancestor category), 0 where the term is not in F(c)."""
    f = case.index.page_term_freqs[page_id].get(term_id, 0)
    total = tfidf(f, case.index.vocabulary.df(term_id), case.index.n_pages) if f >= 1 else 0.0
    chain = [n.id for n in ancestors(case.arb, Node.page(page_id), len(cfg.lambdas))
             if n.kind == CATEGORY]
    for lam, cid in zip(cfg.lambdas, chain):
        if lam == 0.0:
            continue
        try:
            total += lam * categorical_tfidf_scan(term_id, cid, case.index, case.ls)
        except ValueError:
            total += lam * 0.0
    return total


def per_pair_truncated_tfidf(case, cfg, tables, term_id, page_id):
    """Truncated stratified tfidf, one scalar tfidf and one lookup per
    (term, ancestor category) in ``tables`` (the per-term category tables
    cut at cfg.max_nnz)."""
    f = case.index.page_term_freqs[page_id].get(term_id, 0)
    total = tfidf(f, case.index.vocabulary.df(term_id), case.index.n_pages) if f >= 1 else 0.0
    chain = [n.id for n in ancestors(case.arb, Node.page(page_id), len(cfg.lambdas))
             if n.kind == CATEGORY]
    for lam, cid in zip(cfg.lambdas, chain):
        if lam == 0.0:
            continue
        total += lam * tables[cid].get(term_id, 0.0)
    return total


# -- corpora -----------------------------------------------------------------

# Multi-parent categories, a 2-cycle (5 <-> 6), multi-category pages, a
# term in every page (df == n_pages, so idf 0), and two pages holding only
# that term, whose vectors are zero.
MULTI_PARENT = "\n".join([
    '{"kind":"meta","root":0,"version":1}',
    '{"kind":"category","id":0,"title":"Root","parents":[]}',
    '{"kind":"category","id":1,"title":"Arts","parents":[0]}',
    '{"kind":"category","id":2,"title":"Sciences","parents":[0]}',
    '{"kind":"category","id":3,"title":"Acoustics","parents":[1,2]}',
    '{"kind":"category","id":4,"title":"Instruments","parents":[3,1]}',
    '{"kind":"category","id":5,"title":"Waves","parents":[2,6]}',
    '{"kind":"category","id":6,"title":"Signals","parents":[5]}',
    '{"kind":"page","id":0,"title":"Organ","text":"common organ pipe pipe reed","categories":[4],"links":[]}',
    '{"kind":"page","id":1,"title":"Violin","text":"common string bow string resonance","categories":[4,3],"links":[0]}',
    '{"kind":"page","id":2,"title":"Echo","text":"common resonance wave wave delay","categories":[3,5],"links":[]}',
    '{"kind":"page","id":3,"title":"Fourier","text":"common wave signal spectrum spectrum","categories":[6],"links":[2]}',
    '{"kind":"page","id":4,"title":"Filter","text":"common signal delay delay pipe","categories":[6,5],"links":[]}',
    '{"kind":"page","id":5,"title":"Stub","text":"common common","categories":[2],"links":[]}',
    '{"kind":"page","id":6,"title":"Lone","text":"common","categories":[1],"links":[]}',
    '{"kind":"page","id":7,"title":"Painting","text":"common canvas brush canvas organ","categories":[1],"links":[]}',
]) + "\n"


class Case:
    def __init__(self, store):
        analyzer = Analyzer()
        voc = build_vocabulary(store, analyzer, min_df=1)
        self.index = build_index(store, analyzer, voc)
        # each page's frequencies, and the index as the per-page loop built it
        self.freqs = {p.page_id: {voc.term_to_id[t]: f
                                  for t, f in Counter(analyzer.analyze(p.text)).items()}
                      for p in store.pages}
        self.views = loop_index(self.freqs, voc)
        self.graph = build_graph(store)
        self.ls = leaf_sets(self.graph)
        vectors = {Node.category(c): category_vector(c, self.index, self.ls)
                   for c in self.graph.category_ids}
        vectors.update({Node.page(p): v
                        for p, v in zip(self.index.page_ids, concept_vectors(
                            self.index, baseline_rows(self.index)))})
        self.vectors = vectors
        self.edges = weight_edges(self.graph, vectors)
        self.arb = chu_liu_edmonds(reverse_and_cost(self.graph, self.edges, self.graph.root_id))


def baseline_rows(index):
    voc = index.vocabulary
    return [{t: tfidf(f, voc.df(t), index.n_pages) for t, f in index.page_term_freqs[p].items()}
            for p in index.page_ids]


def page_terms(index, pid):
    voc = index.vocabulary
    return [voc.id_to_term[t] for t, f in sorted(index.page_term_freqs[pid].items())
            for _ in range(f)]


def _fixture_case():
    with open(FIXTURE_PATH, encoding="utf-8") as fh:
        return Case(parse_corpus(fh.read()))


def _tree_case():
    store, _labels = gen_synthetic_wiki(seed=5, n_topics=3, pages_per_topic=8,
                                        vocab_per_topic=12, depth=2, crosstalk=0.4,
                                        tokens_per_page=20)
    return Case(store)


def _bench_corpora():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "bench_corpora.py"
    spec = importlib.util.spec_from_file_location("bench_corpora", path)
    bench_corpora = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_corpora)
    return bench_corpora


def _cyclic_case():
    # the benchmark's cyclic generator at its self-test size: shared
    # parents, pages in several categories and planted 2- and 3-cycles
    store, _labels, _planted = _bench_corpora().gen_cyclic_wiki(
        seed=1, n_topics=3, pages_per_topic=6, vocab_per_topic=8, tokens_per_page=12,
        subcats_per_topic=8, cycles=6, crosstalk=0.3)
    return Case(store)


CASE_BUILDERS = {
    "fixture": _fixture_case,
    "tree": _tree_case,
    "multi-parent": lambda: Case(parse_corpus(MULTI_PARENT)),
    "cyclic": _cyclic_case,
}


@pytest.fixture(scope="module", params=sorted(CASE_BUILDERS))
def case(request):
    return CASE_BUILDERS[request.param]()


def test_multi_parent_corpus_covers_idf_zero_and_zero_rows():
    c = CASE_BUILDERS["multi-parent"]()
    voc = c.index.vocabulary
    assert voc.df(voc.term_to_id["common"]) == c.index.n_pages
    zero = [p for p, v in zip(c.index.page_ids, concept_vectors(c.index, baseline_rows(c.index)))
            if v.is_zero()]
    assert zero == [5, 6]


# -- vectors -----------------------------------------------------------------

def test_word_vectors_equal_dict_path(case):
    for tid in range(len(case.index.vocabulary)):
        dims, weights = _word_entries(case.views, tid)
        assert word_vector(case.index, tid) == SparseVector(tuple(dims), tuple(weights))


def test_baseline_vectors_equal_dict_path(case):
    index = case.index
    batch = concept_vectors(index, baseline_rows(index))
    for pid, row, vec in zip(index.page_ids, baseline_rows(index), batch):
        expected = dict_path_vector(case.views, row)
        assert vec == expected
        assert document_vector(index, page_terms(index, pid)) == expected


# -- the CSR index against the per-page loop it replaced --------------------

def test_index_views_equal_loop_oracle(case):
    assert_index_equals_loop(case.index, case.freqs, case.index.vocabulary)


def _table(pages, n_terms):
    """A frequency table and a vocabulary whose df counts its pages."""
    df = [sum(t in freqs for freqs in pages.values()) for t in range(n_terms)]
    return pages, Vocabulary(term_to_id={f"t{t}": t for t in range(n_terms)},
                             doc_freq=tuple(df))


@st.composite
def freq_tables(draw):
    n_terms = draw(st.integers(1, 10))
    pages = draw(st.dictionaries(
        st.integers(0, 2**40),
        st.dictionaries(st.integers(0, n_terms - 1), st.integers(1, 40), max_size=n_terms),
        min_size=1, max_size=10))
    return _table(pages, n_terms)


@settings(max_examples=150, deadline=None)
@given(freq_tables())
@example(_table({7: {0: 3, 1: 1}}, 2))  # one page: every idf vanishes
@example(_table({0: {0: 1, 2: 2}, 1: {0: 4}, 5: {0: 1, 1: 1}}, 3))  # term 0 in every page
@example(_table({0: {}, 3: {1: 2}, 9: {}}, 2))  # pages with no terms
@example(_table({0: {}}, 1))  # no nonzero at all
@example(({0: {0: 2}, 4: {0: 1, 1: 3}},  # a vocabulary of a larger corpus: df 7 > 2 pages
          Vocabulary(term_to_id={"t0": 0, "t1": 1, "t2": 2}, doc_freq=(2, 1, 7))))
def test_index_views_equal_loop_oracle_on_random_tables(table):
    freqs, vocabulary = table
    index = index_from_freqs(freqs, vocabulary)
    assert_index_equals_loop(index, freqs, vocabulary)
    assert index == index_from_freqs({pid: dict(reversed(f.items())) for pid, f in freqs.items()},
                                     vocabulary)


def index_tsv(index):
    """``index.tsv`` as the ``index`` stage writes it."""
    return pipeline._table_to_tsv(index.page_ids, index.row_ptr, index.term_ids, index.freqs, "d")


def assert_same_index(got, want):
    """Equal indexes whose CSR, tfidfs and term columns are byte-equal."""
    assert got == want and got.page_ids == want.page_ids
    arrays = [(getattr(got, a), getattr(want, a)) for a in ("row_ptr", "term_ids", "freqs",
                                                            "tfidfs")]
    for g, w in arrays + list(zip(got.term_columns, want.term_columns)):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def assert_reader_equals_table_path(index):
    text, voc = index_tsv(index), index.vocabulary
    want = index_from_freqs(_table_from_tsv(text, int), voc)
    assert_same_index(pipeline._index_from_tsv(text, voc), want)
    assert_same_index(want, index)


def test_index_tsv_reader_equals_table_path(case):
    assert_reader_equals_table_path(case.index)


@settings(max_examples=150, deadline=None)
@given(freq_tables())
@example(_table({7: {0: 3, 1: 1}}, 2))  # one page
@example(_table({0: {}, 3: {1: 2}, 9: {}}, 2))  # pages with no terms
@example(_table({0: {}}, 1))  # no nonzero at all
@example(_table({0: {}, 2: {}}, 3))  # two pages, neither with a term
def test_index_tsv_reader_equals_table_path_on_random_tables(table):
    assert_reader_equals_table_path(index_from_freqs(*table))


def test_a_page_term_whose_df_exceeds_the_page_count_raises_as_tfidf_does():
    """(f, df) = (1, 4) over 2 pages: tfidf refuses it, and so must the
    index, whose per-pair codes decode it exactly (a code base of n + 1
    would read it back as the valid (2, 1))."""
    vocabulary = Vocabulary(term_to_id={"t0": 0, "t1": 1}, doc_freq=(4, 1))
    with pytest.raises(ValueError, match="df=4"):
        tfidf(1, 4, 2)
    with pytest.raises(ValueError, match="df=4"):
        index_from_freqs({0: {0: 1}, 1: {1: 1}}, vocabulary)


def test_page_tfidf_holds_each_pairs_tfidf(case):
    index, voc = case.index, case.index.vocabulary
    assert index.tfidfs.tolist() == [
        tfidf(f, voc.df(t), index.n_pages)
        for t, f in zip(index.term_ids.tolist(), index.freqs.tolist())]
    # equality is that of vocabulary, page ids and frequencies; the derived
    # arrays and the views are rebuilt, not compared
    again = dataclasses.replace(index)
    assert again == index and again is not index
    assert again.tfidfs.tobytes() == index.tfidfs.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(again.term_columns,
                                                           index.term_columns))
    assert "tfidfs" not in repr(index) and "term_columns" not in repr(index)
    bumped = dataclasses.replace(index, freqs=index.freqs + 1)
    assert bumped != index
    assert bumped.page_term_freqs == {pid: {t: f + 1 for t, f in freqs.items()}
                                      for pid, freqs in index.page_term_freqs.items()}
    with pytest.raises(dataclasses.FrozenInstanceError):
        index.freqs = bumped.freqs
    for arr in (index.row_ptr, index.term_ids, index.freqs, index.tfidfs, *index.term_columns):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


@pytest.mark.parametrize("ptr, tids, freqs", [
    ([0, 2, 1], [0, 1], [1, 1]),        # row pointers go down
    ([0, 1, 3], [0, 1], [1, 1]),        # point past the entries
    ([1, 1, 2], [0, 1], [1, 1]),        # do not start at 0
    ([0, 2, 2], [1, 1], [1, 1]),        # a repeated term in a page
    ([0, 2, 2], [1, 0], [1, 1]),        # a page's terms descend
    ([0, 1, 2], [-1, 0], [1, 1]),       # a negative term id
    ([0, 1, 2], [0, 2], [1, 1]),        # a term id past the vocabulary
    ([], [], []),                       # no row pointers
    ([0, 2], [0, 1], [1, 1]),           # fewer rows than pages
    ([0, 1, 2, 2], [0, 1], [1, 1]),     # more rows than pages
    ([0, 1, 2], [0, 1], [1, 2, 3]),     # more frequencies than terms
])
def test_index_rejects_a_malformed_csr(ptr, tids, freqs):
    vocabulary = Vocabulary(term_to_id={"a": 0, "b": 1}, doc_freq=(2, 2))
    with pytest.raises(ValueError):
        esa.EsaIndex(vocabulary, (3, 5), np.array(ptr), np.array(tids), np.array(freqs))


def test_index_computes_one_tfidf_per_distinct_pair(monkeypatch):
    calls = []
    monkeypatch.setattr(esa, "tfidf", lambda f, df, n: (calls.append((f, df, n)), 1.0)[1])
    vocabulary = Vocabulary(term_to_id={"a": 0, "b": 1, "c": 2}, doc_freq=(3, 1, 3))
    index = index_from_freqs({0: {0: 2, 1: 2, 2: 2}, 1: {0: 2, 2: 1}, 2: {0: 1, 2: 2}},
                             vocabulary)
    assert sorted(calls) == [(1, 3, 3), (2, 1, 3), (2, 3, 3)]
    assert index.tfidfs.tolist() == [1.0] * 7


def test_index_retains_at_most_44_bytes_per_nonzero():
    # the benchmark's tree corpus at 1600 pages
    bench_corpora = _bench_corpora()
    store, _labels = gen_synthetic_wiki(1, **dict(bench_corpora.TREE_FULL, pages_per_topic=200))
    analyzer = Analyzer()
    counts = {p.page_id: Counter(analyzer.analyze(p.text)) for p in store.pages}
    vocabulary = vocabulary_from_terms(counts.values())
    freqs = {pid: {vocabulary.term_to_id[t]: f for t, f in c.items()} for pid, c in counts.items()}
    del store, counts
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = index_from_freqs(freqs, vocabulary)
        built = tracemalloc.get_traced_memory()[0] - before
        # a first kernel call adds nothing that the index keeps
        concept_vectors(index, [{0: 1.0}])
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(index.term_ids) > 60_000
    assert max(built, used) / len(index.term_ids) <= 44


@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("max_nnz", [1000, 3])
def test_category_vectors_equal_dict_path(case, literal, max_nnz):
    """The table path has only the default denominator; with ``literal``,
    the kernel also sums the literal-denominator weights of the
    ``categorical_tfidf_scan`` oracle as the dict path does."""
    for cid in sorted(case.graph.category_ids):
        weights = category_term_weights(cid, case.index, case.ls, max_nnz)
        assert (category_vector(cid, case.index, case.ls, max_nnz)
                == dict_path_vector(case.views, weights))
        if literal:
            weights = per_term_category_weights(cid, case.index, case.ls, max_nnz, literal)
            assert (concept_vectors(case.index, [weights])[0]
                    == dict_path_vector(case.views, weights))


@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("max_nnz", [1000, 3, None])
def test_category_term_weights_equal_per_term_path(case, literal, max_nnz):
    """With ``literal``, the literal denominator of the
    ``categorical_tfidf_scan`` oracle, which the table path never took,
    against the closed form."""
    for cid in sorted(case.graph.category_ids):
        got = (counter_category_weights(cid, case.index, case.ls, max_nnz, literal) if literal
               else category_term_weights(cid, case.index, case.ls, max_nnz))
        assert got == per_term_category_weights(cid, case.index, case.ls, max_nnz, literal)


@pytest.mark.parametrize("block", [1, 20, esa._BLOCK])
@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("max_nnz", [1000, 3, 1, None])
def test_one_pass_over_every_component_equals_both_oracles(case, literal, max_nnz, block,
                                                          monkeypatch):
    monkeypatch.setattr(catgraph, "_BLOCK", block)  # chunks of one or several components
    comps = sorted(set(case.ls.comp_of.values()), reverse=True)
    tables = table_dicts(_component_tables(case.index, case.ls, comps, max_nnz))
    for cid, comp in case.ls.comp_of.items():
        assert_same_table(tables[comp], counter_category_weights(cid, case.index, case.ls,
                                                                 max_nnz, False))
        # the literal denominator lives on only in the scan oracle
        want = counter_category_weights(cid, case.index, case.ls, max_nnz, literal)
        assert want == per_term_category_weights(cid, case.index, case.ls, max_nnz, literal)


@st.composite
def tables_and_leaf_sets(draw):
    """A frequency table, its vocabulary, leaf sets over its pages (some
    empty, some overlapping), and an order of the components."""
    freqs, vocabulary = draw(freq_tables())
    page_sets = st.lists(st.sampled_from(sorted(freqs)), unique=True).map(sorted).map(tuple)
    comp_pages = draw(st.lists(page_sets, min_size=1, max_size=6))
    ls = LeafSetIndex(comp_of={10 + i: i for i in range(len(comp_pages))},
                      comp_pages=tuple(comp_pages))
    return freqs, vocabulary, ls, draw(st.permutations(range(len(comp_pages))))


@settings(max_examples=200, deadline=None)
@given(tables_and_leaf_sets(), st.sampled_from([1, 2, 1000, None]),
       st.sampled_from([1, 4, esa._BLOCK]))
# every aggregate frequency ties, within a page and across pages
@example((*_table({0: {0: 2, 1: 1}, 1: {1: 1, 2: 2}, 2: {3: 2}}, 4),
          LeafSetIndex({10: 0, 11: 1, 12: 2}, ((0, 1), (0, 1, 2), (2,))), [1, 0, 2]), 1,
         esa._BLOCK)
# empty leaf sets, alone and next to others
@example((*_table({0: {0: 1}, 4: {1: 3}}, 2),
          LeafSetIndex({10: 0, 11: 1, 12: 2}, ((), (4,), ())), [0, 1, 2]), None, 1)
@example((*_table({0: {}, 1: {}}, 1), LeafSetIndex({10: 0}, ((0, 1),)), [0]), 2, 1)
def test_component_tables_equal_counter_loop(tables, max_nnz, block):
    freqs, vocabulary, ls, comps = tables
    index = index_from_freqs(freqs, vocabulary)
    with mock.patch.object(catgraph, "_BLOCK", block):
        got = _component_tables(index, ls, comps, max_nnz)
    assert got.keys == tuple(comps) and got.ptr.dtype == got.dims.dtype == np.int64
    for comp, table in zip(comps, table_dicts(got).values()):
        assert_same_table(table, counter_category_weights(10 + comp, index, ls, max_nnz, False))
        assert_same_table(category_term_weights(10 + comp, index, ls, max_nnz), table)


@pytest.mark.parametrize("max_nnz", [0, -1, 2.5, True])
def test_category_term_weights_checks_max_nnz_on_an_empty_leaf_set(max_nnz):
    index = index_from_freqs(*_table({0: {0: 1}}, 1))
    ls = LeafSetIndex(comp_of={5: 0}, comp_pages=((),))
    assert category_term_weights(5, index, ls, None) == {}
    with pytest.raises(ValueError, match="max_nnz"):
        category_term_weights(5, index, ls, max_nnz)


def outcome(categorical, *args):
    """The bits of ``categorical(*args)``, or the ValueError it raises."""
    try:
        return categorical(*args).hex()
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_categorical_tfidf_equals_scan(index, ls, category_ids):
    """The public ``categorical_tfidf``, one entry of the uncut table, on
    every (term, category) pair: the scan's bits, or its ValueError."""
    raised = 0
    for cid in sorted(category_ids):
        for tid in range(len(index.vocabulary)):
            want = outcome(categorical_tfidf_scan, tid, cid, index, ls)
            assert outcome(categorical_tfidf, tid, cid, index, ls) == want, (tid, cid)
            raised += want.startswith("ValueError")
    assert 0 < raised < len(category_ids) * len(index.vocabulary)


def test_categorical_tfidf_equals_scan_oracle(case):
    assert_categorical_tfidf_equals_scan(case.index, case.ls, case.graph.category_ids)


def test_categorical_tfidf_equals_scan_oracle_on_the_benchmark_tree():
    # the benchmark's tree corpus at one page per topic: 8 pages under 8
    # topics, 4 and 2 groups of them, and the root
    store, _labels = gen_synthetic_wiki(1, **dict(_bench_corpora().TREE_FULL, pages_per_topic=1))
    analyzer = Analyzer()
    index = build_index(store, analyzer, build_vocabulary(store, analyzer, 1))
    graph = build_graph(store)
    assert len(graph.category_ids) == 15
    assert_categorical_tfidf_equals_scan(index, leaf_sets(graph), graph.category_ids)


def test_categorical_tfidf_unknown_category_raises_key_error(case):
    with pytest.raises(KeyError):
        categorical_tfidf(0, max(case.graph.category_ids) + 1, case.index, case.ls)


@pytest.mark.parametrize("cfg", [
    StrataConfig(use_truncated_support=False),
    StrataConfig(lambdas=(0.7, 0.3, 0.0), use_truncated_support=False),
], ids=["half", "gap"])
def test_untruncated_stratified_tfidf_equals_per_pair_path(case, cfg):
    vectorizer = StrataVectorizer(case.index, case.ls, case.arb, cfg)
    for pid in case.index.page_ids:
        for tid in range(len(case.index.vocabulary)):
            assert (vectorizer.stratified_tfidf(tid, pid)
                    == per_pair_untruncated_tfidf(case, cfg, tid, pid))


def given_rows(case, cfg, tables):
    """Each page's stratified row, by page id, from the batched pass over
    ``tables``: dicts of term weights keyed by component index."""
    index = case.index
    lookup = strata._table_lookup(table_csr(tables), len(index.vocabulary))
    levels = strata._level_weights(index, case.ls, *tree_arrays(case.arb), len(cfg.lambdas), lookup)
    values = strata._stratified_values(index.tfidfs, cfg.lambdas, levels).tolist()
    rows = {}
    for pid in index.page_ids:
        s = index._slices[pid]
        rows[pid] = dict(zip(index.term_ids[s].tolist(), values[s]))
    return rows


@pytest.mark.parametrize("cfg", [
    StrataConfig(),
    StrataConfig(max_nnz=2),
    StrataConfig(use_truncated_support=False),
], ids=["truncated", "max_nnz_2", "untruncated"])
def test_handed_over_tables_equal_built_ones(case, cfg):
    """The level weights of tables handed to ``strata._level_weights``, one
    per component, equal the vectorizer's own, and so do its rows."""
    max_nnz = cfg.max_nnz if cfg.use_truncated_support else None
    table = {case.ls.comp_of[cid]: category_term_weights(cid, case.index, case.ls, max_nnz)
             for cid in case.graph.category_ids}
    built = StrataVectorizer(case.index, case.ls, case.arb, cfg)
    lookup = strata._table_lookup(table_csr(table), len(case.index.vocabulary))
    levels = strata._level_weights(case.index, case.ls, *tree_arrays(case.arb),
                                   len(cfg.lambdas), lookup)
    assert [w.tolist() for w in levels] == [w.tolist() for w in built._level_weights]
    given = given_rows(case, cfg, table)
    for pid in case.index.page_ids:
        assert concept_vectors(case.index, [given[pid]])[0] == built.document_vector(pid)
        for tid in case.index.page_term_freqs[pid]:
            assert given[pid][tid] == built.stratified_tfidf(tid, pid)
    # the pass reads the tables it is given: empty ones leave only tfidf
    empty = given_rows(case, cfg, {comp: {} for comp in table})
    voc = case.index.vocabulary
    for pid in case.index.page_ids:
        for tid, f in case.index.page_term_freqs[pid].items():
            assert empty[pid][tid] == tfidf(f, voc.df(tid), case.index.n_pages)


@pytest.mark.parametrize("cfg", [
    StrataConfig(use_truncated_support=False),
    StrataConfig(max_nnz=2),
    StrataConfig(lambdas=(0.7, 0.3, 0.0), use_truncated_support=False),
], ids=["untruncated", "max_nnz_2", "gap"])
def test_filled_tables_equal_lazily_built_ones(case, cfg, monkeypatch):
    filled = StrataVectorizer(case.index, case.ls, case.arb, cfg)
    built = filled._tables
    tables = table_dicts(built)
    # one table per component, as category_term_weights builds it for each member
    max_nnz = cfg.max_nnz if cfg.use_truncated_support else None
    assert sorted(tables) == list(range(len(case.ls.comp_pages)))
    lazy = {cid: category_term_weights(cid, case.index, case.ls, max_nnz)
            for cid in case.ls.comp_of}
    for cid, comp in case.ls.comp_of.items():
        assert_same_table(tables[comp], lazy[cid])
    monkeypatch.setattr(strata, "_component_tables", None)  # the rows build no further table
    given = given_rows(case, cfg, {comp: lazy[cid] for cid, comp in case.ls.comp_of.items()})
    for pid in case.index.page_ids:
        assert filled.row(pid) == given[pid]
    assert filled._tables is built and table_dicts(built) == tables


@pytest.mark.parametrize("cfg", [
    StrataConfig(),
    StrataConfig(lambdas=(1.0, 1.0, 1.0)),
    StrataConfig(lambdas=(0.0, 0.0, 0.0)),
    StrataConfig(lambdas=(0.7, 0.3, 0.0)),
    StrataConfig(use_truncated_support=False),
    StrataConfig(max_nnz=2),
], ids=["half", "flat", "zero", "gap", "untruncated", "max_nnz_2"])
def test_stratified_vectors_equal_dict_path(case, cfg):
    vectorizer = StrataVectorizer(case.index, case.ls, case.arb, cfg)
    for pid in case.index.page_ids:
        # per-term stratified_tfidf walks the ancestor chain per term, as
        # the dict path did
        weights = {tid: vectorizer.stratified_tfidf(tid, pid)
                   for tid in case.index.page_term_freqs[pid]}
        assert vectorizer.document_vector(pid) == dict_path_vector(case.views, weights)


@pytest.mark.parametrize("cfg", [
    StrataConfig(max_nnz=2),
    StrataConfig(use_truncated_support=False),
], ids=["truncated", "untruncated"])
def test_batched_stratified_rows_equal_document_vector_and_per_pair_path(case, cfg):
    index = case.index
    vectorizer = StrataVectorizer(index, case.ls, case.arb, cfg)
    batch = concept_vectors(index, map(vectorizer.row, index.page_ids))
    tables = {cid: per_term_category_weights(cid, index, case.ls, cfg.max_nnz, False)
              for cid in case.graph.category_ids}
    for pid, vec in zip(index.page_ids, batch):
        if cfg.use_truncated_support:
            oracle = {tid: per_pair_truncated_tfidf(case, cfg, tables, tid, pid)
                      for tid in index.page_term_freqs[pid]}
        else:
            oracle = {tid: per_pair_untruncated_tfidf(case, cfg, tid, pid)
                      for tid in index.page_term_freqs[pid]}
        assert vectorizer.row(pid) == oracle
        assert vec == vectorizer.document_vector(pid) == dict_path_vector(case.views, oracle)


def test_row_fetches_each_ancestor_table_once_per_page(case, monkeypatch):
    """The rows read each page's ancestor tables at a nonzero lambda, and
    no other table: with every other table's weights NaN, they still
    equal the scalar oracle, which looks up one weight per term and level."""
    cfg = StrataConfig(lambdas=(0.7, 0.3, 0.0))
    vectorizer = StrataVectorizer(case.index, case.ls, case.arb, cfg)
    index, page_tfidf = case.index, case.views["page_tfidf"]
    # per term and level through stratum_weight, as row() did it
    want = {pid: {tid: vectorizer._weight(tid, page_tfidf[pid],
                                          vectorizer._ancestor_categories(pid))
                  for tid in sorted(page_tfidf[pid])} for pid in index.page_ids}
    read = {case.ls.comp_of[cid] for pid in index.page_ids if page_tfidf[pid]
            for lam, cid in zip(cfg.lambdas, vectorizer._ancestor_categories(pid)) if lam != 0.0}
    tables = vectorizer._tables
    weights = tables.weights.copy()
    for comp, a, b in zip(tables.keys, tables.ptr, tables.ptr[1:]):
        if comp not in read:
            weights[a:b] = math.nan
    poisoned = StrataVectorizer(index, case.ls, case.arb, cfg)
    poisoned._tables = tables._replace(weights=weights)
    monkeypatch.delattr(StrataVectorizer, "stratum_weight")
    for pid in index.page_ids:
        row = poisoned.row(pid)
        assert row == want[pid] and list(row) == list(want[pid])


def test_row_alone_equals_row_in_batch(case, monkeypatch):
    index = case.index
    vectorizer = StrataVectorizer(index, case.ls, case.arb, StrataConfig())
    rows = baseline_rows(index) + [
        {tid: vectorizer.stratified_tfidf(tid, pid) for tid in index.page_term_freqs[pid]}
        for pid in index.page_ids
    ] + [{}, {0: 0.0}]
    want = loop_concept_vectors(index, rows)
    for block in (1, 7, esa._BLOCK):
        monkeypatch.setattr(esa, "_BLOCK", block)
        batch = concept_vectors(index, rows)
        assert batch[-1].is_zero() and batch[-2].is_zero()
        assert_same_bits(batch, want)
        assert_same_bits([concept_vectors(index, [row])[0] for row in rows], want)
        assert_same_bits(concept_vectors(index, reversed(rows)), want[::-1])


# -- the blocked bincount kernel against the per-row scatter loop -----------

def test_kernel_equals_loop_on_edge_rows(fixture_index, monkeypatch):
    index = fixture_index
    ptr = index.term_columns[0]
    tid = int(np.argmax(np.diff(ptr)))  # the term with the longest column
    assert ptr[tid + 1] - ptr[tid] > 1
    # at blocks of 1 and 3 products, a row with more is a block of its own
    everything = {t: 1.0 + t for t in range(len(index.vocabulary))}
    batches = [
        [],
        [{}],
        [{}, {tid: 0.0}, {0: 0.0, tid: 0.0}, {}],
        [{tid: 1e-200}],  # t * t is 0, so the vector is zero
        [{tid: 1e-200}, {tid: 1e-150}, {tid: 2.0}, {}, {tid: 1e-300, 0: 3.0}],
        [everything],
    ]
    for block in (1, 3, esa._BLOCK):
        monkeypatch.setattr(esa, "_BLOCK", block)
        for rows in batches:
            got = concept_vectors(index, rows)
            assert_same_bits(got, loop_concept_vectors(index, rows))
            assert_same_bits(got, [concept_vectors(index, [row])[0] for row in rows])
        assert concept_vectors(index, [{tid: 1e-200}])[0].is_zero()


@pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
def test_kernel_rejects_unknown_terms_and_bad_weights(fixture_index):
    n_terms = len(fixture_index.vocabulary)
    for tid in (-1, n_terms):
        with pytest.raises(KeyError, match="unknown term id"):
            concept_vectors(fixture_index, [{0: 1.0}, {tid: 1.0}])
        # a zero weight is skipped before its term is looked up
        assert concept_vectors(fixture_index, [{tid: 0.0}])[0].is_zero()
    for t in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="is not finite and non-negative"):
            concept_vectors(fixture_index, [{0: 1.0}, {0: t}])


_weights = st.one_of(st.just(0.0), st.floats(0.0, 1e6), st.floats(1e-320, 1e-140),
                     st.sampled_from([1.0, 0.5, -1.0, math.inf]))


# inf / inf is nan, which both kernels reject
@pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(data=st.data(), block=st.sampled_from([1, 2, 5, 64, None]))
def test_kernel_equals_loop_on_random_rows(fixture_index, data, block):
    n_terms = len(fixture_index.vocabulary)
    rows = data.draw(st.lists(st.dictionaries(st.integers(0, n_terms - 1), _weights,
                                              max_size=8), max_size=6))
    with mock.patch.object(esa, "_BLOCK", block or esa._BLOCK):
        try:
            got = concept_vectors(fixture_index, rows)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                loop_concept_vectors(fixture_index, rows)
            return
    assert_same_bits(got, loop_concept_vectors(fixture_index, rows))


def csr(rows):
    """Dict rows as the CSR entry takes them: a set keyed 0, 1, ... in row
    order, each row's terms in ascending term id."""
    row_ptr, tids, ts = [0], [], []
    for row in rows:
        tids += sorted(row)
        ts += [row[t] for t in sorted(row)]
        row_ptr.append(len(tids))
    return esa._VectorSet(tuple(range(len(row_ptr) - 1)), np.array(row_ptr),
                          np.array(tids, np.int64), np.array(ts, np.float64))


def index_rows(index, weights):
    """The index's page rows with ``weights`` in CSR order, keyed by page id,
    as the pipeline's baseline and stratified stages pass them."""
    return esa._VectorSet(index.page_ids, index.row_ptr, index.term_ids, weights)


def csr_vectors(index, rows):
    """The vectors of ``esa._csr_vectors``'s set, in row order, under the rows' keys."""
    got = esa._csr_vectors(index, rows)
    assert got.keys == tuple(rows.keys)
    assert got.ptr.dtype == got.dims.dtype == np.int64 and got.weights.dtype == np.float64
    return list(got.vectors().values())


def assert_csr_entry_equals_dict_rows(index, rows, block):
    with mock.patch.object(esa, "_BLOCK", block):
        try:
            got = csr_vectors(index, csr(rows))
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                loop_concept_vectors(index, rows)
            return
        assert_same_bits(got, concept_vectors(index, rows))
    assert_same_bits(got, loop_concept_vectors(index, rows))


@pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(data=st.data(), block=st.sampled_from([1, 2, 5, 64, esa._BLOCK]))
def test_csr_entry_equals_dict_rows_on_random_rows(fixture_index, data, block):
    n_terms = len(fixture_index.vocabulary)
    rows = data.draw(st.lists(st.dictionaries(st.integers(0, n_terms - 1), _weights,
                                              max_size=8), max_size=6))
    assert_csr_entry_equals_dict_rows(fixture_index, rows, block)


@pytest.mark.parametrize("rows", [[], [{}], [{}, {0: 0.0}, {}], [{0: 0.0, 3: 2.0}, {}, {1: 1.0}]],
                         ids=["no-rows", "empty-row", "zero-weights", "mixed"])
@pytest.mark.parametrize("block", [1, esa._BLOCK])
def test_csr_entry_equals_dict_rows_on_empty_rows_and_zero_weights(fixture_index, rows, block):
    assert_csr_entry_equals_dict_rows(fixture_index, rows, block)


def test_csr_entry_rejects_unknown_terms_as_dict_rows_do(fixture_index):
    n_terms = len(fixture_index.vocabulary)
    for tid in (-1, n_terms):
        rows = [{0: 1.0}, {tid: 1.0}]
        with pytest.raises(KeyError) as dict_error:
            concept_vectors(fixture_index, rows)
        with pytest.raises(KeyError) as csr_error:
            csr_vectors(fixture_index, csr(rows))
        assert str(csr_error.value) == str(dict_error.value) == repr(f"unknown term id {tid}")
        # a zero weight is skipped before its term is looked up
        assert csr_vectors(fixture_index, csr([{tid: 0.0}]))[0].is_zero()


@pytest.mark.parametrize("block", [1, 7, None])
def test_csr_rows_of_the_pipeline_equal_dict_rows(case, block, monkeypatch):
    """The baseline set from the index's CSR and tfidfs, and the stratified
    set from the per-page stratified values in CSR order, as the pipeline's
    stages build them, equal the dict rows they replaced bit for bit."""
    index = case.index
    monkeypatch.setattr(esa, "_BLOCK", block or esa._BLOCK)
    assert_same_bits(csr_vectors(index, index_rows(index, index.tfidfs)),
                     concept_vectors(index, baseline_rows(index)))
    vectorizer = StrataVectorizer(index, case.ls, case.arb, StrataConfig(max_nnz=2))
    values = [w for pid in index.page_ids for w in vectorizer.row(pid).values()]
    assert vectorizer._page_values.tolist() == values
    assert_same_bits(csr_vectors(index, index_rows(index, vectorizer._page_values)),
                     concept_vectors(index, map(vectorizer.row, index.page_ids)))


def test_csr_entry_keeps_the_rows_own_keys(fixture_index):
    """Non-contiguous keys go through the kernel unchanged, each over the
    bits ``concept_vectors`` gives the same row."""
    rows = [{0: 1.0, 3: 2.0}, {}, {1: 0.5}, {2: 1.0, 4: 0.0}]
    keys = (3, 10, 11, 2**40)
    got = esa._csr_vectors(fixture_index, esa._VectorSet(keys, *csr(rows)[1:]))
    assert got.keys == keys
    assert_same_bits(list(got.vectors().values()), concept_vectors(fixture_index, rows))


def test_kernel_bounds_its_dense_block():
    # 400 pages, each the only page of its own term: 5000 one-term rows
    # hold 5000 products, but a dense block over all of them would be
    # 5000 x 400 cells, 16 MB
    n_pages = 400
    vocabulary = Vocabulary(term_to_id={f"t{i:03d}": i for i in range(n_pages)},
                            doc_freq=(1,) * n_pages)
    index = index_from_freqs({pid: {pid: 1} for pid in range(n_pages)}, vocabulary)
    rows = [{i % n_pages: 1.0} for i in range(5000)]
    gc.collect()
    tracemalloc.start()
    try:
        vecs = concept_vectors(index, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(v.dims, v.weights) for v in vecs[:n_pages]] == [((i,), (1.0,)) for i in range(n_pages)]
    assert peak < 4 * 2**20


# -- cross-validation --------------------------------------------------------

def _labeled(labels):
    return LabeledCorpus(documents=tuple((d, ()) for d in sorted(labels)), labels=labels)


def _assert_same_report(corpus, vectors, k, seed):
    got = cross_validate(corpus, vectors, k, seed)
    want = scalar_cross_validate(corpus, vectors, k, seed)
    assert got.to_tsv() == want.to_tsv()
    assert got == want


@pytest.mark.parametrize("mode", ["baseline", "stratified"])
def test_cross_validate_equals_scalar_oracle_on_tree_corpus(mode):
    store, labels = gen_synthetic_wiki(seed=2, n_topics=4, pages_per_topic=15,
                                       vocab_per_topic=15, depth=2, crosstalk=0.6,
                                       tokens_per_page=20)
    c = Case(store)
    if mode == "baseline":
        vecs = concept_vectors(c.index, baseline_rows(c.index))
    else:
        vectorizer = StrataVectorizer(c.index, c.ls, c.arb, StrataConfig())
        vecs = [vectorizer.document_vector(p) for p in c.index.page_ids]
    vectors = dict(zip(c.index.page_ids, vecs))
    corpus = _labeled({p: labels[p] for p in c.index.page_ids})
    for k, seed in ((5, 0), (3, 7), (10, 1)):
        _assert_same_report(corpus, vectors, k, seed)


def test_cross_validate_equals_scalar_oracle_with_zero_vectors():
    # every other document is the zero vector, so its scores all tie at 0
    rng = random.Random(3)
    labels = {d: "abc"[d % 3] for d in range(60)}
    vectors = {
        d: SparseVector.zero() if d % 2 else SparseVector.from_dict(
            {i: rng.random() for i in range(10) if rng.random() < 0.4})
        for d in labels
    }
    assert sum(v.is_zero() for v in vectors.values()) >= 30
    for k, seed in ((5, 0), (4, 2)):
        _assert_same_report(_labeled(labels), vectors, k, seed)


def test_cross_validate_equals_scalar_oracle_on_identical_classes():
    # classes "a" and "b" hold the same vectors: their centroids and
    # scores tie exactly, and the first class wins
    base = [SparseVector.from_dict({0: 1.0, 3: 0.5}),
            SparseVector.from_dict({1: 0.25, 2: 2.0})]
    labels, vectors = {}, {}
    for d in range(30):
        labels[d] = "abc"[d % 3]
        vectors[d] = (base[d % 2] if labels[d] != "c"
                      else SparseVector.from_dict({4: 1.0}))
    _assert_same_report(_labeled(labels), vectors, 5, 0)


def test_cross_validate_equals_scalar_oracle_on_random_vectors():
    rng = random.Random(11)
    for trial in range(5):
        n_classes = rng.randrange(2, 5)
        labels = {d: f"c{rng.randrange(n_classes)}" for d in range(80)}
        if min(list(labels.values()).count(c) for c in set(labels.values())) < 5:
            continue
        vectors = {d: SparseVector.from_dict(
            {i: rng.random() for i in range(12) if rng.random() < 0.3})
            for d in labels}
        _assert_same_report(_labeled(labels), vectors, 5, trial)


def dict_cross_validate(corpus, vectors, k, seed):
    """``cross_validate`` as it was: its dense rows filled from a dict of vectors."""
    folds = split_folds(corpus, k, seed)
    classes = corpus.classes
    doc_ids = sorted(corpus.doc_ids)
    row_of = {d: i for i, d in enumerate(doc_ids)}
    y = np.array([classes.index(corpus.labels[d]) for d in doc_ids], dtype=np.int64)
    used = np.zeros(max((int(v._dims[-1]) + 1 for v in vectors.values() if v.nnz), default=0),
                    bool)
    for v in vectors.values():
        used[v._dims] = True
    dense = np.zeros((len(doc_ids), len(used)))
    for i, d in enumerate(doc_ids):
        dense[i, vectors[d]._dims] = vectors[d]._weights
    confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
    fold_accs = []
    for held_out in folds:
        held = np.array([row_of[d] for d in held_out], dtype=np.int64)
        train = np.ones(len(doc_ids), dtype=bool)
        train[held] = False
        means = np.array([dense[train & (y == c)].mean(axis=0) for c in range(len(classes))])
        norms = np.sqrt((means * means).sum(axis=1, keepdims=True))
        centroids = np.divide(means, norms, out=np.zeros_like(means), where=norms > 0)
        pred = (dense[held] @ centroids.T).argmax(axis=1)
        np.add.at(confusion, (y[held], pred), 1)
        fold_accs.append(int((pred == y[held]).sum()) / len(held_out))
    return fold_accs, confusion.tolist(), int(used.sum())


def test_array_cross_validate_equals_dict_cross_validate(case, tmp_path):
    """The dense core over a set in array form, as the pipeline hands it
    over or reads it back (a set may hold vectors the corpus leaves out),
    gives the report of the core that read a dict of vectors."""
    index = case.index
    kernel = esa._csr_vectors(index, index_rows(index, index.tfidfs))
    pipeline._Cache(str(tmp_path)).write("set.esvs", esa._vector_set_bytes(kernel))
    docs = index.page_ids[1:]  # the first page's vector is in the set, not in the corpus
    corpus = _labeled({d: "ab"[i % 2] for i, d in enumerate(docs)})
    for vs in (kernel, esa._read_vector_set(tmp_path / "set.esvs")):
        for k, seed in ((2, 0), (3, 5)):
            got = evaluate._cross_validate(corpus, vs, k, seed)
            assert got == cross_validate(corpus, vs.vectors(), k, seed)
            folds, confusion, dim = dict_cross_validate(corpus, vs.vectors(), k, seed)
            assert (list(got.fold_accuracies), [list(r) for r in got.confusion],
                    got.subspace_dim) == (folds, confusion, dim)
    with pytest.raises(KeyError):
        evaluate._cross_validate(_labeled({-d: "ab"[d % 2] for d in range(1, 5)}), kernel, 2, 0)


@pytest.mark.parametrize("cfg", [
    StrataConfig(),
    StrataConfig(lambdas=(0.7, 0.3, 0.0)),
    StrataConfig(lambdas=(0.0, 0.0, 0.0)),
    StrataConfig(lambdas=(0.5, 0.0, 0.0), use_truncated_support=False),
    StrataConfig(max_nnz=2),
], ids=["half", "gap", "zero", "untruncated-gap", "max_nnz_2"])
def test_gathered_values_equal_scalar_weight(case, cfg):
    """Every page's stratified values, one gather per lambda level, equal
    ``_weight``'s one lookup per (term, level) bit for bit. One page has
    lost its terms and its place in the arborescence, so a lookup of its
    ancestors would raise."""
    index = case.index
    empty = index.page_ids[len(index.page_ids) // 2]
    stripped = index_from_freqs({pid: {} if pid == empty else freqs
                                 for pid, freqs in index.page_term_freqs.items()},
                                index.vocabulary)
    arb = dataclasses.replace(case.arb, parent={
        node: p for node, p in case.arb.parent.items() if node != Node.page(empty)})
    vectorizer = StrataVectorizer(stripped, case.ls, arb, cfg)
    want = []
    for pid in stripped.page_ids:
        s = stripped._slices[pid]
        row = dict(zip(stripped.term_ids[s].tolist(), stripped.tfidfs[s].tolist()))
        chain = vectorizer._ancestor_categories(pid) if row else []
        want += [vectorizer._weight(tid, row, chain) for tid in row]
    got = vectorizer._page_values
    assert got.dtype == np.float64
    assert [w.hex() for w in got.tolist()] == [w.hex() for w in want]
    assert vectorizer.row(empty) == {}


# -- ESVS codec: the struct loops it replaced, as oracles --------------------

def struct_record(dims, weights, tag=1, version=1, magic=b"ESAV"):
    parts = [magic, struct.pack("<HBQ", version, tag, len(dims))]
    for d, w in zip(dims, weights):
        parts.append(struct.pack("<Id", d, w))
    return b"".join(parts)


def struct_set(records):
    """An ESVS file from (key, record bytes) pairs, written as it was."""
    return b"ESVS" + struct.pack("<Q", len(records)) + b"".join(
        struct.pack("<Q", key) + record for key, record in records)


def struct_save(vectors):
    return struct_set([(key, struct_record(v.dims, v.weights))
                       for key, v in sorted(vectors.items())])


def struct_load(buf):
    assert buf[:4] == b"ESVS"
    (count,) = struct.unpack_from("<Q", buf, 4)
    offset = 12
    out = {}
    for _ in range(count):
        (key,) = struct.unpack_from("<Q", buf, offset)
        assert buf[offset + 8:offset + 12] == b"ESAV"
        version, tag, nnz = struct.unpack_from("<HBQ", buf, offset + 12)
        assert version == tag == 1
        offset += 8 + 4 + 11
        dims, weights = [], []
        for _ in range(nnz):
            d, w = struct.unpack_from("<Id", buf, offset)
            dims.append(d)
            weights.append(w)
            offset += 12
        out[key] = SparseVector(tuple(dims), tuple(weights))
    return out


def vector_sets(case):
    index = case.index
    vectorizer = StrataVectorizer(index, case.ls, case.arb, StrataConfig())
    return {
        "baseline": dict(zip(index.page_ids, concept_vectors(index, baseline_rows(index)))),
        "category": {c: category_vector(c, index, case.ls) for c in case.graph.category_ids},
        "stratified": {p: vectorizer.document_vector(p) for p in index.page_ids},
        "tfidf pages": case.views["page_vectors"],
        "zero and extreme": {0: SparseVector.zero(), 5: SparseVector.zero(),
                             2**64 - 1: SparseVector((0, 2**32 - 1), (0.0, 1e-300))},
        "empty": {},
    }


def test_esvs_codec_equals_struct_oracle(case, tmp_path):
    for name, vectors in vector_sets(case).items():
        path = tmp_path / "set.esvs"
        save_vector_set(path, vectors)
        buf = path.read_bytes()
        assert buf == struct_save(vectors), name
        loaded = load_vector_set(path)
        assert loaded == struct_load(buf) == vectors, name
        for vec in loaded.values():
            assert all(type(d) is int for d in vec.dims)
            assert all(type(w) is float for w in vec.weights)


@pytest.mark.parametrize("block", [1, 7, esa._BLOCK])
def test_array_codec_equals_per_vector_codec(case, tmp_path, monkeypatch, block):
    """The chunked writer writes the bytes the per-vector writer wrote, from
    a set built from vectors or straight from the kernel, and the array
    reader reads back the set the per-record reader read."""
    monkeypatch.setattr(esa, "_BLOCK", block)  # chunks of one vector, or of several
    index = case.index
    kernel = esa._csr_vectors(index, index_rows(index, index.tfidfs))
    sets = {name: (esa._VectorSet.of(vectors), vectors)
            for name, vectors in vector_sets(case).items()}
    sets["kernel"] = (kernel, kernel.vectors())
    for name, (vs, vectors) in sets.items():
        pipeline._Cache(str(tmp_path)).write("got.esvs", esa._vector_set_bytes(vs))
        per_vector_save(tmp_path / "want.esvs", vectors)
        buf = (tmp_path / "got.esvs").read_bytes()
        assert buf == (tmp_path / "want.esvs").read_bytes(), name
        read = esa._read_vector_set(tmp_path / "got.esvs")
        assert read.vectors() == per_record_load(tmp_path / "got.esvs") == vectors, name
        assert read.keys == tuple(sorted(vectors))
        assert read.ptr.dtype == read.dims.dtype == np.int64 and read.weights.dtype == np.float64


def test_single_vector_codec_equals_struct_oracle(tmp_path):
    path = tmp_path / "v.esav"
    for vec in (SparseVector.zero(), SparseVector((3, 10), (0.25, 1.5))):
        save_vector(path, vec)
        assert path.read_bytes() == struct_record(vec.dims, vec.weights)
        assert load_vector(path) == vec
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="trailing"):
        load_vector(path)


_GOOD = [(3, struct_record((1, 4), (0.5, 0.25))), (9, struct_record((), ()))]


def per_record_load(path):
    """``load_vector_set`` as it was: one ``_unpack_vector`` per record."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != b"ESVS":
        raise ValueError("bad magic; not an ESVS vector set")
    esa._need(buf, 12, "ESVS header")
    (count,) = struct.unpack_from("<Q", buf, 4)
    offset, out = 12, {}
    for _ in range(count):
        esa._need(buf, offset + 8, f"ESVS set of {count} vectors")
        (key,) = struct.unpack_from("<Q", buf, offset)
        offset += 8
        if buf[offset:offset + 4] != b"ESAV":
            raise ValueError("bad magic; not an ESAV vector")
        esa._need(buf, offset + 15, "ESAV header")
        _magic, version, tag, n = struct.unpack_from("<4sHBQ", buf, offset)
        if version != 1:
            raise ValueError(f"unsupported ESAV version {version}")
        if tag != 1:
            raise ValueError(f"unknown ESAV space tag {tag}")
        esa._need(buf, offset + 15 + 12 * n, f"ESAV vector of {n} entries")
        entries = np.frombuffer(buf, esa._ENTRY, n, offset + 15)
        out[key] = SparseVector(entries["dim"], entries["weight"])
        offset += 15 + 12 * n
    if offset != len(buf):
        raise ValueError(f"{len(buf) - offset} trailing bytes after the last vector")
    return out


def per_vector_save(path, vectors):
    """``save_vector_set`` as it was: one ``_pack_vector`` per vector."""
    with open(path, "wb") as fh:
        fh.write(b"ESVS" + struct.pack("<Q", len(vectors)))
        for key in sorted(vectors):
            fh.write(struct.pack("<Q", key))
            fh.write(_pack_vector(vectors[key]))


_BAD_SETS = [  # (id, bytes, message); the per-record reader accepted the last two
    ("set-magic", b"ESVX" + struct_set(_GOOD)[4:], "bad magic; not an ESVS"),
    ("record-magic", struct_set([(3, struct_record((1,), (0.5,), magic=b"ESAX"))]),
     "bad magic; not an ESAV"),
    ("version", struct_set([(3, struct_record((1,), (0.5,), version=2))]),
     "unsupported ESAV version 2"),
    ("space-tag", struct_set([(3, struct_record((1,), (0.5,), tag=7))]),
     "unknown ESAV space tag 7"),
    ("trailing", struct_set(_GOOD) + b"\0", "1 trailing bytes"),
    ("decreasing", struct_set([(3, struct_record((4, 1), (0.5, 0.25)))]), "strictly increasing"),
    ("repeated", struct_set([(3, struct_record((4, 4), (0.5, 0.25)))]), "strictly increasing"),
    ("nan", struct_set([(3, struct_record((1, 4), (0.5, float("nan"))))]), "weight nan is not"),
    ("negative", struct_set([(3, struct_record((1, 4), (-0.5, 0.25)))]), "weight -0.5 is not"),
    ("inf", struct_set([(3, struct_record((1,), (float("inf"),)))]), "weight inf is not"),
    # the first failing record's first failing check decides the message
    ("later-record", struct_set(_GOOD[:1] + [(5, struct_record((2, 1), (-1.0, 0.5)))]),
     "strictly increasing"),
    ("later-weight", struct_set([(3, struct_record((1, 4), (0.5, -0.25))),
                                 (5, struct_record((2, 1), (0.5, 0.5)))]), "weight -0.25 is not"),
    ("descending-keys", struct_set(_GOOD[::-1]), "ESVS key 3 after key 9: keys must strictly"),
    ("repeated-key", struct_set([_GOOD[0], _GOOD[0]]), "ESVS key 3 after key 3: keys must strictly"),
]


@pytest.mark.parametrize("name, buf, message", _BAD_SETS, ids=[c[0] for c in _BAD_SETS])
def test_esvs_loader_rejects(tmp_path, name, buf, message):
    path = tmp_path / "bad.esvs"
    path.write_bytes(buf)
    with pytest.raises(ValueError, match=message):
        load_vector_set(path)
    with pytest.raises(ValueError, match=message) as got:
        esa._read_vector_set(path)
    if "key" in name:  # the per-record reader let a later record replace or precede another
        assert sorted(per_record_load(path)) == ([3] if name == "repeated-key" else [3, 9])
    else:  # with the per-record reader's message
        with pytest.raises(ValueError) as want:
            per_record_load(path)
        assert str(got.value) == str(want.value)


def test_esvs_records_carry_the_concept_tag_and_any_other_tag_is_rejected(case, tmp_path):
    # every vector is in concept space: the writer puts tag 1 in each record,
    # and the reader refuses any other tag, the term-space tag 0 included
    path = tmp_path / "set.esvs"
    for name, vectors in vector_sets(case).items():
        save_vector_set(path, vectors)
        buf, offset = path.read_bytes(), 12
        for key in sorted(vectors):
            _key, magic, version, tag, nnz = esa._RECORD.unpack_from(buf, offset)
            assert (magic, version, tag) == (b"ESAV", 1, 1), (name, key)
            offset += esa._RECORD.size + nnz * esa._ENTRY.itemsize
        assert offset == len(buf), name
    path.write_bytes(struct_set([_GOOD[0], (9, struct_record((2,), (0.5,), tag=0))]))
    with pytest.raises(ValueError, match="^unknown ESAV space tag 0$"):
        load_vector_set(path)


def test_array_reader_rejects_every_truncation_as_the_per_record_reader_did(tmp_path):
    buf = struct_set(_GOOD + [(12, struct_record((0, 7, 9), (1.0, 0.5, 0.0)))])
    path = tmp_path / "cut.esvs"
    for n in range(len(buf)):
        path.write_bytes(buf[:n])
        with pytest.raises(ValueError) as got:
            esa._read_vector_set(path)
        with pytest.raises(ValueError) as want:
            per_record_load(path)
        assert str(got.value) == str(want.value)


def test_esvs_loader_rejects_every_truncation(tmp_path):
    buf = struct_set(_GOOD)
    path = tmp_path / "cut.esvs"
    path.write_bytes(buf)
    assert load_vector_set(path) == struct_load(buf)
    for n in range(len(buf)):
        path.write_bytes(buf[:n])
        with pytest.raises(ValueError, match="bad magic|truncated"):
            load_vector_set(path)


@pytest.mark.parametrize("dims", [(2**32,), (1, 2**40), (-1, 3)])
def test_esvs_writer_refuses_dims_outside_u32(tmp_path, dims):
    path = tmp_path / "wide.esvs"
    with pytest.raises(ValueError, match="unsigned 32-bit"):
        save_vector_set(path, {0: SparseVector(dims, (1.0,) * len(dims))})
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("key", [-1, 2**64])
def test_esvs_writer_refuses_keys_outside_u64(tmp_path, key):
    path = tmp_path / "keys.esvs"
    vectors = {0: SparseVector((1,), (1.0,)), key: SparseVector.zero()}
    for write in (save_vector_set, lambda p, v: pipeline._Cache(str(p.parent)).write(
            p.name, esa._vector_set_bytes(esa._VectorSet.of(v)))):
        with pytest.raises(ValueError, match=f"key {key} does not fit an unsigned 64-bit"):
            write(path, vectors)
        assert not list(tmp_path.iterdir())  # neither the target nor a *.tmp* file


@pytest.mark.parametrize("dims, weights, message", [
    ((1, 2), (1.0,), "dims and weights differ in length"),
    ((2, 1), (1.0, 1.0), "dimensions must be strictly increasing"),
    ((1, 1), (1.0, 1.0), "dimensions must be strictly increasing"),
    ((0, 1), (1.0, float("nan")), "weight nan is not finite and non-negative"),
    ((0,), (-2.5,), "weight -2.5 is not finite and non-negative"),
    ((0,), (float("-inf"),), "weight -inf is not finite and non-negative"),
    # the dims are made int64 before they are checked
    ((0.2, 0.7), (1.0, 1.0), "dimensions must be strictly increasing"),
], ids=["lengths", "descending", "repeated", "nan", "negative", "-inf", "float-dims"])
def test_constructor_rejects_with_its_message(dims, weights, message):
    for d, w in ((dims, weights), (np.array(dims), np.array(weights)), (iter(dims), iter(weights))):
        with pytest.raises(ValueError) as got:
            SparseVector(d, w)
        assert str(got.value) == message


def test_constructor_rejects_a_non_numeric_weight():
    with pytest.raises(ValueError):
        SparseVector((0,), ("heavy",))


def test_from_arrays_equals_constructor():
    # uint32 and float64 arrays build the same vector as tuples do
    dims, weights = (0, 3, 7, 2**32 - 1), (0.0, 1e-300, 2.5, 0.5)
    got = SparseVector(np.array(dims, np.uint32), np.array(weights))
    assert got == SparseVector(dims, weights)
    assert hash(got) == hash(SparseVector(dims, weights))


# -- SparseVector arithmetic: the tuple loops it replaced, as oracles --------

def test_relatedness_equals_tuple_oracle_on_every_term_pair(case):
    index = case.index
    words = []
    for tid in range(len(index.vocabulary)):
        dims, weights = _word_entries(case.views, tid)
        words.append(SparseVector(tuple(dims), tuple(weights)))
    for a, va in enumerate(words):
        for b, vb in enumerate(words):
            assert relatedness(index, a, b) == min(1.0, max(0.0, tuple_cosine(va, vb)))


def test_relatedness_equals_word_vector_cosine_on_long_columns():
    # the benchmark's 400-page tree, whose columns reach df 237 where the
    # cases above hold a few concepts per term; pairs are drawn by column
    # length, so long columns meet long and short ones
    store, _labels = gen_synthetic_wiki(1, **_bench_corpora().TREE_FULL)
    analyzer = Analyzer()
    index = build_index(store, analyzer, build_vocabulary(store, analyzer, 1))
    words = [word_vector(index, t) for t in range(len(index.vocabulary))]
    lengths = [w.nnz for w in words]
    assert max(lengths) == 237
    rng = random.Random(1)
    terms = range(len(words))
    pairs = list(zip(rng.choices(terms, lengths, k=2000), rng.choices(terms, lengths, k=2000)))
    pairs += [(t, t) for t in terms]
    # no term of this corpus has a zero norm: the cases above cover those
    pairs += [p for t in terms if words[t].norm() == 0.0 for p in ((t, 0), (0, t))]
    for a, b in pairs:
        va, vb = words[a], words[b]
        na, nb = va.norm(), vb.norm()
        want = 0.0 if na == 0.0 or nb == 0.0 else min(1.0, max(0.0, va.dot(vb) / (na * nb)))
        assert relatedness(index, a, b).hex() == want.hex(), (a, b)
        # dot shares relatedness's kernel, so the tuple loop checks its sum
        assert va.dot(vb) == tuple_dot(va, vb), (a, b)


def edge_bits(edges):
    """Each edge with the bit patterns of its ``p`` and ``cost``."""
    assert all(type(e.p) is float and type(e.cost) is float for e in edges)
    return [(e.src, e.dst, e.kind, e.p.hex(), e.cost.hex()) for e in edges]


def test_weight_edges_equal_tuple_oracle_on_every_edge(case):
    assert len(case.edges) == len(list(case.graph.edges()))
    for edge in case.edges:
        p = min(1.0, max(0.0, tuple_dot(case.vectors[edge.src], case.vectors[edge.dst])))
        assert (edge.p, edge.cost) == (p, 1.0 - p)
    assert edge_bits(case.edges) == edge_bits(loop_weight_edges(case.graph, case.vectors))


def test_weight_edges_dots_each_pair_of_vector_objects_once(case, monkeypatch):
    # one vector object per component, as the pipeline hands them over
    by_comp = {comp: case.vectors[Node.category(cid)] for cid, comp in case.ls.comp_of.items()}
    shared = {node: by_comp[case.ls.comp_of[node.id]] if node.kind == CATEGORY else v
              for node, v in case.vectors.items()}
    summed, real = [], catgraph._ordered_sums  # the number of pairs each call sums
    monkeypatch.setattr(catgraph, "_ordered_sums", lambda values, segments, n: (
        summed.append(n), real(values, segments, n))[1])
    edges = weight_edges(case.graph, shared)
    monkeypatch.undo()
    pairs = {(id(shared[src]), id(shared[dst])) for src, dst, _kind in case.graph.edges()}
    assert sum(summed) == len(pairs)
    assert edge_bits(edges) == edge_bits(case.edges)
    assert edge_bits(edges) == edge_bits(loop_weight_edges(case.graph, shared))


def test_weights_stage_equals_the_loop_oracle_over_one_vector_per_component(case):
    """``_edge_weights`` over the page set and one category row per component,
    as the ``weights`` stage calls it, against the loop over vector objects:
    its p, and the cost ``1.0 - p``, of each of ``g.edges()`` in order."""
    first = case.ls.smallest_ids()
    cats = esa._VectorSet.of({cid: case.vectors[Node.category(cid)] for cid in first})
    pages = esa._VectorSet.of({pid: case.vectors[Node.page(pid)] for pid in case.index.page_ids})
    page_rows = {pid: i for i, pid in enumerate(pages.keys)}
    p = catgraph._edge_weights(case.graph, pages, page_rows, cats, case.ls.comp_of)
    shared = {node: case.vectors[Node.category(first[case.ls.comp_of[node.id]])]
              if node.kind == CATEGORY else v for node, v in case.vectors.items()}
    assert p.dtype == np.float64
    edges = [catgraph.WeightedEdge(*edge, w, c) for edge, w, c in zip(
        case.graph.edges(), p.tolist(), (1.0 - p).tolist(), strict=True)]
    assert edge_bits(edges) == edge_bits(loop_weight_edges(case.graph, shared))


_WEIGHTS = st.one_of(st.sampled_from([0.0, 1e-300, 1.0]),
                     st.floats(min_value=0.0, max_value=1e100, allow_subnormal=True))


@st.composite
def sparse_vectors(draw, pool=(0, 1, 2, 3, 5, 8, 13, 2**31, 2**32 - 2, 2**32 - 1)):
    dims = sorted(draw(st.sets(st.sampled_from(pool))))
    return SparseVector(tuple(dims), tuple(draw(_WEIGHTS) for _ in dims))


@settings(max_examples=400, deadline=None)
@given(sparse_vectors(), sparse_vectors())
@example(SparseVector.zero(), SparseVector.zero())
@example(SparseVector.zero(), SparseVector((0, 2**32 - 1), (1.0, 0.5)))
@example(SparseVector((0, 2), (1.0, 2.0)), SparseVector((1, 2**32 - 1), (3.0, 1e-300)))
@example(SparseVector((5, 2**32 - 1), (1e-300, 0.0)), SparseVector((2**32 - 1,), (1e-300,)))
def test_vector_arithmetic_equals_tuple_oracle(a, b):
    for x, y in ((a, b), (b, a)):
        assert x.norm() == tuple_norm(x)
        got, want = x.dot(y), tuple_dot(x, y)
        assert (got, type(got)) == (want, float)
        assert x.cosine(y) == tuple_cosine(x, y)
        unit, want_unit = x.unit(), tuple_unit(x)
        assert unit == want_unit
        assert hash(unit) == hash(want_unit)
        assert unit.weights == want_unit.weights
        assert x.to_dict() == dict(zip(x.dims, x.weights))


# -- catgraph.weight_edges: one batch of dots, against the per-pair loop ------

# its dot with itself rounds to 1.0000000000000002, which p clamps to 1.0
_UNIT_ABOVE_ONE = SparseVector((0, 1), (1.0, 5.0)).unit()


def _weighted_graph(vectors, node_vectors, membership, inclusion):
    """A graph over the ids the edges name, and each node's vector object:
    page p has ``vectors[node_vectors[p]]``, category c the one at ``len(pages) + c``."""
    pages = sorted({p for p, _c in membership})
    cats = sorted({c for _p, c in membership} | {c for edge in inclusion for c in edge} | {0})
    g = catgraph.CategoryGraph(frozenset(pages), frozenset(cats), frozenset(membership),
                               frozenset(inclusion), 0)
    nodes = [Node.page(p) for p in pages] + [Node.category(c) for c in cats]
    return g, {n: vectors[node_vectors[i % len(node_vectors)]] for i, n in enumerate(nodes)}


@st.composite
def weighted_graphs(draw):
    """A small graph, whose nodes share a few vector objects."""
    vectors = draw(st.lists(sparse_vectors(), min_size=1, max_size=4))
    ids = st.integers(0, 5)
    membership = draw(st.sets(st.tuples(ids, ids), max_size=10))
    inclusion = draw(st.sets(st.tuples(ids, ids), max_size=10))
    node_vectors = draw(st.lists(st.integers(0, len(vectors) - 1), min_size=1, max_size=12))
    return _weighted_graph(vectors, node_vectors, membership, inclusion)


_SOME_PAIRS = ({(0, 0), (1, 0), (2, 1), (3, 2)}, {(1, 0), (2, 0), (2, 1), (0, 2), (1, 1)})


@settings(max_examples=300, deadline=None)
@given(weighted_graphs(), st.sampled_from([1, 2, 7, esa._BLOCK]))
@example(_weighted_graph([SparseVector.zero()], [0], *_SOME_PAIRS), esa._BLOCK)  # empty vectors
@example(_weighted_graph([SparseVector((0, 2**32 - 1), (1.0, 0.5)),
                          SparseVector((1, 5), (3.0, 1.0)), SparseVector.zero()],
                         [0, 1, 2], *_SOME_PAIRS), 1)  # disjoint dims
@example(_weighted_graph([_UNIT_ABOVE_ONE], [0], *_SOME_PAIRS), 2)  # one object on every node
@example(_weighted_graph([_UNIT_ABOVE_ONE, SparseVector((0, 1), (1.0, 5.0)).unit()], [0, 1, 1],
                         *_SOME_PAIRS), 1)  # equal unit vectors, as one object and as two
def test_weight_edges_equal_the_loop_oracle_bit_for_bit(graph, block):
    # a block of 1 or 2 cells holds one pair per chunk, 7 a few: more pairs than one chunk holds
    g, vectors = graph
    with mock.patch.object(catgraph, "_BLOCK", block):
        got = weight_edges(g, vectors)
    assert edge_bits(got) == edge_bits(loop_weight_edges(g, vectors))


def test_identical_unit_vectors_clamp_at_one():
    assert _UNIT_ABOVE_ONE.dot(_UNIT_ABOVE_ONE) > 1.0
    g, vectors = _weighted_graph([_UNIT_ABOVE_ONE], [0], {(0, 0)}, {(1, 0)})
    assert [(e.p, e.cost) for e in weight_edges(g, vectors)] == [(1.0, 0.0), (1.0, 0.0)]


# -- catgraph._formatted: each distinct bit pattern formatted once ------------

def _with_neighbours(x):
    return [x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)]


_FORMATTED_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                     0.1, 1.0, math.inf, -math.inf]),
    st.floats(allow_subnormal=True)).map(_with_neighbours)


@settings(max_examples=300, deadline=None)
@given(st.lists(_FORMATTED_FLOATS, max_size=20).map(lambda xs: [x for t in xs for x in t]),
       st.randoms(use_true_random=False))
@example([0.0, -0.0, 0.0, -0.0], random.Random(0))  # equal as floats, not as bits
@example([], random.Random(0))
def test_formatted_floats_equal_format_value_by_value(values, rnd):
    values = values + rnd.sample(values, len(values))  # each value more than once
    got = catgraph._formatted(np.array(values, np.float64), ".17g")
    assert got == [format(v, ".17g") for v in values]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2**63, 2**63 - 1) | st.sampled_from([0, 1, -1, 10**18]),
                max_size=30))
def test_formatted_integers_equal_format_value_by_value(values):
    values = values + values[::-1]
    assert catgraph._formatted(np.array(values, np.int64), "d") == [format(v, "d") for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
def test_percent_formatting_equals_format_on_any_bit_pattern(patterns):
    """_formatted writes by "%" + spec: on raw float64 bit patterns (NaNs
    with any payload and sign, infinities, -0.0, subnormals) and on the
    int64 values of the same bits, it gives format(v, spec)'s text."""
    bits = np.array(patterns, np.uint64)
    for dtype, spec in ((np.float64, ".17g"), (np.int64, "d")):
        values = bits.view(dtype)
        assert catgraph._formatted(values, spec) == [format(v, spec) for v in values.tolist()]


# -- esa._ordered_sums: the one float sum, against a left-to-right loop -------

# signed zeros, the smallest subnormal, the smallest normal, and terms that
# cancel; the drawn floats stay far enough from the largest float that no
# sum of 40 overflows
_SUMMANDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.floats(min_value=-1e300, max_value=1e300, allow_subnormal=True))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), _SUMMANDS), max_size=40), st.integers(0, 3))
@example([], 0)
@example([], 3)
@example([(0, 1e16), (0, 1.0), (0, -1e16)], 0)  # cancellation: 0.0, where fsum gives 1.0
@example([(1, 1e16), (0, -0.0), (1, 1.0), (3, 5e-324), (1, -1e16), (0, -0.0)], 1)
@example([(2, -0.0), (2, -0.0)], 0)
def test_ordered_sums_equal_a_left_to_right_loop(entries, empty_tail):
    # segments interleave, and those without entries (gaps below the
    # largest id, and the empty tail) sum to 0.0
    n = max((seg for seg, _x in entries), default=-1) + 1 + empty_tail
    segments = np.array([seg for seg, _x in entries], np.intp)
    values = [x for _seg, x in entries]
    want = np.array([left_to_right_sum(x for seg, x in entries if seg == i)
                     for i in range(n)], np.float64)
    for given_values in (values, np.array(values, np.float64)):
        got = esa._ordered_sums(given_values, segments, n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == want.tobytes()  # bit for bit, the sign of a zero included


def test_term_norms_equal_each_word_vectors_norm(case):
    index = case.index
    assert len(index._term_norms) == len(index.vocabulary)
    for tid, norm in enumerate(index._term_norms):
        assert type(norm) is float
        assert norm == word_vector(index, tid).norm()


def test_dims_and_weights_are_tuples_of_int_and_float(tmp_path):
    built = SparseVector(np.array([0, 7, 2**32 - 1], np.uint32), np.array([0.5, 0.0, 1e-300]))
    save_vector_set(tmp_path / "set.esvs", {3: built})
    loaded = load_vector_set(tmp_path / "set.esvs")[3]
    for vec in (built, loaded, built.unit(), SparseVector((1, 4), (2, 0.5)),
                SparseVector.from_dict({4: 1.5, 2: 1.0})):
        assert type(vec.dims) is tuple and type(vec.weights) is tuple
        assert all(type(d) is int for d in vec.dims)
        assert all(type(w) is float for w in vec.weights)
        assert vec.dims is vec.dims and vec.weights is vec.weights
    assert loaded == built
    assert loaded.dims == (0, 7, 2**32 - 1)
    assert loaded.weights == (0.5, 0.0, 1e-300)


def test_vectors_are_immutable(fixture_index, tmp_path):
    save_vector_set(tmp_path / "set.esvs", {0: SparseVector((1, 4), (0.5, 0.25))})
    vecs = [
        SparseVector((1, 4), (0.5, 0.25)),
        SparseVector((1, 4), (0.5, 0.25)).unit(),
        load_vector_set(tmp_path / "set.esvs")[0],
        word_vector(fixture_index, 0),
        concept_vectors(fixture_index, [{0: 1.0}])[0],
        loop_index(fixture_index.page_term_freqs,
                   fixture_index.vocabulary)["page_vectors"][fixture_index.page_ids[0]],
    ]
    for vec in vecs:
        assert not vec.is_zero() and not hasattr(vec, "space")
        before = (vec.dims, vec.weights)
        for arr in (vec._dims, vec._weights):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        for name in ("dims", "weights", "_dims", "_weights", "nnz", "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(vec, name, ())
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(vec, name)
        assert (vec.dims, vec.weights) == before
        assert pickle.loads(pickle.dumps(vec)) == copy.deepcopy(vec) == vec
    # word vectors are views of the index's term columns, read-only too
    for arr in fixture_index.term_columns:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_loaded_vectors_hold_copies_not_the_read_buffer(tmp_path):
    save_vector_set(tmp_path / "set.esvs", {0: SparseVector((1, 4), (0.5, 0.25))})
    vec = load_vector_set(tmp_path / "set.esvs")[0]
    assert vec._dims.dtype == np.int64 and vec._weights.dtype == np.float64
    assert vec._dims.flags.owndata and vec._weights.flags.owndata


def test_load_vector_set_retains_at_most_24_bytes_per_entry(tmp_path):
    rng = np.random.default_rng(0)
    n_vectors, nnz = 250, 400
    vecs = {key: SparseVector(np.sort(rng.choice(1000, nnz, replace=False)), rng.random(nnz))
            for key in range(n_vectors)}
    path = tmp_path / "big.esvs"
    save_vector_set(path, vecs)
    del vecs
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_vector_set(path)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = sum(v.nnz for v in loaded.values())
    assert entries >= 100_000
    assert retained / entries <= 24


# -- esa._blocks: the one rule by which every batched pass cuts its blocks ---

@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 20), max_size=30), st.integers(0, 40))
@example([], 1)
@example([0, 0, 5, 0], 1)  # free items join a run within the limit, not one past it
@example([3, 50, 3, 3], 6)  # an item over the limit is a run of its own
def test_blocks_are_maximal_greedy_runs(costs, limit):
    runs = esa._blocks(costs, limit)
    assert esa._blocks(np.array(costs, np.int64), limit) == runs
    # consecutive, covering every item once, in order
    assert [i for start, stop in runs for i in range(start, stop)] == list(range(len(costs)))
    for start, stop in runs:
        total = sum(costs[start:stop])
        assert stop > start and (total <= limit or stop - start == 1)
        # maximal: the next item would take the run past the limit
        assert stop == len(costs) or total + costs[stop] > limit


@pytest.mark.parametrize("name", ["_csr_vectors", "_vector_set_bytes", "_component_tables",
                                  "_pair_dots"])
def test_a_block_of_one_puts_each_item_in_a_run_of_its_own(name, fixture_index,
                                                            fixture_leaf_sets, tmp_path,
                                                            monkeypatch):
    """``_BLOCK = 1`` in the pass's own module, as the block-size patches
    in this file set it, reaches the pass: every item (each costing at
    least 1) is a run of its own."""
    index, ls = fixture_index, fixture_leaf_sets
    pages = esa._csr_vectors(index, index_rows(index, index.tfidfs))
    nonzero = esa._VectorSet.of({k: v for k, v in pages.vectors().items() if v.nnz})
    comps = [c for c, leaves in enumerate(ls.comp_pages)
             if any(index._slices[p].stop > index._slices[p].start for p in leaves)]
    rows = list(range(len(pages.keys)))
    module, run = {
        "_csr_vectors": (esa, lambda: esa._csr_vectors(index, index_rows(index, index.tfidfs))),
        "_vector_set_bytes": (esa, lambda: b"".join(esa._vector_set_bytes(nonzero))),
        "_component_tables": (catgraph, lambda: _component_tables(index, ls, comps, None)),
        "_pair_dots": (catgraph, lambda: catgraph._pair_dots(pages, rows, pages, rows[::-1])),
    }[name]
    real, seen = esa._blocks, []

    def spy(costs, limit):
        seen.append((limit, len(costs), real(costs, limit)))
        return seen[-1][2]

    monkeypatch.setattr(module, "_blocks", spy)
    monkeypatch.setattr(module, "_BLOCK", 1)
    run()
    [(limit, n, runs)] = seen
    assert limit == 1 and n > 1 and runs == [(i, i + 1) for i in range(n)]
