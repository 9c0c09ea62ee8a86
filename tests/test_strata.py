import numpy as np
import pytest

from wikistrata import strata
from wikistrata.arbor import _chains, ancestors, chu_liu_edmonds, reverse_and_cost
from wikistrata.catgraph import (
    CATEGORY,
    Node,
    category_term_weights,
    category_vector,
    weight_edges,
)
from wikistrata.esa import document_vector, tfidf
from wikistrata.strata import (
    PRESETS,
    StrataConfig,
    StrataVectorizer,
)

from conftest import tree_arrays
from oracles import comp_map, leaf_set_index


@pytest.fixture(scope="module")
def fixture_arb(fixture_graph, fixture_index, fixture_leaf_sets):
    voc = fixture_index.vocabulary
    vectors = {
        Node.category(c): category_vector(c, fixture_index, fixture_leaf_sets, 1000)
        for c in fixture_graph.category_ids
    }
    for pid in fixture_index.page_ids:
        terms = [
            voc.id_to_term[t]
            for t, f in sorted(fixture_index.page_term_freqs[pid].items())
            for _ in range(f)
        ]
        vectors[Node.page(pid)] = document_vector(fixture_index, terms)
    edges = weight_edges(fixture_graph, vectors)
    return chu_liu_edmonds(
        reverse_and_cost(fixture_graph, edges, fixture_graph.root_id)
    )


@pytest.fixture(scope="module")
def vectorizer(fixture_index, fixture_leaf_sets, fixture_arb):
    return StrataVectorizer(fixture_index, fixture_leaf_sets, fixture_arb,
                            StrataConfig())


class TestStrataConfig:
    def test_defaults(self):
        cfg = StrataConfig()
        assert cfg.lambdas == (0.5, 0.25, 0.125)

    def test_presets(self):
        assert StrataConfig(lambdas=PRESETS["half"]).lambdas == (0.5, 0.25, 0.125)
        assert StrataConfig(lambdas=PRESETS["tenth"]).lambdas == (0.1, 0.05, 0.025)
        assert StrataConfig(lambdas=PRESETS["flat"]).lambdas == (1.0, 1.0, 1.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            StrataConfig(lambdas=(0.5, -0.1, 0.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e400])
    def test_non_finite_lambda_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            StrataConfig(lambdas=(bad, 0.0))

    def test_increasing_rejected_by_default(self):
        # lambda = 0 skips a level, but the levels after it may not rise
        for lambdas in ((0.1, 0.5, 0.2), (0.7, 0.0, 0.3)):
            with pytest.raises(ValueError, match="non-increasing"):
                StrataConfig(lambdas=lambdas)

    @pytest.mark.parametrize("max_nnz", [-1, 0, 2.5, True])
    def test_max_nnz_must_be_a_positive_integer(self, max_nnz):
        with pytest.raises(ValueError, match="max_nnz"):
            StrataConfig(max_nnz=max_nnz)

    @pytest.mark.parametrize("flag", ["false", 0, None])
    def test_use_truncated_support_must_be_a_bool(self, flag):
        with pytest.raises(ValueError, match="use_truncated_support"):
            StrataConfig(use_truncated_support=flag)

    def test_flat_preset_needs_flag(self):
        # flat is non-increasing: ties are allowed, and no flag is needed
        assert StrataConfig(lambdas=PRESETS["flat"]).lambdas == (1.0, 1.0, 1.0)


class TestAncestorChain:
    def test_page_chain_skips_the_page_itself(self, vectorizer, fixture_arb):
        for pid in vectorizer.index.page_ids:
            chain = vectorizer._ancestor_categories(pid)
            assert Node.page(pid) not in [Node.category(c) for c in chain]
            assert len(chain) <= 3
            # the chain must be a prefix of the walk up the tree
            v = Node.page(pid)
            for cid in chain:
                v = fixture_arb.parent[v][0]
                assert v == Node.category(cid)

    def test_root_child_has_short_chain(self, vectorizer, fixture_arb):
        # a page attached directly under the root has exactly one ancestor
        direct = [
            p for p in vectorizer.index.page_ids
            if fixture_arb.parent[Node.page(p)][0] == fixture_arb.root
        ]
        for pid in direct:
            assert vectorizer._ancestor_categories(pid) == [fixture_arb.root.id]

    @pytest.mark.parametrize("lambdas", [(), (0.5,), (0.5, 0.25), (0.5, 0.25, 0.125),
                                         (0.5,) * 6])
    def test_each_parent_chain_is_walked_once(self, fixture_index, fixture_leaf_sets,
                                              fixture_arb, monkeypatch, lambdas):
        v = StrataVectorizer(fixture_index, fixture_leaf_sets, fixture_arb,
                             StrataConfig(lambdas=lambdas))
        for pid in fixture_index.page_ids:
            chain = ancestors(fixture_arb, Node.page(pid), len(lambdas))
            assert v._ancestor_categories(pid) == [n.id for n in chain if n.kind == CATEGORY]
        walks = []
        monkeypatch.setattr(strata, "_chains", lambda parent, start, k: walks.append(
            start.tolist()) or _chains(parent, start, k))
        levels = strata._level_weights(fixture_index, fixture_leaf_sets,
                                       *tree_arrays(fixture_arb), len(lambdas), v._lookup)
        # one batched walk over the tree's parent array starts once from
        # each page with terms, and none without a level; each chain is
        # read at every level
        _nodes, label, _parent, _cost = fixture_arb._arrays
        with_terms = fixture_index._page_array[np.diff(fixture_index.row_ptr) > 0].tolist()
        assert [sorted(start) for start in walks] == [
            sorted(label[Node.page(p)] for p in with_terms) if lambdas else []]
        assert len(levels) == len(lambdas)
        for pid in fixture_index.page_ids:
            s = fixture_index._slices[pid]
            chain = v._ancestor_categories(pid)
            for level, weights in enumerate(levels):
                assert weights[s].tolist() == [
                    v.stratum_weight(t, chain[level]) if level < len(chain) else 0.0
                    for t in fixture_index.term_ids[s].tolist()]

    def test_a_page_outside_the_tree_raises(self, vectorizer):
        with pytest.raises(KeyError):
            vectorizer._ancestor_categories(max(vectorizer.index.page_ids) + 1)


class TestStratifiedTfidf:
    def test_zero_lambdas_reduce_to_classical(self, fixture_index, fixture_leaf_sets, fixture_arb):
        cfg = StrataConfig(lambdas=(0.0, 0.0, 0.0))
        v = StrataVectorizer(fixture_index, fixture_leaf_sets, fixture_arb, cfg)
        for pid in fixture_index.page_ids:
            for tid, f in fixture_index.page_term_freqs[pid].items():
                expect = tfidf(f, fixture_index.vocabulary.df(tid), fixture_index.n_pages)
                assert v.stratified_tfidf(tid, pid) == expect

    def test_hand_assembled_oracle(self, fixture_index, fixture_leaf_sets, fixture_arb):
        cfg = StrataConfig(lambdas=(0.5, 0.25, 0.125))
        v = StrataVectorizer(fixture_index, fixture_leaf_sets, fixture_arb, cfg)
        lambdas = cfg.lambdas
        for pid in fixture_index.page_ids:
            chain = v._ancestor_categories(pid)
            supports = [
                category_term_weights(c, fixture_index, fixture_leaf_sets, cfg.max_nnz)
                for c in chain
            ]
            for tid, f in fixture_index.page_term_freqs[pid].items():
                expect = tfidf(f, fixture_index.vocabulary.df(tid), fixture_index.n_pages)
                for lam, sup in zip(lambdas, supports):
                    expect += lam * sup.get(tid, 0.0)
                assert v.stratified_tfidf(tid, pid) == pytest.approx(expect, abs=1e-12)

    def test_absent_term_gets_ancestor_weight_only(self, vectorizer, fixture_index):
        voc = fixture_index.vocabulary
        tid = voc.term_to_id["quantum"]
        # page 0 (music) does not contain "quantum"
        assert tid not in fixture_index.page_term_freqs[0]
        got = vectorizer.stratified_tfidf(tid, 0)
        chain = vectorizer._ancestor_categories(0)
        expect = sum(
            lam * vectorizer.stratum_weight(tid, c)
            for lam, c in zip(vectorizer.cfg.lambdas, chain)
        )
        assert got == pytest.approx(expect, abs=1e-12)

    def test_monotone_in_lambdas(self, fixture_index, fixture_leaf_sets, fixture_arb):
        small = StrataVectorizer(fixture_index, fixture_leaf_sets, fixture_arb,
                                 StrataConfig(lambdas=(0.1, 0.05, 0.025)))
        big = StrataVectorizer(fixture_index, fixture_leaf_sets, fixture_arb,
                               StrataConfig(lambdas=(0.5, 0.25, 0.125)))
        for pid in fixture_index.page_ids:
            for tid in fixture_index.page_term_freqs[pid]:
                assert big.stratified_tfidf(tid, pid) >= small.stratified_tfidf(tid, pid) - 1e-12

    def test_unknown_page_raises(self, vectorizer):
        with pytest.raises(KeyError):
            vectorizer.stratified_tfidf(0, 999)

    def test_fresh_vectorizer_matches_built_rows(self, fixture_index, fixture_leaf_sets,
                                                 fixture_arb):
        # a vectorizer's first call builds the tables; another's rows are built
        cfg = StrataConfig()
        built = StrataVectorizer(fixture_index, fixture_leaf_sets, fixture_arb, cfg)
        for pid in fixture_index.page_ids:
            for tid, weight in built.row(pid).items():
                fresh = StrataVectorizer(fixture_index, fixture_leaf_sets, fixture_arb, cfg)
                assert fresh.stratified_tfidf(tid, pid) == weight


class TestStratifiedDocumentVector:
    def test_zero_lambdas_bit_identical_to_baseline(
        self, fixture_index, fixture_leaf_sets, fixture_arb
    ):
        cfg = StrataConfig(lambdas=(0.0, 0.0, 0.0))
        voc = fixture_index.vocabulary
        for pid in fixture_index.page_ids:
            freqs = fixture_index.page_term_freqs[pid]
            terms = [voc.id_to_term[t] for t, f in sorted(freqs.items()) for _ in range(f)]
            base = document_vector(fixture_index, terms)
            strat = StrataVectorizer(fixture_index, fixture_leaf_sets, fixture_arb,
                                     cfg).document_vector(pid)
            assert strat == base

    def test_unit_norm_or_zero(self, vectorizer, fixture_index):
        for pid in fixture_index.page_ids:
            vec = vectorizer.document_vector(pid)
            assert vec.is_zero() or abs(vec.norm() - 1.0) <= 1e-9

    def test_support_never_grows(self, vectorizer, fixture_index):
        # ancestors reweight a page's own terms; they add no new terms, so
        # the concept support of the stratified vector stays within the
        # union of the concepts touched by the page's terms
        from wikistrata.esa import word_vector

        for pid in fixture_index.page_ids:
            allowed = set()
            for tid in fixture_index.page_term_freqs[pid]:
                allowed.update(word_vector(fixture_index, tid).dims)
            vec = vectorizer.document_vector(pid)
            assert set(vec.dims) <= allowed

    def test_deterministic(self, vectorizer, fixture_index):
        pid = next(iter(fixture_index.page_ids))
        assert vectorizer.document_vector(pid) == vectorizer.document_vector(pid)

    def test_untruncated_mode_runs(self, fixture_index, fixture_leaf_sets, fixture_arb):
        cfg = StrataConfig(use_truncated_support=False)
        v = StrataVectorizer(fixture_index, fixture_leaf_sets, fixture_arb, cfg)
        for pid in fixture_index.page_ids:
            vec = v.document_vector(pid)
            assert vec.is_zero() or abs(vec.norm() - 1.0) <= 1e-9

    def test_truncation_changes_nothing_when_cap_is_large(
        self, fixture_index, fixture_leaf_sets, fixture_arb
    ):
        big = StrataVectorizer(fixture_index, fixture_leaf_sets, fixture_arb,
                               StrataConfig(max_nnz=10_000))
        default = StrataVectorizer(fixture_index, fixture_leaf_sets, fixture_arb,
                                   StrataConfig())
        for pid in fixture_index.page_ids:
            assert big.document_vector(pid) == default.document_vector(pid)


@pytest.mark.parametrize("unknown", [3, 9])
def test_stratum_weight_raises_key_error_for_an_unknown_category(
        fixture_index, fixture_leaf_sets, fixture_arb, vectorizer, unknown):
    """The fixture's leaf sets under the even ids 0, 2, ..., 8: an odd id
    between two of them, or above the largest, names no category."""
    ls = fixture_leaf_sets
    even = leaf_set_index({2 * c: k for c, k in comp_map(ls).items()},
                          [ls.pages_of(c) for c in ls.smallest_ids()])
    spread = StrataVectorizer(fixture_index, even, fixture_arb, StrataConfig())
    for c in comp_map(ls):
        for tid in range(len(fixture_index.vocabulary)):
            assert spread.stratum_weight(tid, 2 * c) == vectorizer.stratum_weight(tid, c)
    with pytest.raises(KeyError):
        spread.stratum_weight(0, unknown)
