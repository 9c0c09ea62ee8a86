import random
from collections import Counter

import numpy as np
import pytest

from wikistrata import corpus as corpus_mod, evaluate
from wikistrata.esa import CONCEPT_SPACE, SparseVector
from wikistrata.evaluate import LabeledCorpus, cross_validate, split_folds
from wikistrata.pipeline import run_pipeline

from oracles import CentroidModel, classify, row_mean, train_centroid
from test_kernel import _bench_corpora


def make_corpus(n_per_class, classes=("a", "b")):
    docs = []
    labels = {}
    i = 0
    for cls in classes:
        for _ in range(n_per_class):
            docs.append((i, ("w",)))
            labels[i] = cls
            i += 1
    return LabeledCorpus(documents=tuple(docs), labels=labels)


class TestLabeledCorpus:
    def test_missing_label_rejected(self):
        with pytest.raises(ValueError):
            LabeledCorpus(documents=((0, ("x",)),), labels={})

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            LabeledCorpus(documents=((0, ("x",)), (1, ("y",))),
                          labels={0: "a", 1: "a"})

    def test_classes_sorted(self):
        c = LabeledCorpus(documents=((0, ()), (1, ())), labels={0: "b", 1: "a"})
        assert c.classes == ("a", "b")


class TestSplitFolds:
    def test_exact_stratification(self):
        # 20 docs, 2 classes, k=10: each fold holds exactly one of each class
        corpus = make_corpus(10)
        folds = split_folds(corpus, k=10, seed=0)
        assert len(folds) == 10
        for fold in folds:
            assert len(fold) == 2
            assert Counter(corpus.labels[d] for d in fold) == {"a": 1, "b": 1}

    def test_partition_property(self):
        corpus = make_corpus(13, classes=("a", "b", "c"))
        folds = split_folds(corpus, k=5, seed=3)
        flat = [d for f in folds for d in f]
        assert sorted(flat) == sorted(corpus.doc_ids)

    def test_balanced_within_one(self):
        corpus = make_corpus(13, classes=("a", "b", "c"))
        for seed in range(5):
            folds = split_folds(corpus, k=5, seed=seed)
            for cls in corpus.classes:
                counts = [sum(1 for d in f if corpus.labels[d] == cls) for f in folds]
                assert max(counts) - min(counts) <= 1

    def test_seed_determinism_and_variation(self):
        corpus = make_corpus(20)
        a = split_folds(corpus, k=4, seed=7)
        b = split_folds(corpus, k=4, seed=7)
        c = split_folds(corpus, k=4, seed=8)
        assert a == b
        assert a != c

    def test_too_few_documents_per_class(self):
        corpus = make_corpus(3)
        with pytest.raises(ValueError):
            split_folds(corpus, k=4)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            split_folds(make_corpus(5), k=1)


class TestCentroid:
    def test_single_vector_class_is_that_vector(self):
        v = SparseVector.from_dict({0: 3.0, 2: 4.0}, CONCEPT_SPACE)
        model = train_centroid({0: v, 1: SparseVector.from_dict({5: 1.0}, CONCEPT_SPACE)},
                               {0: "a", 1: "b"})
        assert model.centroids["a"] == v.unit()

    def test_mean_of_two_unit_vectors(self):
        e0 = SparseVector.from_dict({0: 1.0}, CONCEPT_SPACE)
        e1 = SparseVector.from_dict({1: 1.0}, CONCEPT_SPACE)
        model = train_centroid({0: e0, 1: e1}, {0: "a", 1: "a"})
        # fails without a second class? train_centroid has no class-count rule
        got = model.centroids["a"]
        r = 1 / np.sqrt(2)
        assert got.dims == (0, 1)
        assert got.weights == pytest.approx((r, r))

    def test_classify_matches_dense_argmax_oracle(self):
        rng = random.Random(5)
        dim = 12
        classes = ["a", "b", "c"]
        vectors = {}
        labels = {}
        for i in range(30):
            dense = [rng.random() for _ in range(dim)]
            vectors[i] = SparseVector.from_dict(
                {d: w for d, w in enumerate(dense) if w > 0.3}, CONCEPT_SPACE
            )
            labels[i] = classes[i % 3]
        model = train_centroid(vectors, labels)
        cents = {
            c: np.array([dict(zip(v.dims, v.weights)).get(d, 0.0) for d in range(dim)])
            for c, v in model.centroids.items()
        }
        for i, v in vectors.items():
            dense = np.array([dict(zip(v.dims, v.weights)).get(d, 0.0) for d in range(dim)])
            scores = {}
            for c, cv in cents.items():
                denom = np.linalg.norm(cv) * np.linalg.norm(dense)
                scores[c] = float(cv @ dense / denom) if denom else 0.0
            best = max(sorted(scores), key=lambda c: scores[c])
            # resolve float ties like classify: first class wins
            tied = [c for c in sorted(scores) if abs(scores[c] - scores[best]) < 1e-15]
            assert classify(model, v) in tied

    def test_tie_goes_to_first_class(self):
        model = CentroidModel(centroids={
            "b": SparseVector.from_dict({0: 1.0}, CONCEPT_SPACE),
            "a": SparseVector.from_dict({1: 1.0}, CONCEPT_SPACE),
        })
        probe = SparseVector.from_dict({0: 1.0, 1: 1.0}, CONCEPT_SPACE)
        assert classify(model, probe) == "a"

    def test_zero_vector_ties_to_first_class(self):
        model = CentroidModel(centroids={
            "b": SparseVector.from_dict({0: 1.0}, CONCEPT_SPACE),
            "a": SparseVector.from_dict({1: 1.0}, CONCEPT_SPACE),
        })
        assert classify(model, SparseVector.zero(CONCEPT_SPACE)) == "a"


class TestCrossValidate:
    def separable(self, n_per_class=10):
        corpus = make_corpus(n_per_class, classes=("a", "b"))
        vectors = {}
        for doc_id in corpus.doc_ids:
            axis = 0 if corpus.labels[doc_id] == "a" else 1
            vectors[doc_id] = SparseVector.from_dict({axis: 1.0}, CONCEPT_SPACE)
        return corpus, vectors

    def test_separable_classes_perfect_accuracy(self):
        corpus, vectors = self.separable()
        report = cross_validate(corpus, vectors, k=5, seed=0)
        assert report.mean_accuracy == 1.0
        assert report.confusion == ((10, 0), (0, 10))
        assert report.per_class_precision == {"a": 1.0, "b": 1.0}
        assert report.per_class_recall == {"a": 1.0, "b": 1.0}

    def test_confusion_total_counts_every_document(self):
        corpus, vectors = self.separable(12)
        report = cross_validate(corpus, vectors, k=4, seed=1)
        assert report.total() == len(corpus.doc_ids)

    def test_subspace_dim_counts_distinct_concepts(self):
        corpus, vectors = self.separable()
        report = cross_validate(corpus, vectors, k=5, seed=0)
        assert report.subspace_dim == 2

    def test_vectors_outside_the_corpus_do_not_count(self):
        corpus, vectors = self.separable(4)
        extra = {**vectors, 100: SparseVector.from_dict({50: 1.0, 60: 1.0}, CONCEPT_SPACE)}
        report = cross_validate(corpus, extra, k=2, seed=0)
        assert report.subspace_dim == 2
        assert report == cross_validate(corpus, vectors, k=2, seed=0)

    def test_a_document_without_a_vector_raises_naming_it(self):
        corpus, vectors = self.separable(4)
        del vectors[3]
        with pytest.raises(ValueError, match=r"^document 3 has no vector$"):
            cross_validate(corpus, vectors, k=2, seed=0)

    def test_deterministic_under_seed(self):
        rng = random.Random(0)
        corpus = make_corpus(10, classes=("a", "b", "c"))
        vectors = {
            d: SparseVector.from_dict(
                {i: rng.random() for i in range(8) if rng.random() < 0.5}, CONCEPT_SPACE
            )
            for d in corpus.doc_ids
        }
        r1 = cross_validate(corpus, vectors, k=5, seed=4)
        r2 = cross_validate(corpus, vectors, k=5, seed=4)
        assert r1 == r2

    def test_shuffled_labels_near_chance(self):
        # 200 documents whose vectors carry real class structure, but with
        # labels randomly reassigned: accuracy should sit near 1/C
        rng = random.Random(42)
        n = 200
        n_classes = 4
        docs = tuple((i, ("w",)) for i in range(n))
        labels = {i: f"c{rng.randrange(n_classes)}" for i in range(n)}
        corpus = LabeledCorpus(documents=docs, labels=labels)
        vectors = {
            i: SparseVector.from_dict(
                {i % 8: 1.0, 8 + rng.randrange(4): rng.random()}, CONCEPT_SPACE
            )
            for i in range(n)
        }
        report = cross_validate(corpus, vectors, k=5, seed=0)
        chance = 1 / n_classes
        assert chance - 0.15 <= report.mean_accuracy <= chance + 0.15

    def test_report_tsv_and_summary_render(self):
        corpus, vectors = self.separable()
        report = cross_validate(corpus, vectors, k=5, seed=0)
        tsv = report.to_tsv()
        assert "# mean_accuracy\t1\n" in tsv
        assert tsv.count("confusion\t") == 1 + len(report.classes)
        text = report.summary()
        assert "accuracy: 1.0000 over 5 folds" in text
        assert "concept-subspace dimension: 2" in text


@pytest.mark.parametrize("source", ["tree", "cyclic"])
def test_class_means_have_the_bits_of_a_row_by_row_mean(tmp_path, monkeypatch, source):
    """Each fold's class means, in both sets of a benchmark-sized run, equal
    bit for bit the mean that adds the class's training rows in order. The
    reports cannot show this: a change of the means' last bits rarely moves
    an argmax, so every report, and so every golden digest, can stay."""
    bench_corpora = _bench_corpora()
    if source == "tree":
        src = {"synthetic": dict(bench_corpora.TREE_FULL, seed=1)}
    else:
        store, labels, _planted = bench_corpora.gen_cyclic_wiki(1, **bench_corpora.CYCLIC_FULL)
        (tmp_path / "corpus.jsonl").write_text(corpus_mod.serialize_corpus(store))
        (tmp_path / "labels.tsv").write_text(
            "".join(f"{pid}\t{labels[pid]}\n" for pid in sorted(labels)))
        src = {"path": str(tmp_path / "corpus.jsonl"), "labels": str(tmp_path / "labels.tsv")}
    same = []  # per (fold, class) cell, whether its mean has the oracle's bits
    real = evaluate._centroids

    def checked(dense, y, train, n_classes):
        means, centroids = real(dense, y, train, n_classes)
        same.extend(row_mean(dense[train & (y == c)]).tobytes() == means[c].tobytes()
                    for c in range(n_classes))
        return means, centroids

    monkeypatch.setattr(evaluate, "_centroids", checked)
    result = run_pipeline({"corpus": src, "cache": {"dir": str(tmp_path / "cache")}})
    n_classes = len(result.reports["baseline"].classes)
    assert n_classes >= 2
    # every cell of the baseline and of the stratified set, at the default k of 5
    assert same == [True] * (2 * 5 * n_classes)
