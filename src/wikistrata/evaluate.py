"""Classification harness: stratified folds, nearest-centroid training,
cross-validated evaluation reports.

The classifier is a deterministic nearest-centroid under cosine, in array
form inside ``cross_validate``; it stands in for a margin-based linear
classifier.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from wikistrata.esa import SparseVector, _VectorSet, _ordered_sums

__all__ = [
    "LabeledCorpus",
    "EvalReport",
    "split_folds",
    "cross_validate",
]


@dataclass(frozen=True)
class LabeledCorpus:
    """Documents with class labels; at least two classes for evaluation."""

    documents: tuple[tuple[int, tuple[str, ...]], ...]
    labels: dict[int, str]
    classes: tuple[str, ...] = ()

    def __post_init__(self):
        for doc_id, _ in self.documents:
            if doc_id not in self.labels:
                raise ValueError(f"document {doc_id} has no label")
        object.__setattr__(self, "classes", tuple(sorted(set(self.labels.values()))))
        if len(self.classes) < 2:
            raise ValueError("evaluation needs at least 2 classes")

    @property
    def doc_ids(self) -> list[int]:
        return [d for d, _ in self.documents]


def split_folds(corpus: LabeledCorpus, k: int = 5, seed: int = 0) -> list[list[int]]:
    """Stratified k-fold partition of document ids, deterministic under seed."""
    if k < 2:
        raise ValueError("k must be >= 2")
    by_class: dict[str, list[int]] = {}
    for doc_id in corpus.doc_ids:
        by_class.setdefault(corpus.labels[doc_id], []).append(doc_id)
    for cls, ids in sorted(by_class.items()):
        if len(ids) < k:
            raise ValueError(f"class {cls!r} has {len(ids)} documents, fewer than k={k}")
    folds: list[list[int]] = [[] for _ in range(k)]
    rng = random.Random(seed)
    for cls in sorted(by_class):
        ids = sorted(by_class[cls])
        rng.shuffle(ids)
        for i, doc_id in enumerate(ids):
            folds[i % k].append(doc_id)
    return [sorted(f) for f in folds]


@dataclass(frozen=True)
class EvalReport:
    """Cross-validation outcome plus concept-subspace statistics."""

    classes: tuple[str, ...]
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    confusion: tuple[tuple[int, ...], ...]  # rows: true class, cols: predicted
    subspace_dim: int
    per_class_precision: dict[str, float] = field(default_factory=dict)
    per_class_recall: dict[str, float] = field(default_factory=dict)

    def total(self) -> int:
        return sum(sum(row) for row in self.confusion)

    def to_tsv(self) -> str:
        lines = [f"# mean_accuracy\t{self.mean_accuracy:.17g}\n",
                 f"# subspace_dim\t{self.subspace_dim}\n"]
        for i, acc in enumerate(self.fold_accuracies):
            lines.append(f"fold\t{i}\t{acc:.17g}\n")
        lines.append("confusion\ttrue\\pred\t" + "\t".join(self.classes) + "\n")
        for cls, row in zip(self.classes, self.confusion):
            lines.append("confusion\t" + cls + "\t" + "\t".join(map(str, row)) + "\n")
        for cls in self.classes:
            lines.append(
                f"class\t{cls}\t{self.per_class_precision[cls]:.17g}"
                f"\t{self.per_class_recall[cls]:.17g}\n"
            )
        return "".join(lines)

    @classmethod
    def from_tsv(cls, text: str) -> "EvalReport":
        """Parse ``to_tsv`` output, reading the confusion header positionally.

        Raises ValueError unless the text is exactly what ``to_tsv`` writes
        for the parsed report; the ``.17g`` floats round-trip, so the report
        equals the one that was written.
        """
        try:
            report = cls._parse_tsv(text)
        except (ValueError, IndexError) as exc:
            raise ValueError(f"not an EvalReport TSV: {exc}") from exc
        if report.to_tsv() != text:
            raise ValueError("not an EvalReport TSV: it does not read back as written")
        return report

    @classmethod
    def _parse_tsv(cls, text: str) -> "EvalReport":
        lines = text.split("\n")
        if lines.pop() != "":
            raise ValueError("the last line is unterminated")
        rows = [line.split("\t") for line in lines]
        (_, mean), (_, dim) = rows[:2]
        i = 2
        while rows[i][0] == "fold":
            i += 1
        folds = tuple(float(acc) for _, _, acc in rows[2:i])
        classes = tuple(rows[i][2:])
        n = len(classes)
        confusion, per_class = rows[i + 1:i + 1 + n], rows[i + 1 + n:]
        if len(confusion) != n or len(per_class) != n:
            raise ValueError(f"expected {n} confusion rows and {n} class rows")
        return cls(
            classes=classes,
            fold_accuracies=folds,
            mean_accuracy=float(mean),
            confusion=tuple(tuple(int(x) for x in row[2:]) for row in confusion),
            subspace_dim=int(dim),
            per_class_precision={c: float(row[2]) for c, row in zip(classes, per_class)},
            per_class_recall={c: float(row[3]) for c, row in zip(classes, per_class)},
        )

    def summary(self) -> str:
        lines = [
            f"accuracy: {self.mean_accuracy:.4f} over {len(self.fold_accuracies)} folds",
            f"concept-subspace dimension: {self.subspace_dim}",
            "confusion matrix (rows = true):",
        ]
        width = max(len(c) for c in self.classes)
        header = " " * (width + 2) + "  ".join(f"{c:>{width}}" for c in self.classes)
        lines.append(header)
        for cls, row in zip(self.classes, self.confusion):
            lines.append(f"{cls:>{width}}  " + "  ".join(f"{n:>{width}}" for n in row))
        return "\n".join(lines) + "\n"


def cross_validate(
    corpus: LabeledCorpus,
    vectors: dict[int, SparseVector],
    k: int = 5,
    seed: int = 0,
) -> EvalReport:
    """k-fold cross-validation of nearest-centroid over precomputed vectors.

    Rows of a dense doc x concept matrix are summed per class in document
    order, each class mean is scaled to unit length, and held-out rows are
    scored against every centroid at once. ``argmax`` takes the first
    maximum, so ties go to the first class name. Each class
    keeps a training document in every fold, because ``split_folds``
    deals every class round-robin over k folds and rejects classes with
    fewer than k documents. Only the documents' vectors count; ValueError
    names a document without one.
    """
    for d in corpus.doc_ids:
        if d not in vectors:
            raise ValueError(f"document {d} has no vector")
    return _cross_validate(corpus, _VectorSet.of({d: vectors[d] for d in corpus.doc_ids}), k, seed)


def _cross_validate(corpus: LabeledCorpus, vs: _VectorSet, k: int, seed) -> EvalReport:
    """``cross_validate`` over a vector set in array form."""
    folds = split_folds(corpus, k, seed)
    classes = corpus.classes
    cls_index = {c: i for i, c in enumerate(classes)}
    doc_ids = sorted(corpus.doc_ids)
    row_of = {d: i for i, d in enumerate(doc_ids)}
    y = np.array([cls_index[corpus.labels[d]] for d in doc_ids], dtype=np.int64)
    used = np.zeros(int(vs.dims.max(initial=-1)) + 1, bool)  # the distinct dims
    used[vs.dims] = True
    ptr = vs.ptr.tolist()
    spans = dict(zip(vs.keys, zip(ptr, ptr[1:])))
    # row by row from slices: a fancy index over every entry at once would
    # add index arrays the size of the set to the peak memory of a run
    dense = np.zeros((len(doc_ids), len(used)))
    for i, d in enumerate(doc_ids):
        a, b = spans[d]
        dense[i, vs.dims[a:b]] = vs.weights[a:b]
    confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
    fold_accs = []
    for held_out in folds:
        held = np.array([row_of[d] for d in held_out], dtype=np.int64)
        train = np.ones(len(doc_ids), dtype=bool)
        train[held] = False
        _means, centroids = _centroids(dense, y, train, len(classes))
        pred = (dense[held] @ centroids.T).argmax(axis=1)
        np.add.at(confusion, (y[held], pred), 1)
        fold_accs.append(int((pred == y[held]).sum()) / len(held_out))
    confusion = confusion.tolist()
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
        mean_accuracy=_ordered_sums(fold_accs, np.zeros(k, np.intp), 1).item() / k,
        confusion=tuple(tuple(row) for row in confusion),
        subspace_dim=int(used.sum()),
        per_class_precision=precision,
        per_class_recall=recall,
    )


def _centroids(dense: np.ndarray, y: np.ndarray, train: np.ndarray,
               n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """One fold's class means of the ``train`` rows, and each scaled to unit length."""
    means = np.array([dense[train & (y == c)].mean(axis=0) for c in range(n_classes)])
    norms = np.sqrt((means * means).sum(axis=1, keepdims=True))
    return means, np.divide(means, norms, out=np.zeros_like(means), where=norms > 0)
