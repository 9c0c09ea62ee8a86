"""Stratified tfidf: page tfidf consolidated by ancestor categories.

A term's stratified weight in page d is its classical tfidf plus
lambda-discounted categorical tfidfs taken in d's ancestor categories
along the arborescence. Terms that "survive" the climb toward the root
get boosted; page-local accidents (rare junk with a high tf) do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from wikistrata.arbor import Arborescence, ancestors
from wikistrata.catgraph import (CATEGORY, LeafSetIndex, Node, _check_max_nnz, _component_tables,
                                 category_term_weights)
from wikistrata.esa import EsaIndex, SparseVector, concept_vectors

__all__ = ["StrataConfig", "StrataVectorizer", "stratified_tfidf", "stratified_document_vector"]

PRESETS = {
    "half": (0.5, 0.25, 0.125),
    "tenth": (0.1, 0.05, 0.025),
    "flat": (1.0, 1.0, 1.0),
}


@dataclass(frozen=True)
class StrataConfig:
    lambdas: tuple[float, ...] = (0.5, 0.25, 0.125)
    requires_decreasing: bool = True
    use_truncated_support: bool = True
    max_nnz: int = 1000

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(x) for x in self.lambdas))
        if not all(0.0 <= x < math.inf for x in self.lambdas):  # NaN fails both
            raise ValueError(f"lambdas must be finite and non-negative, got {self.lambdas}")
        if self.requires_decreasing and any(
            a < b for a, b in zip(self.lambdas, self.lambdas[1:])
        ):
            raise ValueError("lambdas must form a decreasing sequence")
        if not isinstance(self.use_truncated_support, bool):
            raise ValueError("use_truncated_support must be true or false, "
                             f"got {self.use_truncated_support!r}")
        _check_max_nnz(self.max_nnz)

    @classmethod
    def preset(cls, name: str, **kwargs) -> "StrataConfig":
        return cls(lambdas=PRESETS[name], **kwargs)


class StrataVectorizer:
    """Stratified tfidf and concept vectors of corpus pages.

    Stratum weights are looked up in one categorical tfidf table per
    strongly connected component (``LeafSetIndex.comp_of``), whose
    categories share F(c) and so one table (``catgraph.category_term_weights``,
    cut at ``cfg.max_nnz`` under truncated support and uncut otherwise).
    ``cat_weights`` hands over such tables, each under the id of any one
    category of its component, and each is kept as its component's table;
    the pipeline hands over every component's truncated table, as the
    ``catvecs`` stage builds it, under the component's smallest category
    id. A category it does not know raises ``KeyError``. A component
    without a table gets one built on first use.
    """

    def __init__(self, index: EsaIndex, ls: LeafSetIndex, arb: Arborescence, cfg: StrataConfig,
                 cat_weights: dict[int, dict[int, float]] | None = None):
        self.index = index
        self.ls = ls
        self.arb = arb
        self.cfg = cfg
        self._tables = {ls.comp_of[cid]: table for cid, table in (cat_weights or {}).items()}

    def _ancestor_categories(self, page_id: int) -> list[int]:
        chain = ancestors(self.arb, Node.page(page_id), len(self.cfg.lambdas))
        return [n.id for n in chain if n.kind == CATEGORY]

    def _table(self, category_id: int) -> dict[int, float]:
        comp = self.ls.comp_of[category_id]
        if comp not in self._tables:
            max_nnz = self.cfg.max_nnz if self.cfg.use_truncated_support else None
            self._tables[comp] = category_term_weights(category_id, self.index, self.ls, max_nnz)
        return self._tables[comp]

    def _fill_tables(self, page_ids) -> None:
        """Build, in one pass, every table that ``row`` reads for these
        pages and that the vectorizer lacks."""
        if len(self._tables) < len(self.ls.comp_pages):
            comps = sorted({self.ls.comp_of[cid] for pid in page_ids
                            for _lam, cid in self._strata(pid)} - self._tables.keys())
            max_nnz = self.cfg.max_nnz if self.cfg.use_truncated_support else None
            self._tables.update(zip(comps, _component_tables(self.index, self.ls, comps, max_nnz,
                                                             False)))

    def _strata(self, page_id: int) -> list[tuple[float, int]]:
        """The (lambda, ancestor category) pairs whose tables ``row`` reads:
        none for a page without terms, and none at a lambda of 0."""
        s = self.index._slices[page_id]
        chain = self._ancestor_categories(page_id) if s.start < s.stop else []
        return [(lam, cid) for lam, cid in zip(self.cfg.lambdas, chain) if lam != 0.0]

    def stratum_weight(self, term_id: int, category_id: int) -> float:
        return self._table(category_id).get(term_id, 0.0)

    def stratified_tfidf(self, term_id: int, page_id: int) -> float:
        s = self.index._slices[page_id]  # the page's slice of the index's CSR
        row = dict(zip(self.index.term_ids[s].tolist(), self.index.tfidfs[s].tolist()))
        return self._weight(term_id, row, self._ancestor_categories(page_id))

    def _weight(self, term_id: int, row: dict[int, float], chain: list[int]) -> float:
        total = row.get(term_id, 0.0)
        for lam, cid in zip(self.cfg.lambdas, chain):
            if lam == 0.0:
                continue
            total += lam * self.stratum_weight(term_id, cid)
        return total

    def row(self, page_id: int) -> dict[int, float]:
        """The page's tfidf row plus each term's lambda-weighted stratum
        weights, added in chain order as ``_weight`` adds them. Ancestor
        categories reweight the page's own terms but never add their own."""
        s = self.index._slices[page_id]
        return dict(zip(self.index.term_ids[s].tolist(), self._values(page_id)))

    def _values(self, page_id: int) -> list[float]:
        """The weights of ``row``, in the order of the page's CSR slice."""
        s = self.index._slices[page_id]
        tids, total = self.index.term_ids[s].tolist(), self.index.tfidfs[s].tolist()
        for lam, cid in self._strata(page_id):
            table = self._table(cid)
            total = [t + lam * table.get(tid, 0.0) for tid, t in zip(tids, total)]
        return total

    def document_vector(self, page_id: int) -> SparseVector:
        """Stratified concept vector of a corpus page; unit-norm or zero."""
        return concept_vectors(self.index, [self.row(page_id)])[0]


def stratified_tfidf(
    term_id: int,
    page_id: int,
    arb: Arborescence,
    index: EsaIndex,
    ls: LeafSetIndex,
    cfg: StrataConfig,
) -> float:
    return StrataVectorizer(index, ls, arb, cfg).stratified_tfidf(term_id, page_id)


def stratified_document_vector(
    page_id: int,
    arb: Arborescence,
    index: EsaIndex,
    ls: LeafSetIndex,
    cfg: StrataConfig,
) -> SparseVector:
    return StrataVectorizer(index, ls, arb, cfg).document_vector(page_id)
