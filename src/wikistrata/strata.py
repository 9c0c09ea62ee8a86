"""Stratified tfidf: page tfidf consolidated by ancestor categories.

A term's stratified weight in page d is its classical tfidf plus
lambda-discounted categorical tfidfs taken in d's ancestor categories
along the arborescence. Terms that "survive" the climb toward the root
get boosted; page-local accidents (rare junk with a high tf) do not.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from wikistrata.arbor import Arborescence, _chains, ancestors
from wikistrata.catgraph import (
    CATEGORY,
    LeafSetIndex,
    Node,
    _check_max_nnz,
    _component_tables,
    _Labels,
    _rank,
)
from wikistrata.esa import EsaIndex, SparseVector, _VectorSet, concept_vectors

__all__ = ["StrataConfig", "StrataVectorizer"]

PRESETS = {
    "half": (0.5, 0.25, 0.125),
    "tenth": (0.1, 0.05, 0.025),
    "flat": (1.0, 1.0, 1.0),
}


@dataclass(frozen=True)
class StrataConfig:
    lambdas: tuple[float, ...] = (0.5, 0.25, 0.125)
    use_truncated_support: bool = True
    max_nnz: int = 1000

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(x) for x in self.lambdas))
        if not all(0.0 <= x < math.inf for x in self.lambdas):  # NaN fails both
            raise ValueError(f"lambdas must be finite and non-negative, got {self.lambdas}")
        if any(a < b for a, b in zip(self.lambdas, self.lambdas[1:])):
            raise ValueError(f"lambdas must be non-increasing, got {self.lambdas}")
        if not isinstance(self.use_truncated_support, bool):
            raise ValueError("use_truncated_support must be true or false, "
                             f"got {self.use_truncated_support!r}")
        _check_max_nnz(self.max_nnz)


class StrataVectorizer:
    """Stratified tfidf and concept vectors of corpus pages.

    Stratum weights are looked up in one categorical tfidf table per
    strongly connected component (``LeafSetIndex.component``), whose
    categories share F(c) and so one table (``catgraph.category_term_weights``,
    cut at ``cfg.max_nnz`` under truncated support and uncut otherwise).
    Every component's table is built in one pass on first use
    (``_support_tables``), as one CSR keyed by component index. The rows
    come from the module's batched pass (``_table_lookup`` and
    ``_level_weights``), which the pipeline calls directly. A category it
    does not know raises ``KeyError``.
    """

    def __init__(self, index: EsaIndex, ls: LeafSetIndex, arb: Arborescence, cfg: StrataConfig):
        self.index = index
        self.ls = ls
        self.arb = arb
        self.cfg = cfg

    @functools.cached_property
    def _tables(self) -> _VectorSet:
        return _support_tables(self.index, self.ls, self.cfg)

    @functools.cached_property
    def _lookup(self) -> tuple[np.ndarray, np.ndarray]:
        return _table_lookup(self._tables, len(self.index.vocabulary))

    def _ancestor_categories(self, page_id: int) -> list[int]:
        """The ids of the page's ancestor categories, nearest first, one per
        lambda level at most."""
        chain = ancestors(self.arb, Node.page(page_id), len(self.cfg.lambdas))
        return [n.id for n in chain if n.kind == CATEGORY]

    def stratum_weight(self, term_id: int, category_id: int) -> float:
        keys, weights = self._lookup
        n_terms = len(self.index.vocabulary)
        key = self.ls.component(category_id) * n_terms + term_id
        i = int(keys.searchsorted(key))
        if not 0 <= term_id < n_terms or i == len(keys) or keys[i] != key:
            return 0.0
        return float(weights[i])

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
        return dict(zip(self.index.term_ids[s].tolist(), self._page_values[s].tolist()))

    @functools.cached_property
    def _page_values(self) -> np.ndarray:
        """The weights of every page's ``row``, in the order of the index's CSR."""
        return _stratified_values(self.index.tfidfs, self.cfg.lambdas, self._level_weights)

    @functools.cached_property
    def _level_weights(self) -> tuple[np.ndarray, ...]:
        nodes, _index, parent, _cost = self.arb._arrays
        return _level_weights(self.index, self.ls, _Labels.of(nodes), parent,
                              len(self.cfg.lambdas), self._lookup)

    def document_vector(self, page_id: int) -> SparseVector:
        """Stratified concept vector of a corpus page; unit-norm or zero."""
        return concept_vectors(self.index, [self.row(page_id)])[0]


def _support_tables(index: EsaIndex, ls: LeafSetIndex, cfg: StrataConfig) -> _VectorSet:
    """Every component's table, cut at ``cfg.max_nnz`` under truncated
    support and uncut otherwise, in one ``_component_tables`` pass: one CSR
    keyed by component index."""
    max_nnz = cfg.max_nnz if cfg.use_truncated_support else None
    return _component_tables(index, ls, range(len(ls.ptr) - 1), max_nnz)


def _table_lookup(tables: _VectorSet, n_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Every entry of component tables keyed by component index, as
    ``_component_tables`` returns them: its key ``comp * n_terms + term``
    and its weight. The tables must come in component order, as each
    table's terms ascend, so the keys ascend as they are."""
    keys = np.repeat(np.array(tables.keys, np.int64), np.diff(tables.ptr))
    return keys * n_terms + tables.dims, tables.weights


def _level_weights(index: EsaIndex, ls: LeafSetIndex, labels: _Labels, parent: np.ndarray,
                   n_levels: int, lookup: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, ...]:
    """One read-only ``float64`` array per lambda level, in the order of the
    index's CSR: the weight of each entry's term in the table (``lookup``,
    as ``_table_lookup`` gives it) of its page's ancestor at that level,
    0.0 where the table or the chain lacks it. A page's chain is its
    ancestor categories along ``parent``, the parent label of each of
    ``labels`` (-1 at the root), nearest first, as ``ancestors`` gives them,
    walked for every page at once (``arbor._chains``); each level looks all
    entries up with one ``searchsorted``. The arrays depend on the
    number of levels but on no lambda's value. No level walks no chain, and
    a page without terms has none walked. ``KeyError`` for a walked page
    that the tree lacks, and for an ancestor category that ``ls`` lacks."""
    keys, weights = lookup
    counts = np.diff(index.row_ptr)
    # each page's ancestor components by level; -1 past the chain, whose
    # keys are negative and match no entry
    comps = np.full((index.n_pages, n_levels), -1, np.int64)
    walked = np.flatnonzero(counts) if n_levels else np.zeros(0, np.int64)
    at = _rank(labels.pages, index._page_array[walked])
    if np.any(at < 0):
        raise KeyError(f"unknown node {Node.page(int(index._page_array[walked][at < 0][0]))}")
    n_cats = len(labels.cats)
    chains = _chains(parent, n_cats + at, n_levels)
    # each chain's categories moved to its front, in their order
    is_cat = (chains >= 0) & (chains < n_cats)
    order = np.argsort(~is_cat, axis=1, kind="stable")
    chains, is_cat = np.take_along_axis(chains, order, 1), np.take_along_axis(is_cat, order, 1)
    cats = labels.cats[chains[is_cat]]
    found = _rank(ls.cats, cats)
    if np.any(found < 0):
        raise KeyError(int(cats[found < 0][0]))
    chains[is_cat], chains[~is_cat] = ls.comp[found], -1
    comps[walked] = chains
    entry_rows = np.repeat(np.arange(index.n_pages), counts)
    levels = []
    for level in range(n_levels):
        if len(keys):
            want = comps[entry_rows, level] * len(index.vocabulary) + index.term_ids
            pos = keys.searchsorted(want)
            found = keys.take(pos, mode="clip") == want
            w = np.where(found, weights.take(pos, mode="clip"), 0.0)
        else:
            w = np.zeros(len(index.term_ids))
        w.flags.writeable = False
        levels.append(w)
    return tuple(levels)


def _stratified_values(tfidfs: np.ndarray, lambdas: tuple[float, ...],
                       level_weights: tuple[np.ndarray, ...]) -> np.ndarray:
    """The stratified weights of index entries whose tfidfs are ``tfidfs``
    and whose ``_level_weights`` are ``level_weights``: each lambda other
    than 0 adds ``lam * weight`` at its level, in level order, the same
    float operations as ``StrataVectorizer._weight``, since adding 0.0
    leaves a weight as it is."""
    total = tfidfs.copy()
    for lam, weights in zip(lambdas, level_weights):
        if lam != 0.0:
            total += lam * weights
    return total

