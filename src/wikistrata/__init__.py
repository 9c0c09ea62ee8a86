"""Stratified explicit semantic analysis over wiki-like corpora.

The package builds ESA concept vectors from a corpus of pages and
categories, weights the category digraph by semantic relatedness,
extracts a minimum-cost spanning arborescence, and uses the resulting
ancestor chains to compute stratified tfidf document vectors.
"""

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
from wikistrata.textproc import Analyzer, Vocabulary, build_vocabulary
from wikistrata.esa import (
    EsaIndex,
    SparseVector,
    build_index,
    concept_vectors,
    document_vector,
    relatedness,
    tfidf,
    word_vector,
)
from wikistrata.catgraph import (
    CategoryGraph,
    LeafSetIndex,
    Node,
    WeightedEdge,
    build_graph,
    categorical_tfidf,
    category_vector,
    cycle_census,
    degree_stats,
    leaf_sets,
    weight_edges,
)
from wikistrata.arbor import (
    Arborescence,
    ArborError,
    RootedCostDigraph,
    ancestors,
    chu_liu_edmonds,
    reverse_and_cost,
)
from wikistrata.strata import StrataConfig, StrataVectorizer
from wikistrata.evaluate import EvalReport, LabeledCorpus, cross_validate

__all__ = [
    "Analyzer",
    "ArborError",
    "Arborescence",
    "CategoryGraph",
    "CategoryRecord",
    "CorpusError",
    "CorpusStore",
    "EsaIndex",
    "EvalReport",
    "FilterConfig",
    "LabeledCorpus",
    "LeafSetIndex",
    "Node",
    "PageRecord",
    "RootedCostDigraph",
    "SparseVector",
    "StrataConfig",
    "StrataVectorizer",
    "Vocabulary",
    "WeightedEdge",
    "ancestors",
    "build_graph",
    "build_index",
    "build_vocabulary",
    "categorical_tfidf",
    "category_vector",
    "chu_liu_edmonds",
    "concept_vectors",
    "cross_validate",
    "cycle_census",
    "degree_stats",
    "document_vector",
    "filter_pages",
    "gen_synthetic_wiki",
    "leaf_sets",
    "parse_corpus",
    "relatedness",
    "reverse_and_cost",
    "serialize_corpus",
    "tfidf",
    "weight_edges",
    "word_vector",
]
