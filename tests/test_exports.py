import dataclasses
import importlib
import inspect

import wikistrata

MODULES = ("arbor", "catgraph", "corpus", "esa", "evaluate", "pipeline", "strata", "textproc")

# names that now live in tests/oracles.py or in another module, or that were
# deleted; every vector is in concept space, so no module names a space
REMOVED = {
    "wikistrata": ("analyze", "brute_force_min_arborescence", "stratified_document_vector",
                   "stratified_tfidf"),
    "wikistrata.arbor": ("brute_force_min_arborescence", "_is_arborescence", "_Tree", "_kept"),
    "wikistrata.catgraph": ("sample_power_law_degrees", "_SPACE_TAGS", "CONCEPT_SPACE",
                            "_parse_weights_tsv", "weighted_edges_to_tsv", "_Edges"),
    "wikistrata.esa": ("save_vector", "load_vector", "_pack_vector", "index_from_counts",
                       "_write_vector_set", "TERM_SPACE", "CONCEPT_SPACE", "_SPACE_TAGS",
                       "_TAG_SPACES"),
    "wikistrata.evaluate": ("CentroidModel", "train_centroid", "classify"),
    "wikistrata.pipeline": ("_parse_weights_tsv", "_Artifact", "_text", "_REPORT", "_SUMMARY"),
    "wikistrata.strata": ("stratified_document_vector", "stratified_tfidf"),
    "wikistrata.textproc": ("analyze", "vocabulary_from_terms"),
}


def test_exported_names_exist_star_import_works_and_removed_names_are_gone():
    modules = [wikistrata, *(importlib.import_module(f"wikistrata.{m}") for m in MODULES)]
    for module in modules:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(module.__all__) <= set(namespace), module.__name__
    for module in modules:
        for name in REMOVED.get(module.__name__, ()):
            assert not hasattr(module, name) and name not in module.__all__, name
    assert not hasattr(wikistrata.StrataConfig, "preset")
    assert "literal_denominator" not in inspect.signature(wikistrata.categorical_tfidf).parameters
    assert "cat_weights" not in inspect.signature(wikistrata.StrataVectorizer.__init__).parameters
    assert "requires_decreasing" not in {f.name for f in dataclasses.fields(wikistrata.StrataConfig)}
    assert "min_df" not in {f.name for f in dataclasses.fields(wikistrata.Vocabulary)}
    # one vector space: no vector, vector set or signature names a space
    vec = wikistrata.SparseVector
    assert [list(inspect.signature(f).parameters) for f in (vec, vec.from_dict, vec.zero)] == [
        ["dims", "weights"], ["entries"], []]
    assert not hasattr(vec.zero(), "space")
    assert wikistrata.esa._VectorSet._fields == ("keys", "ptr", "dims", "weights")
