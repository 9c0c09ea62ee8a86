import dataclasses
import importlib
import inspect

import wikistrata

MODULES = ("arbor", "catgraph", "corpus", "esa", "evaluate", "pipeline", "strata", "textproc")

# names that now live in tests/oracles.py or in another module, or that were
# deleted; catgraph reads vector sets' space tags through _VectorSet.space_tags
REMOVED = {
    "wikistrata": ("analyze", "brute_force_min_arborescence", "stratified_document_vector",
                   "stratified_tfidf"),
    "wikistrata.arbor": ("brute_force_min_arborescence", "_is_arborescence"),
    "wikistrata.catgraph": ("sample_power_law_degrees", "_SPACE_TAGS", "CONCEPT_SPACE"),
    "wikistrata.esa": ("save_vector", "load_vector", "_pack_vector", "index_from_counts"),
    "wikistrata.evaluate": ("CentroidModel", "train_centroid", "classify"),
    "wikistrata.pipeline": ("_parse_weights_tsv", "_Artifact"),
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
