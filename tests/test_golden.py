"""Golden digests: the SHA-256 of every file a cold run leaves in its cache.

Every float sum in the package adds left to right from 0.0
(``esa._ordered_sums``), so these bytes are meant to be the same on every
supported Python version and numpy build. What else could round
differently on another build is the C library's ``log`` (``esa.tfidf``
and the categorical tfidf) and the BLAS matrix product that scores held-out
rows in ``evaluate._cross_validate``. A failure names each file whose
bytes changed, with its new digest. A lambda-only rerun, and a rerun back
at the first lambdas that the loader memo serves, are pinned too.
"""

import hashlib

import pytest

from wikistrata.pipeline import _MEMO, merge_config, run_pipeline
from wikistrata.strata import PRESETS

from test_pipeline import _cyclic_cfg


def _tree_cfg(tmp_path):
    """A small strict-tree synthetic corpus: two levels below each topic."""
    return merge_config({
        "corpus": {"synthetic": {"seed": 3, "n_topics": 4, "pages_per_topic": 12,
                                 "vocab_per_topic": 20, "depth": 2, "crosstalk": 0.4}},
        "eval": {"k": 3},
        "cache": {"dir": str(tmp_path / "cache")},
    })


CONFIGS = {"tree": _tree_cfg, "cyclic": _cyclic_cfg}

GOLDEN = {
    "cyclic": {
        "arborescence.tsv":
            "8ba60752387e4545539e9c3ba013e2a2dbfb0e6638ca2d3013549a3db708d60e",
        "baseline.esvs":
            "facf114152a2e74329f2bb99b095577c9f09f7a3692e2c40acb86c887e50349a",
        "catvecs.esvs":
            "716ac821eda8f5b7ef42b7cae79fa80936541f4f3bdc1e695725e52534329bc8",
        "catweights.tsv":
            "d563c4b3fa0fe256112b03ff66200b442f9677b7869fb4eeb5ce33d212cd10ef",
        "corpus.jsonl":
            "38159de0842c316c90500cbd655076b20a9d0fbe41d56e6c684fa275fa5ab206",
        "filtered.jsonl":
            "38159de0842c316c90500cbd655076b20a9d0fbe41d56e6c684fa275fa5ab206",
        "index.tsv":
            "8b8ffed5c3237bfa5fb5671d43688fc4eed57ea2a8169d3c65dc9066bf90493c",
        "labels.tsv":
            "ac0c21cdd3ad545e7dffaf5c94ebcd270f862e3d5f25981e5ddc36be230adbe5",
        "manifest.json":
            "7b9385617e912d6c785d2c53200ca23228dc73af2b8e81741e46597ef2391c2d",
        "pagevecs.esvs":
            "facf114152a2e74329f2bb99b095577c9f09f7a3692e2c40acb86c887e50349a",
        "report_baseline.tsv":
            "f12bc6385e6b29b5eb5877b0dc868c677d60a4e7837514f3d1964f24d2a4e892",
        "report_stratified.tsv":
            "f12bc6385e6b29b5eb5877b0dc868c677d60a4e7837514f3d1964f24d2a4e892",
        "stratified.esvs":
            "1bf3b75016ddaaccea00e789b2b2b5fd81a2ac6177b2bdc075b79cb0e5c1a427",
        "summary_baseline.txt":
            "c30f6dfd5f6ca8954669ef847352a2c78724f564ea450c8a9b20f2c09b9a6c42",
        "summary_stratified.txt":
            "c30f6dfd5f6ca8954669ef847352a2c78724f564ea450c8a9b20f2c09b9a6c42",
        "vocab.tsv":
            "436f7007fd0d8c2619e8d5668b3b71d4295591718a04f96cc77025c5f256d398",
        "weights.tsv":
            "bedeca41e3ac3e5b97042ad99fc7c7875490e36c7519c71b0a85401e8c6b82da",
    },
    "tree": {
        "arborescence.tsv":
            "4fbfc6e0e5637410959e89655817dbdce8f9cc6dc42711c14ebf9530c18ad4f7",
        "baseline.esvs":
            "42f39c8df4e1437bd77217dfff5b610333b1c31e402d09adba28ae9da4cb6cfe",
        "catvecs.esvs":
            "d95ddd30f2732a26faf7e477a35471218065b99899077b750fb9aae6d5fdbec7",
        "catweights.tsv":
            "809765ec8c807ff97c5f21ec1f5f222d8650fcaf549bd906b9c462731a1be084",
        "corpus.jsonl":
            "95b8202f46e16b0f9e779b6357ae8289b6a41682e4cc3b4aba298ca490867aea",
        "filtered.jsonl":
            "95b8202f46e16b0f9e779b6357ae8289b6a41682e4cc3b4aba298ca490867aea",
        "index.tsv":
            "52a7a1e36bdd6c9df0b3bda5429ac9aed52f6f3126e5ac4b3c24e54ecd65340b",
        "labels.tsv":
            "495a341a54f40955e303af11f0cf8f3416e63c2752498996e861416d572e96f8",
        "manifest.json":
            "61cfa180403c089369af27c5f52ddf386184ed57c6d6b7fb5dd2a0204f1b8c22",
        "pagevecs.esvs":
            "42f39c8df4e1437bd77217dfff5b610333b1c31e402d09adba28ae9da4cb6cfe",
        "report_baseline.tsv":
            "b72d08cdf221a56842397aaeeaa6254fd1bc4d3bed4f5f7952d35f9a195e2c2a",
        "report_stratified.tsv":
            "e01000fc3cc20dc2185712a0ce74ffdabacb6d6cf7ef71ff1e81783ce0da02d5",
        "stratified.esvs":
            "f9bd06d9b084347c9272865e4f991442488903dbf2e99995ad746d5f601b99c4",
        "summary_baseline.txt":
            "c1ad268e9e50d3b10578e1db7934863d1b984e6d05f26b08139af6b2cc76362b",
        "summary_stratified.txt":
            "19dcc697946891abb84830ffc7a9763c9f7156e6b08501a493b3598572cb2756",
        "vocab.tsv":
            "77f67991df5cf19acde690f09ce8590021f19b654afc76391145296e465514c4",
        "weights.tsv":
            "9cb606ce6070e91f1c5cdbae7113fdb1107d82ab89bc6ad71e56839a0e625430",
    },
}


# the stratified set and its report after a cold run and a lambda-only
# rerun at PRESETS["tenth"]
GOLDEN_TENTH = {
    "cyclic": {
        "stratified.esvs":
            "6ae97be7df333b691319a98724e78ddd3d87fe747b7fd8681051bef15bf21c4b",
        "report_stratified.tsv":
            "f12bc6385e6b29b5eb5877b0dc868c677d60a4e7837514f3d1964f24d2a4e892",
    },
    "tree": {
        "stratified.esvs":
            "9c596a1fbb4354b1dde2b24ff6df70529fcd0e1bae73c74273ace68ec67f224c",
        "report_stratified.tsv":
            "e01000fc3cc20dc2185712a0ce74ffdabacb6d6cf7ef71ff1e81783ce0da02d5",
    },
}


def _differ(cache, want: dict[str, str]) -> dict[str, str | None]:
    """Each file of ``want`` whose SHA-256 in ``cache`` is not the one
    given, with its digest there."""
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(cache.iterdir()) if path.name in want}
    return {f: got.get(f) for f in sorted(want) if got.get(f) != want[f]}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cold_run_writes_the_golden_bytes(tmp_path, name):
    run_pipeline(CONFIGS[name](tmp_path))
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted((tmp_path / "cache").iterdir())}
    want = GOLDEN[name]
    differ = {f: got.get(f) for f in sorted(got.keys() | want.keys()) if got.get(f) != want.get(f)}
    assert not differ, f"{name}: files whose bytes differ from the golden ones: {differ}"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_lambda_reruns_write_the_golden_bytes(tmp_path, name):
    """A lambda-only rerun at "tenth" builds the level weights and keeps
    them in the loader memo; the rerun back at the default lambdas takes
    them from it, and brings back every cold digest."""
    cfg = CONFIGS[name](tmp_path)
    run_pipeline(cfg)
    tenth = dict(cfg, strata=dict(cfg["strata"], lambdas=list(PRESETS["tenth"])))
    run_pipeline(tenth)
    differ = _differ(tmp_path / "cache", GOLDEN_TENTH[name])
    assert not differ, f"{name}: files whose bytes differ after a rerun at tenth: {differ}"
    served = _MEMO["level_weights"]
    run_pipeline(cfg)
    assert _MEMO["level_weights"] is served
    differ = _differ(tmp_path / "cache", GOLDEN[name])
    assert not differ, f"{name}: files whose bytes differ back at the default lambdas: {differ}"
