"""Golden digests of the usual benchmark-sized runs.

``golden_runs`` makes 20 runs over the benchmark's corpora in one process,
so the loader memo serves the reruns: ``TREE_FULL`` and ``CYCLIC_FULL`` (a
file corpus) at seeds 1 and 2, each in its own cache, cold, then at the
``tenth`` lambdas, then also without truncated support, then at ``flat``
lambdas; and four more ``TREE_FULL`` seed-1 runs in that cache, each one
change from the cold config: ``min_distinct_terms`` 1 and 39 (39 drops
pages), ``excluded_title_prefixes: ["topic1"]``, and two lambda levels.

``tests/fixtures/golden_runs.json`` holds, per run, the SHA-256 of every
file in the cache, ``manifest.json`` included, and each stage's status. A
change that alters bytes on purpose rewrites it with

    PYTHONPATH=src python tests/test_golden_runs.py

and lists every changed (run, file) in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

from wikistrata import corpus
from wikistrata.pipeline import run_pipeline
from wikistrata.strata import PRESETS

from test_kernel import _bench_corpora

GOLDEN_PATH = Path(__file__).resolve().parent / "fixtures" / "golden_runs.json"

# each rerun's config change, applied in turn to the one before it
SEQUENCE = (
    ("cold", {}),
    ("tenth", {"strata": {"lambdas": list(PRESETS["tenth"])}}),
    ("untruncated", {"strata": {"lambdas": list(PRESETS["tenth"]),
                                "use_truncated_support": False}}),
    ("flat", {"strata": {"lambdas": list(PRESETS["flat"]), "use_truncated_support": False}}),
)
# TREE_FULL seed 1's further runs, each one change from the cold config
TREE_EXTRAS = (
    ("min_distinct_terms=1", {"filter": {"min_distinct_terms": 1}}),
    ("min_distinct_terms=39", {"filter": {"min_distinct_terms": 39}}),
    ("excluded=topic1", {"filter": {"excluded_title_prefixes": ["topic1"]}}),
    ("two-lambdas", {"strata": {"lambdas": [0.5, 0.25]}}),
)


def golden_runs(root: Path) -> dict[str, dict[str, dict[str, str]]]:
    """Make the runs under ``root``: by run name, ``{"files": {name: sha256
    hex}, "stages": {stage: "run" | "hit"}}``."""
    bench_corpora = _bench_corpora()
    runs = {}
    for seed in (1, 2):
        store, labels, _planted = bench_corpora.gen_cyclic_wiki(seed, **bench_corpora.CYCLIC_FULL)
        source = root / f"cyclic-{seed}"
        source.mkdir(parents=True)
        (source / "corpus.jsonl").write_text(corpus.serialize_corpus(store), encoding="utf-8")
        (source / "labels.tsv").write_text(
            "".join(f"{pid}\t{labels[pid]}\n" for pid in sorted(labels)), encoding="utf-8")
        sources = {
            f"tree-{seed}": {"synthetic": dict(bench_corpora.TREE_FULL, seed=seed)},
            f"cyclic-{seed}": {"path": str(source / "corpus.jsonl"),
                               "labels": str(source / "labels.tsv")},
        }
        for name, src in sources.items():
            cache = root / name / "cache"
            extras = TREE_EXTRAS if name == "tree-1" else ()
            for change, rest in (*SEQUENCE, *extras):
                result = run_pipeline({"corpus": src, "cache": {"dir": str(cache)}, **rest})
                runs[f"{name}/{change}"] = {
                    "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                              for p in sorted(cache.iterdir())},
                    "stages": dict(result.stages),
                }
    return runs


def test_usual_runs_write_the_golden_bytes(tmp_path):
    want = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    got = golden_runs(tmp_path)
    assert sorted(got) == sorted(want)
    differ = [f"{run}: stages {got[run]['stages']} != {want[run]['stages']}"
              for run in want if got[run]["stages"] != want[run]["stages"]]
    for run in want:
        files, golden = got[run]["files"], want[run]["files"]
        differ += [f"{run}: {name} {files.get(name)} != {golden.get(name)}"
                   for name in sorted(files.keys() | golden.keys())
                   if files.get(name) != golden.get(name)]
    assert not differ, "\n".join(differ)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN_PATH.write_text(json.dumps(golden_runs(Path(tmp)), indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
