import dataclasses
import os
import time

import numpy as np
import pytest

from wikistrata import (
    Analyzer,
    build_graph,
    build_index,
    build_vocabulary,
    leaf_sets,
    parse_corpus,
)
from wikistrata import pipeline
from wikistrata.catgraph import _Labels
from wikistrata.esa import _VectorSet
from wikistrata.pipeline import merge_config

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "fixtures", "fixture_corpus.jsonl")


def fixture_cfg(tmp_path, cache):
    """A pipeline config over the fixture corpus, caching in ``cache``,
    its pages labeled by their first category for a 2-class split."""
    labels = tmp_path / "labels.tsv"
    first_category = {0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 5: 4, 6: 1, 7: 3}
    labels.write_text("".join(f"{p}\t{'music' if c in (1, 4) else 'science'}\n"
                              for p, c in first_category.items()))
    return merge_config({"corpus": {"path": FIXTURE_PATH, "labels": str(labels)},
                         "eval": {"k": 2}, "cache": {"dir": str(cache)}})


def _table_from_tsv(text: str, value: type) -> dict[int, dict]:
    """What ``pipeline._table_to_tsv`` wrote, each value read by ``value``."""
    table: dict[int, dict] = {}
    for line in text.splitlines():
        row, col, v = line.split("\t")
        table.setdefault(int(row), {})
        if col != "-":
            table[int(row)][int(col)] = value(v)
    return table


def table_dicts(tables: _VectorSet) -> dict[int, dict[int, float]]:
    """Category tables in CSR form as one dict of term weights per key."""
    ptr, terms, weights = tables.ptr.tolist(), tables.dims.tolist(), tables.weights.tolist()
    return {key: dict(zip(terms[a:b], weights[a:b]))
            for key, a, b in zip(tables.keys, ptr, ptr[1:])}


def table_csr(tables: dict[int, dict[int, float]]) -> _VectorSet:
    """Dicts of term weights by category id as the CSR that
    ``StrataVectorizer`` takes over: one row per id, ids and terms ascending."""
    keys = sorted(tables)
    rows = [sorted(tables[key].items()) for key in keys]
    entries = [e for row in rows for e in row]
    return _VectorSet(tuple(keys), np.cumsum([0, *map(len, rows)]),
                      np.array([t for t, _ in entries], np.int64),
                      np.array([w for _, w in entries], np.float64))


def tree_arrays(a) -> tuple[_Labels, np.ndarray]:
    """The labels of an ``Arborescence``'s nodes and its parent array, as
    ``strata._level_weights`` takes them."""
    nodes, _index, parent, _cost = a._arrays
    return _Labels.of(nodes), parent


def same_fields(a, b) -> bool:
    """Whether two records of one dataclass are equal field by field,
    arrays by value and nested records by their fields."""
    if type(a) is not type(b):
        return False
    if not dataclasses.is_dataclass(a):
        return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
    return all(same_fields(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))


@pytest.fixture(autouse=True)
def _empty_loader_memo():
    """Each test starts with no loader value kept from another test's runs,
    so what a test counts as parsed does not depend on the tests before it."""
    pipeline._MEMO.clear()


def settle(cache_dir) -> None:
    """Write ``cache_dir``'s manifest again, with its own bytes, once the
    filesystem's clock has passed its mtime, so every file written before
    it is settled (see ``pipeline._Cache.file_hash``) however coarse that
    clock is."""
    manifest, probe = os.path.join(cache_dir, "manifest.json"), os.path.join(cache_dir, "probe")
    deadline = time.monotonic() + 10
    while True:
        with open(probe, "wb"):
            pass
        if os.stat(probe).st_mtime_ns > os.stat(manifest).st_mtime_ns:
            break
        assert time.monotonic() < deadline, "the filesystem's clock does not advance"
        time.sleep(0.001)
    os.remove(probe)
    with open(manifest, "rb") as fh:
        data = fh.read()
    with open(manifest, "wb") as fh:
        fh.write(data)


@pytest.fixture
def artifact_reads(monkeypatch):
    """The names of the files that ``pipeline`` opens in binary and reads
    from, one per opened file that is read; an open that only takes the
    file's status is not a read."""
    reads, real_open = [], open

    class Reading:
        def __init__(self, fh, name):
            self.fh, self.name = fh, name

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def fileno(self):
            return self.fh.fileno()

        def read(self, *args):
            if self.name is not None:
                reads.append(self.name)
                self.name = None
            return self.fh.read(*args)

    def counting_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return Reading(fh, os.path.basename(path)) if mode == "rb" else fh

    monkeypatch.setattr(pipeline, "open", counting_open, raising=False)
    return reads


@pytest.fixture(scope="session")
def fixture_text():
    with open(FIXTURE_PATH, encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="session")
def fixture_store(fixture_text):
    return parse_corpus(fixture_text)


@pytest.fixture(scope="session")
def analyzer():
    return Analyzer()


@pytest.fixture(scope="session")
def fixture_vocab(fixture_store, analyzer):
    return build_vocabulary(fixture_store, analyzer, min_df=1)


@pytest.fixture(scope="session")
def fixture_index(fixture_store, analyzer, fixture_vocab):
    return build_index(fixture_store, analyzer, fixture_vocab)


@pytest.fixture(scope="session")
def fixture_graph(fixture_store):
    return build_graph(fixture_store)


@pytest.fixture(scope="session")
def fixture_leaf_sets(fixture_graph):
    return leaf_sets(fixture_graph)
