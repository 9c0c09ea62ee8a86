"""End-to-end orchestration with content-hash stage caching.

The stages are the rows of ``_STAGES``, run in order. Every cache file is
an output of one row, whose compute encodes it, and every value a ``_Run``
holds has one row in ``_VALUES``, which parses or builds it. Each row names
only what it reads directly: the artifact it parses, if any, the values it
reads and the config sections it reads itself. The rest is derived from
those reads (``_reach``): a stage's manifest entry, and a memoized value's
key, map each artifact and section they reach to its SHA-256
(``_Run.inputs``); the last stage that reaches a value is the one after
which ``run_stages`` drops it; and the row that parses an artifact is its
loader. A stage whose recorded result ``_Cache.kept`` keeps is skipped, so
rerunning after a lambda change only redoes ``vectorize_stratified`` and
``evaluate``, which cross-validates that set: ``vectorize_baseline`` does
the baseline's. A stage's compute returns each output's bytes with its
value, and ``_stage`` writes the bytes and hands the value to its loader,
so a cold run parses none of its own artifacts.

``_Cache.write`` is the one code that writes a cache file, artifact or
manifest: to a temporary file, moved into place. A stage's manifest entry
is dropped before it recomputes, so an interrupted run leaves each stage
either complete or a miss. A run holds its cache directory against every
other run (``_held``).

Config is a JSON file; ``_CONFIG`` lists every key with its default and kind.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import itertools
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

try:
    import fcntl
except ImportError:  # not POSIX: nothing locks a cache directory (see _held)
    fcntl = None

from wikistrata import arbor, catgraph, corpus as corpus_mod, esa, evaluate, strata, textproc

__all__ = [
    "ConfigError", "StageError", "PipelineResult", "load_config", "run_pipeline", "run_stages",
]


def _is_number(v) -> bool:
    return type(v) is int or isinstance(v, float)


# The kinds of config value: the words a ConfigError says it must do, and
# the test a value must pass (a test that raises TypeError fails; type(v) is
# int leaves out bool). A file key the run uses must also name an existing
# file (see _read_files); the generator checks its values in ingest.
_BOOL = "be true or false", lambda v: isinstance(v, bool)
_FILE = "be a file path or null", lambda v: v is None or isinstance(v, str)
_COUNT = "be an integer >= 0", lambda v: type(v) is int and v >= 0
_STRINGS = "be a list of strings", lambda v: (isinstance(v, (list, tuple))
                                           and all(isinstance(p, str) for p in v))
# the generator's signature, taken again only when the function object changes
_signature = functools.lru_cache(maxsize=1)(inspect.signature)
_SYNTHETIC = "be null or an object of gen_synthetic_wiki's parameters", lambda v: (
    v is None or bool(_signature(corpus_mod.gen_synthetic_wiki).bind(**v)))
_LAMBDAS = "be a list of finite non-negative numbers in decreasing order (ties allowed)", lambda v: (
    isinstance(v, (list, tuple)) and all(_is_number(x) and 0 <= x < math.inf for x in v)
    and all(a >= b for a, b in zip(v, v[1:])))  # NaN fails every comparison
# random.Random seeds null from the OS, and NaN from hash(nan), which differs per object
_SEED = "be an integer, a string or a number other than NaN", lambda v: (
    isinstance(v, str) or _is_number(v) and v == v)

# Every config key, as section.key: (its default, its kind).
_CONFIG = {
    # a corpus file ("path"; "labels" is its TSV of doc_id<TAB>class), or the
    # parameters of a generator ("synthetic") whose corpus labels itself
    "corpus.path": (None, _FILE), "corpus.synthetic": (None, _SYNTHETIC),
    "corpus.labels": (None, _FILE),
    "filter.min_distinct_terms": (0, _COUNT), "filter.min_in_links": (0, _COUNT),
    "filter.min_out_links": (0, _COUNT), "filter.excluded_title_prefixes": ([], _STRINGS),
    "analyzer.stopwords": (None, _FILE), "analyzer.lowercase": (True, _BOOL),
    "vocab.min_df": (1, ("be a finite number", lambda v: _is_number(v) and -math.inf < v < math.inf)),
    "catvec.max_nnz": (1000, ("be a positive integer", lambda v: type(v) is int and v > 0)),
    "arbor.root": (None, ("be an integer or null", lambda v: v is None or type(v) is int)),
    "strata.lambdas": ([0.5, 0.25, 0.125], _LAMBDAS), "strata.use_truncated_support": (True, _BOOL),
    "eval.k": (5, ("be an integer >= 2", lambda v: type(v) is int and v >= 2)), "eval.seed": (0, _SEED),
    "cache.dir": ("wikistrata-cache", ("name a directory", lambda v: (
        isinstance(os.fspath(v), str) and os.fspath(v) != ""))),
}
DEFAULT_CONFIG: dict[str, dict] = {}  # {section: {key: default}}, in _CONFIG's order
for _name, (_default, _kind) in _CONFIG.items():
    _section, _key = _name.split(".")
    DEFAULT_CONFIG.setdefault(_section, {})[_key] = _default


def _check_config(cfg: dict) -> None:
    """Raise ConfigError naming the first ``section.key`` of ``cfg`` whose
    value is not of its kind in ``_CONFIG``."""
    for name, (_default, (kind, test)) in _CONFIG.items():
        section, key = name.split(".")
        value = cfg[section][key]
        try:
            ok = test(value)
        except TypeError:
            ok = False
        if not ok:
            raise ConfigError(f"{name} must {kind}, got {value!r}")


_MODES = ("baseline", "stratified")


class ConfigError(ValueError):
    pass


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh)
    except (IsADirectoryError, NotADirectoryError):
        raise ConfigError(f"config file {str(path)!r} must name a file") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid config JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {str(path)!r} is not UTF-8: {exc}") from exc
    return merge_config(user)


def merge_config(user: dict) -> dict:
    if not isinstance(user, dict):
        raise ConfigError("a config must be an object")
    # a copy that shares no list, the one mutable kind of default, with DEFAULT_CONFIG
    cfg = {s: {k: list(v) if isinstance(v, list) else v for k, v in values.items()}
           for s, values in DEFAULT_CONFIG.items()}
    for section, values in user.items():
        if section not in cfg:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(values, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key, val in values.items():
            if key not in cfg[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            cfg[section][key] = val
    source = cfg["corpus"]
    if not source["path"] and not source["synthetic"]:
        raise ConfigError("config needs corpus.path or corpus.synthetic")
    if source["synthetic"] is not None and (source["path"], source["labels"]) != (None, None):
        raise ConfigError("config needs one corpus source: corpus.synthetic takes no "
                          "corpus.path or corpus.labels")
    return cfg


@dataclass
class PipelineResult:
    stages: list[tuple[str, str]]  # (name, "run" | "hit")
    reports: dict[str, evaluate.EvalReport]
    artifacts: dict[str, str]
    cache_dir: str


def _read_files(cfg: dict) -> dict[tuple[str, str], bytes]:
    """The bytes of each file a config key names and the run uses
    (``corpus.path``, ``corpus.labels``, ``analyzer.stopwords``), by that
    key. Each is read once, so a stage's digests and its compute see the
    same bytes. A stopword file must be UTF-8."""
    used = [("analyzer", "stopwords")] if cfg["analyzer"]["stopwords"] is not None else []
    if not cfg["corpus"]["synthetic"]:
        used += [("corpus", "path"), ("corpus", "labels")]
    files = {}
    for section, key in used:
        name = cfg[section][key]
        if name is None or not os.path.isfile(name):
            raise ConfigError(f"{section}.{key} must name an existing file, got {name!r}")
        with open(name, "rb") as fh:
            files[section, key] = fh.read()
    try:
        files.get(("analyzer", "stopwords"), b"").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"analyzer.stopwords must name a UTF-8 file, got "
                          f"{cfg['analyzer']['stopwords']!r}: {exc}") from exc
    return files


def _section_digests(cfg: dict, files: dict) -> dict[str, str]:
    """The SHA-256 hex of each config section's JSON, by section, with the
    SHA-256 of each file in ``files`` (see ``_read_files``) in place of the
    path that names it. ``cache``, which no stage reads, is left out."""
    view = {s: dict(values) for s, values in cfg.items() if s != "cache"}
    for (section, key), data in files.items():
        view[section][key] = hashlib.sha256(data).hexdigest()
    return {s: hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()
            for s, values in view.items()}


_CHUNK = 1 << 20  # bytes per read when hashing an artifact


@contextlib.contextmanager
def _held(directory: str):
    """The cache directory, made if need be, held against every other run
    until the block ends: an exclusive ``fcntl.flock`` on a descriptor of
    the directory itself, so no file is added. ConfigError names a directory
    that another run holds. Without ``fcntl`` nothing is held."""
    try:
        os.makedirs(directory, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"cache.dir must name a directory, got {directory!r}") from None
    if fcntl is None:
        yield
        return
    fd = os.open(directory, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ConfigError(f"cache directory {directory!r} is held by another run") from None
        yield
    finally:
        os.close(fd)  # which releases the lock


# The digests of one cache directory's files, kept per process:
# {directory: {name: (identity, sha256, written)}} (see _Cache.file_hash).
_HASHED: dict[str, dict[str, tuple]] = {}


def _identity(st: os.stat_result) -> tuple:
    """Device, inode, size, mtime and ctime: what any change to a file changes."""
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


class _Cache:
    def __init__(self, directory: str):
        self.dir = directory
        self.manifest_path = os.path.join(directory, "manifest.json")
        self.settled_before = -math.inf  # no manifest: no file is settled
        try:  # a manifest not a JSON object, or an entry not an object of strings, is absent
            with open(self.manifest_path, encoding="utf-8") as fh:
                st = os.fstat(fh.fileno())
                self.settled_before = min(st.st_mtime_ns, st.st_ctime_ns)
                found = json.load(fh)
        except (FileNotFoundError, ValueError):
            found = {}
        self.manifest = {s: e for s, e in found.items() if isinstance(e, dict) and all(
            isinstance(d, str) for d in e.values())} if isinstance(found, dict) else {}
        self._digests = {}  # name -> sha256, for this run
        self.written = set()  # the files this run wrote (see write)
        if directory not in _HASHED:
            _HASHED.clear()
        self._hashed = _HASHED.setdefault(directory, {})

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def file_hash(self, name: str) -> bytes:
        """An artifact's sha256: the one ``write`` took in this run, else the
        one kept in ``_HASHED`` while one ``os.stat`` of the path finds its
        identity, else read in chunks of ``_CHUNK`` bytes, at most once per
        run. The file is opened only to be read. A kept digest serves only a
        settled file: its mtime and ctime are older than the manifest a run
        found (git's racy-clean rule), so any later change gives it a newer
        ctime. A read digest is kept only if the identity held through the
        read and was settled then; a written one serves once it is settled."""
        if name not in self._digests:
            identity, digest, written = self._hashed.get(name, (None, None, False))
            if (identity is None or _identity(os.stat(self.path(name))) != identity
                    or written and max(identity[3:]) >= self.settled_before):
                with open(self.path(name), "rb") as fh:
                    before = _identity(os.fstat(fh.fileno()))
                    h = hashlib.sha256()
                    for chunk in iter(functools.partial(fh.read, _CHUNK), b""):
                        h.update(chunk)
                    digest = h.digest()
                    if (_identity(os.fstat(fh.fileno())) == before
                            and max(before[3:]) < self.settled_before):
                        self._hashed[name] = before, digest, False
            self._digests[name] = digest
        return self._digests[name]

    def kept(self, stage: str, inputs: dict[str, str], outputs) -> bool:
        """Whether a recorded result stands: the manifest has an entry for
        ``stage`` that holds each digest of ``inputs``, and every one of
        ``outputs`` exists. An absent entry, or one forgotten, keeps nothing."""
        entry = self.manifest.get(stage)
        return entry is not None and inputs.items() <= entry.items() and all(
            os.path.exists(self.path(o)) for o in outputs)

    def forget(self, stage: str) -> None:
        """Drop a stage's entry, so a crash while it recomputes leaves a miss."""
        if self.manifest.pop(stage, None) is not None:
            self._write_manifest()

    def record(self, stage: str, inputs: dict[str, str], outputs) -> None:
        """Enter a stage's entry and, in the same write, drop every other
        entry that holds an old digest of one of ``outputs``, which the
        stage just wrote: such a stage can only miss in this run, and its
        ``forget`` then finds nothing to write."""
        new = {o: self._digests[o].hex() for o in outputs if o in self._digests}
        self.manifest = {s: e for s, e in self.manifest.items()
                         if all(e.get(o, d) == d for o, d in new.items())}
        self.manifest[stage] = inputs
        self._write_manifest()

    def _write_manifest(self) -> None:
        # json.dumps without indent encodes in C; json.dump always in Python
        self.write("manifest.json", json.dumps(self.manifest, sort_keys=True))

    def write(self, name: str, data) -> None:
        """The one writer of the cache directory: file ``name`` gets ``data``,
        a ``str`` as UTF-8 or each ``bytes`` block of an iterable, through a
        temporary file moved into place. The file counts as written. A file
        that some stage's entry holds (``_INPUTS``) is hashed as its blocks
        are written: that digest is this run's, and ``_HASHED`` keeps it under
        the identity one ``os.stat`` finds after the move (see ``file_hash``);
        any other has none. A process that ignores the lock and edits the
        file before that ``stat``, or after it in its clock tick, goes unseen."""
        self.written.add(name)
        self._digests.pop(name, None)
        h = hashlib.sha256() if name in _INPUTS else None
        with esa._open_atomic(self.path(name)) as fh:
            for block in (data.encode("utf-8"),) if isinstance(data, str) else data:
                fh.write(block)
                if h:
                    h.update(block)
        if h:
            self._digests[name] = digest = h.digest()
            self._hashed[name] = _identity(os.stat(self.path(name))), digest, True

    def read_text(self, name: str) -> str:
        with open(self.path(name), encoding="utf-8", newline="") as fh:
            return fh.read()


def _vocab_to_tsv(voc: textproc.Vocabulary) -> str:
    return "".join(
        f"{term}\t{tid}\t{voc.doc_freq[tid]}\n"
        for tid, term in enumerate(voc.id_to_term)
    )


def _vocab_from_tsv(text: str) -> textproc.Vocabulary:
    """``term<TAB>id<TAB>df`` lines, in any order: each df goes to its id.
    ``ValueError``, naming the 1-based line, for a line without three
    fields, or whose id or df is not an integer."""
    term_to_id = {}
    rows = []
    for no, line in enumerate(text.splitlines(), 1):
        try:
            term, tid, df = line.split("\t")
            rows.append((int(tid), int(df)))
        except ValueError as exc:
            raise ValueError(f"vocab line {no}: {exc}, got {line!r}") from None
        term_to_id[term] = rows[-1][0]
    return textproc.Vocabulary(term_to_id=term_to_id, doc_freq=tuple(df for _, df in sorted(rows)))


def _table_to_tsv(keys, ptr, cols, values, spec: str) -> str:
    """``row<TAB>column<TAB>value`` lines of a CSR table: row ``keys[i]`` holds
    the ``int64`` columns ``cols[ptr[i]:ptr[i + 1]]`` with the ``float64`` or
    ``int64`` ``values`` there, each formatted by ``spec``; a row with no
    entry is ``row<TAB>-<TAB>0``."""
    cols, values = catgraph._formatted(cols, "d"), catgraph._formatted(values, spec)
    ptr = np.asarray(ptr).tolist()
    return "".join(f"{r}\t" + f"\n{r}\t".join(map("\t".join, zip(cols[a:b], values[a:b]))) + "\n"
                   if a < b else f"{r}\t-\t0\n" for r, a, b in zip(keys, ptr, ptr[1:]))


def _index_from_tsv(text: str, vocabulary: textproc.Vocabulary) -> esa.EsaIndex:
    """``index.tsv`` read column by column straight into the CSR, as ``build_index``
    wrote it: page-major, term ids ascending, and ``page<TAB>-<TAB>0`` for a page
    without terms. ``ValueError`` for a line without three integer fields, a
    term id outside the vocabulary, pages or terms out of order, and a ``-``
    line that is not its page's only line."""
    # each line's fields and a "\n" cell, which must be every fourth cell
    cells = text.replace("\n", "\t\n\t").split("\t")
    n = text.count("\n")
    if len(cells) != 4 * n + 1 or cells[-1] or cells[3::4].count("\n") != n:
        raise ValueError("index.tsv lines must be page<TAB>term<TAB>frequency")
    pages, freqs = np.array(cells[0:-1:4], np.int64), np.array(cells[2::4], np.int64)
    empty = freqs == 0
    if set(itertools.compress(cells[1::4], empty.tolist())) - {"-"}:
        raise ValueError("index.tsv: a frequency of 0 needs the term -")
    tids = np.array(list(itertools.compress(cells[1::4], (~empty).tolist())), np.int64)
    starts = np.flatnonzero(np.diff(pages, prepend=pages[:1] - 1))  # each page's first line
    if not np.isin(np.flatnonzero(empty), starts[np.diff(starts, append=n) == 1]).all():
        raise ValueError("index.tsv: a page with the term - must have no other line")
    before = np.concatenate(([0], np.cumsum(~empty)))  # the entries before each line
    return esa.EsaIndex(vocabulary, tuple(pages[starts].tolist()), before[np.append(starts, n)],
                        tids, freqs[~empty])


def _stage(run, name, inputs, outputs, compute):
    """Run or skip one stage, whose manifest entry is ``inputs``. One that
    runs writes the ``data`` of each ``(data, value)`` pair ``compute()``
    returns, one per output in order, and hands ``value`` to the loader
    that parses that output (``_LOADER``). StageError wraps any failure
    with the stage name."""
    cache, result = run.cache, run.result
    try:
        if cache.kept(name, inputs, outputs):
            result.stages.append((name, "hit"))
        else:
            cache.forget(name)
            for output, (data, value) in zip(outputs, compute(), strict=True):
                cache.write(output, data)
                if output in _LOADER:
                    setattr(run, _LOADER[output], value)
            cache.record(name, inputs, outputs)
            result.stages.append((name, "run"))
        for o in outputs:
            result.artifacts[o] = cache.path(o)
    except Exception as exc:
        raise StageError(name, exc) from exc


class _Value(NamedTuple):
    """A value a ``_Run`` holds, and what its load reads directly: the
    artifact it parses, if any, the values it reads, and the config sections
    it reads itself. What those reach (``_reach``) gives its ``_MEMO`` key."""
    load: Callable | None  # load(run), the value; None: one _Run.__init__ sets
    reads: tuple[str, ...]  # its artifact, then the values it reads
    sections: tuple[str, ...] = ()
    memo: Callable | None = None  # settings(run), the rest of its _MEMO key; None: not memoized
    held: bool = True  # False: built on each read and not kept on the run


def _parsed(name: str, parse: Callable, memo: Callable | None = None) -> _Value:
    """The value of text artifact ``name`` alone: ``parse(text)``."""
    return _Value(lambda run: parse(run.cache.read_text(name)), (name,), memo=memo)


def _read_catvecs(run) -> esa._VectorSet:
    """The category vectors, one per strongly connected component under its smallest id."""
    vecs = esa._read_vector_set(run.cache.path("catvecs.esvs"))
    if vecs.keys != run.leaf_sets.smallest_ids():
        raise ValueError("catvecs.esvs must hold one vector per strongly connected component, "
                         "under its smallest category id")
    return vecs


def _cat_weights(run) -> esa._VectorSet:
    """Every component's truncated table, as ``catvecs`` writes it to
    ``catweights.tsv``, in one pass over the index: one CSR row of term
    ids and weights per component, keyed by its component index in
    ``leaf_sets``. Its arrays are read-only, as the index's are."""
    ls = run.leaf_sets
    tables = catgraph._component_tables(run.index, ls, range(len(ls.ptr) - 1),
                                        run.cfg["catvec"]["max_nnz"])
    for a in (tables.ptr, tables.dims, tables.weights):
        a.flags.writeable = False
    return tables


def _level_weights(run) -> tuple[np.ndarray, ...]:
    """Each lambda level's stratum weights of the index entries, from
    ``strata._level_weights``: read-only arrays that depend on the support
    and the number of lambdas, but on no lambda's value, so a lambda-only
    rerun takes them from the memo."""
    scfg, index, ls = run.strata_cfg, run.index, run.leaf_sets
    # the truncated tables catvecs built, or every uncut one in one pass
    tables = run.cat_weights if scfg.use_truncated_support else strata._support_tables(
        index, ls, scfg)
    return strata._level_weights(index, ls, run.graph._csr[0], run.tree, len(scfg.lambdas),
                                 strata._table_lookup(tables, len(index.vocabulary)))


_NO_SETTINGS = lambda run: ()  # a memo key of the sources' digests alone

# Every value a _Run holds, by attribute: the one place that says how each
# is parsed or built, and what that reads directly.
_VALUES = {
    # the corpus text and its parse: filter reads both
    "raw": _parsed("corpus.jsonl", lambda text: (text, corpus_mod.parse_corpus(text))),
    "labels": _parsed("labels.tsv", lambda text: _parse_labels(text), _NO_SETTINGS),
    "store": _parsed("filtered.jsonl", lambda text: corpus_mod.parse_corpus(text), _NO_SETTINGS),
    "vocabulary": _parsed("vocab.tsv", lambda text: _vocab_from_tsv(text), _NO_SETTINGS),
    "index": _Value(lambda run: _index_from_tsv(run.cache.read_text("index.tsv"), run.vocabulary),
                    ("index.tsv", "vocabulary"), memo=_NO_SETTINGS),
    "baseline": _Value(lambda run: esa._read_vector_set(run.cache.path("baseline.esvs")),
                       ("baseline.esvs",)),
    "cat_vectors": _Value(_read_catvecs, ("catvecs.esvs", "leaf_sets")),
    # each edge's p, in the graph's edges() order
    "edges": _Value(lambda run: catgraph._weights_from_tsv(run.cache.read_text("weights.tsv"),
                                                            run.graph), ("weights.tsv", "graph")),
    # each graph label's parent label in the arborescence, -1 at the root
    "tree": _Value(lambda run: arbor._tree_from_tsv(run.cache.read_text("arborescence.tsv"),
                                                    run.graph),
                   ("arborescence.tsv", "graph"), memo=_NO_SETTINGS),
    "stratified": _Value(lambda run: esa._read_vector_set(run.cache.path("stratified.esvs")),
                         ("stratified.esvs",)),
    # run_pipeline's reports, copied for each caller (_report)
    "report_baseline": _parsed("report_baseline.tsv",
                               lambda text: evaluate.EvalReport.from_tsv(text), _NO_SETTINGS),
    "report_stratified": _parsed("report_stratified.tsv",
                                 lambda text: evaluate.EvalReport.from_tsv(text), _NO_SETTINGS),
    # the filtered pages' analyzed term counts, one row per page in store
    # order (ascending ids): the one analysis that vocab and index share
    "term_counts": _Value(lambda run: textproc._term_counts(
        run.analyzer, (p.text for p in run.store.pages)), ("store",), ("analyzer",)),
    "graph": _Value(lambda run: catgraph.build_graph(run.store), ("store",), memo=_NO_SETTINGS),
    "leaf_sets": _Value(lambda run: catgraph.leaf_sets(run.graph), ("graph",), memo=_NO_SETTINGS),
    "cat_weights": _Value(_cat_weights, ("index", "leaf_sets"), ("catvec",), _NO_SETTINGS),
    # not held, so that its one reader lets go of it before the kernel runs
    "level_weights": _Value(
        _level_weights, ("index", "leaf_sets", "graph", "tree", "cat_weights"), (), lambda run: (
            run.strata_cfg.use_truncated_support, len(run.strata_cfg.lambdas)), held=False),
    # the input files' bytes (see _read_files), which only ingest reads
    "files": _Value(None, (), ("corpus",)),
}

# The value each artifact is parsed into, by artifact: the row that reads it.
_LOADER = {a: name for name, value in _VALUES.items() for a in value.reads if a not in _VALUES}


@functools.cache
def _reach(reads: tuple[str, ...], sections: tuple[str, ...]) -> frozenset[str]:
    """``reads`` and ``sections``, and all that each value among ``reads``
    reaches through the reads of its ``_VALUES`` row: the values a reader
    may read, and the artifacts and config sections its result comes from."""
    return frozenset((*reads, *sections)).union(*(
        _reach(_VALUES[r].reads, _VALUES[r].sections) for r in reads if r in _VALUES))


# One (key, value) per memoized _Run value, by name: the value its load
# last returned in this process, under the digests of its sources.
_MEMO: dict[str, tuple] = {}


class _Run:
    """One run's stage computes, the values they share, and the
    ``PipelineResult`` so far. Every other value it holds has one row of
    ``_VALUES``: the run holds the value that a stage of this run handed
    over, or ``__getattr__`` loads it on first use, so a run whose stages
    all hit parses none for them, and ``run_pipeline`` parses a report only
    when ``_MEMO`` holds no parse of its bytes. A row, of ``_VALUES`` or of
    ``_STAGES``, names the values its code reads as ``run.<value>``."""

    def __init__(self, cfg: dict, files: dict):
        self.cfg, self.files = cfg, files
        self.section_digests = _section_digests(cfg, files)
        self.cache = _Cache(cfg["cache"]["dir"])
        self.result = PipelineResult(stages=[], reports={}, artifacts={}, cache_dir=self.cache.dir)
        fold, stopwords = cfg["analyzer"]["lowercase"], files.get(("analyzer", "stopwords"))
        self.analyzer = textproc.Analyzer(
            stopword_set=textproc.parse_stopwords(stopwords, fold) if stopwords else frozenset(),
            lowercase_fold=fold)
        self.filter_cfg = corpus_mod.FilterConfig(**dict(
            cfg["filter"], excluded_title_prefixes=tuple(cfg["filter"]["excluded_title_prefixes"])))
        self.strata_cfg = strata.StrataConfig(**cfg["strata"], max_nnz=cfg["catvec"]["max_nnz"])

    def inputs(self, reads, sections) -> dict[str, str]:
        """The SHA-256 hex of each artifact and config section that ``reads``
        and ``sections`` reach (``_reach``), by name: a stage's manifest
        entry, or a memo key."""
        return {n: self.cache.file_hash(n).hex() if n in _LOADER else self.section_digests[n]
                for n in _reach(reads, sections) if n not in _VALUES}

    def __getattr__(self, name):
        """The value of ``_VALUES`` row ``name``, which the run does not hold:
        its load, kept on the run if the row is held, and per process in
        ``_MEMO`` under the digests of its sources and its settings if it is
        memoized and no stage of this run rewrote one of those sources. Kept
        values are shared: read-only. AttributeError for any other name."""
        value = _VALUES.get(name)
        if value is None or value.load is None:
            raise AttributeError(name)
        if value.memo is None or self.cache.written & _reach(value.reads, value.sections):
            loaded = value.load(self)
        else:
            key = self.inputs(value.reads, value.sections), value.memo(self)
            kept = _MEMO.get(name)
            if kept is None or kept[0] != key:
                kept = _MEMO[name] = key, value.load(self)
            loaded = kept[1]
        if value.held:
            vars(self)[name] = loaded
        return loaded

    def ingest(self):
        """The canonical corpus and labels; a file's leading byte order mark goes."""
        source = self.cfg["corpus"]
        if source["synthetic"]:
            store, labels = corpus_mod.gen_synthetic_wiki(**source["synthetic"])
            labels_tsv = "".join(f"{pid}\t{labels[pid]}\n" for pid in sorted(labels))
        else:
            store = corpus_mod.parse_corpus(self.files["corpus", "path"].decode("utf-8-sig"))
            labels_tsv = self.files["corpus", "labels"].decode("utf-8-sig")
        # a malformed line fails here, not in evaluate
        labels = _parse_labels(labels_tsv)
        text = corpus_mod.serialize_corpus(store)
        return (text, (text, store)), (labels_tsv, labels)

    def filter(self):
        """``corpus.filter_pages``; ValueError when it keeps no page. Under a
        ``min_distinct_terms`` above 0, each raw page's distinct terms are
        counted in one ``_term_counts`` table, whose kept rows, over all its
        terms, go to ``vocab`` and ``index``."""
        (text, raw), distinct_terms = self.raw, None
        if self.filter_cfg.min_distinct_terms:
            table = textproc._term_counts(self.analyzer, (p.text for p in raw.pages))
            distinct_terms = np.diff(table.row_ptr).tolist().__getitem__
        filtered = corpus_mod._filter_pages(raw, self.filter_cfg, distinct_terms)
        if not filtered.pages:
            raise ValueError(f"the filter keeps none of the {raw.n_pages} pages it read")
        if distinct_terms is not None:
            row_of = {p.page_id: i for i, p in enumerate(raw.pages)}
            self.term_counts = textproc._table_rows(
                table, np.array([row_of[p.page_id] for p in filtered.pages], np.int64))
        # a filter that keeps every page and membership keeps the corpus text
        return (text if filtered == raw else corpus_mod.serialize_corpus(filtered), filtered),

    def vocab(self):
        min_df = self.cfg["vocab"]["min_df"]
        voc = textproc._vocabulary_from_table(self.term_counts, min_df)
        if not len(voc):
            raise ValueError(f"vocab.min_df {min_df!r} keeps no term")
        return (_vocab_to_tsv(voc), voc),

    def build_index(self):
        page_ids = tuple(p.page_id for p in self.store.pages)
        index = esa._index_from_table(self.term_counts, page_ids, self.vocabulary)
        return (_table_to_tsv(index.page_ids, index.row_ptr, index.term_ids, index.freqs, "d"),
                index),

    def vectorize_baseline(self):
        """Every page's ``esa.document_vector`` over its own terms, in one
        batch: the vectors ``weights`` dots with the category vectors,
        written twice, each file through its own generator of blocks, so no
        encoded set is held, then their report and summary."""
        index = self.index
        vecs = esa._csr_vectors(index, esa._VectorSet(index.page_ids, index.row_ptr,
                                                      index.term_ids, index.tfidfs))
        return ((esa._vector_set_bytes(vecs), vecs), (esa._vector_set_bytes(vecs), vecs),
                *_cross_validated(self.labels, vecs, self.cfg["eval"]))

    def catvecs(self):
        """Truncated category supports and their concept vectors, one per
        strongly connected component, since its categories share F(c)."""
        tables = self.cat_weights._replace(keys=self.leaf_sets.smallest_ids())
        # the rows category_vector would build, from the weights at hand
        vecs = esa._csr_vectors(self.index, tables)
        return ((_table_to_tsv(tables.keys, tables.ptr, tables.dims, tables.weights, ".17g"),
                 tables), (esa._vector_set_bytes(vecs), vecs))

    def weights(self):
        """Every edge's p, in one batch over the page and category sets:
        a category's vector is the row of its component (``LeafSetIndex.comp``)
        in the category vectors."""
        pages, graph = self.baseline, self.graph
        p = catgraph._edge_weights(graph, pages, dict(zip(pages.keys, itertools.count())),
                                   self.cat_vectors, self.leaf_sets.comp)
        return (catgraph._weights_to_tsv(graph, p), p),

    def arborify(self):
        root_id = self.cfg["arbor"]["root"]
        if root_id is None:
            root_id = self.graph.root_id
        parent, cost = arbor._arborify(self.graph, self.edges, root_id)
        return (arbor._tree_to_tsv(self.graph._csr[0], parent, cost), parent),

    def vectorize_stratified(self):
        """The stratified set: each page's tfidfs plus its lambda-weighted
        ``level_weights``, as ``StrataVectorizer._page_values`` adds them."""
        index = self.index
        values = strata._stratified_values(index.tfidfs, self.strata_cfg.lambdas,
                                           self.level_weights)
        vecs = esa._csr_vectors(index, esa._VectorSet(index.page_ids, index.row_ptr,
                                                      index.term_ids, values))
        return (esa._vector_set_bytes(vecs), vecs),

    def evaluate(self):
        return _cross_validated(self.labels, self.stratified, self.cfg["eval"])


# The stages in run order: name, the values its compute reads and the config
# sections it reads itself, the artifacts it writes, and the compute, which
# returns one (data, value) pair per artifact it writes (see _stage). Its
# manifest entry holds the digests of exactly the artifacts and sections
# those reach (_Run.inputs), so each row must name everything its compute
# reads. A compute, like a load, looks its callees up in their modules when
# it runs, so that one replaced there (by a test's spy, or the benchmark's
# tracer) sees every call.
_STAGES = (
    ("ingest", ("files",), ("corpus",), ("corpus.jsonl", "labels.tsv"), _Run.ingest),
    ("filter", ("raw",), ("filter", "analyzer"), ("filtered.jsonl",), _Run.filter),
    ("vocab", ("term_counts",), ("vocab",), ("vocab.tsv",), _Run.vocab),
    ("index", ("term_counts", "store", "vocabulary"), (), ("index.tsv",), _Run.build_index),
    ("vectorize_baseline", ("index", "labels"), ("eval",),
     ("baseline.esvs", "pagevecs.esvs", "report_baseline.tsv", "summary_baseline.txt"),
     _Run.vectorize_baseline),
    ("catvecs", ("cat_weights", "leaf_sets", "index"), (), ("catweights.tsv", "catvecs.esvs"),
     _Run.catvecs),
    ("weights", ("leaf_sets", "baseline", "cat_vectors", "graph"), (), ("weights.tsv",),
     _Run.weights),
    ("arborify", ("graph", "edges"), ("arbor",), ("arborescence.tsv",), _Run.arborify),
    ("vectorize_stratified", ("index", "level_weights"), ("strata",), ("stratified.esvs",),
     _Run.vectorize_stratified),
    ("evaluate", ("stratified", "labels"), ("eval",),
     ("report_stratified.tsv", "summary_stratified.txt"), _Run.evaluate),
)

# Every artifact, in run order: the stage that writes it
_WRITER = {o: stage for stage, _reads, _sections, outputs, _compute in _STAGES for o in outputs}

# The artifacts whose digests some stage's manifest entry holds
_INPUTS = frozenset().union(*(_reach(reads, sections) for _n, reads, sections, *_ in _STAGES)
                            ) & _WRITER.keys()

# The stage after which run_stages drops each value, run or hit: the last row
# that reaches it, the last that can read it. A value that no row reaches (a
# report) stays.
_LAST_READER = {value: stage for stage, reads, sections, *_ in _STAGES
                for value in _reach(reads, sections) & _VALUES.keys()}


def run_stages(config):
    """Run the stages in order, yielding ``(name, status, run)`` after each.

    ``status`` is ``"run"`` or ``"hit"``. ``run`` is this run's ``_Run``:
    its ``_VALUES`` attributes (``store``, ``index``, ``graph`` and the
    others) give the values of the stages done so far, as handed over by a
    stage that ran or parsed from the cache. Each value is dropped after
    the last stage whose reads reach it (``_LAST_READER``; a later read
    parses it back), and a memoized one is keyed by what its own reads
    reach: a read may give the value that an earlier run of this process
    built from the same bytes, shared with later runs, so do not change it
    in place.
    ``run.result`` holds the stages' statuses and artifact paths.
    ``run.analyzer`` is the configured analyzer. ``config`` is as for
    ``run_pipeline``: a file's path, or a dict, partial or merged, that goes
    through ``merge_config``.

    The run holds its cache directory (``_held``) from before it reads the
    manifest until the generator ends, is closed or is collected, so a
    caller that stops iterating holds it until then, and leaves the later
    stages untouched, as an interrupted run does. A run on a directory that
    another holds writes nothing and raises ConfigError at the first step.
    """
    cfg = merge_config(config) if isinstance(config, dict) else load_config(config)
    _check_config(cfg)
    files = _read_files(cfg)  # the files first: a bad one leaves no cache directory
    cfg["cache"]["dir"] = os.fspath(cfg["cache"]["dir"])  # one _HASHED key per directory
    with _held(cfg["cache"]["dir"]):
        run = _Run(cfg, files)
        done, held = set(), vars(run)
        for name, reads, sections, outputs, compute in _STAGES:
            _stage(run, name, run.inputs(reads, sections), outputs, functools.partial(compute, run))
            done.add(name)
            for value in [v for v in held if _LAST_READER.get(v) in done]:
                del held[value]  # the one drop rule; a later read parses it back
            yield name, run.result.stages[-1][1], run


def run_pipeline(config) -> PipelineResult:
    """Execute ingest through evaluation, reusing cached stage outputs.

    ``config`` is a config dict or a path to a JSON config file. A dict
    goes through ``merge_config`` as a file's object does: it may leave out
    any section or key, which then takes its value in ``DEFAULT_CONFIG``,
    and an unknown section or key raises ``ConfigError``. A dict that
    ``merge_config`` returned merges to an equal dict.
    """
    for _name, _status, run in run_stages(config):
        pass
    run.result.reports.update((mode, _report(run, mode)) for mode in _MODES)
    return run.result


def _report(run: _Run, mode: str) -> evaluate.EvalReport:
    """Vector set ``mode``'s report, a copy whose dicts are its own, since
    the loader's may be kept in ``_MEMO``; StageError names its writer for
    a corrupt one."""
    try:
        report = getattr(run, f"report_{mode}")
    except ValueError as exc:
        raise StageError(_WRITER[f"report_{mode}.tsv"], exc) from exc
    return replace(report, per_class_precision=dict(report.per_class_precision),
                   per_class_recall=dict(report.per_class_recall))


def _parse_labels(text: str) -> dict[int, str]:
    """The labels TSV, one ``page_id<TAB>label`` line per page, by page id
    in ASCII digits; a later line for the same page wins, and a blank or
    whitespace-only line is skipped."""
    labels = {}
    for n, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        pid, *label = line.split("\t")
        # int() would also take 1_0, +7, " 7" and non-ASCII digits
        if len(label) != 1 or not (pid.isascii() and pid.isdigit()):
            raise corpus_mod.CorpusError(
                f"labels line {n}: expected <page id><TAB><label>, got {line!r}")
        labels[int(pid)] = label[0]
    return labels


def _cross_validated(labels: dict[int, str], vs: esa._VectorSet, cfg: dict) -> tuple:
    """The ``(data, value)`` pairs of vector set ``vs``'s report and summary,
    under ``labels`` and the ``eval`` section ``cfg``. The labeled pages
    have no terms, since ``cross_validate`` reads only ids."""
    for pid in vs.keys:
        if pid not in labels:
            raise ValueError(f"page {pid} has no label")
    corpus = evaluate.LabeledCorpus(documents=tuple((pid, ()) for pid in vs.keys),
                                    labels={pid: labels[pid] for pid in vs.keys})
    report = evaluate._cross_validate(corpus, vs, cfg["k"], cfg["seed"])
    return (report.to_tsv(), report), (report.summary(), report)
