"""Corpus handling: parsing, validation, filtering, synthesis.

The corpus format is UTF-8 line-delimited JSON. The first line is a
header ``{"kind":"meta","root":N,"version":1}``; every following line is
either a page record or a category record:

    {"kind":"page","id":N,"title":S,"text":S,"categories":[N...],"links":[N...]}
    {"kind":"category","id":N,"title":S,"parents":[N...]}

Page ids and category ids live in separate integer spaces; graph modules
distinguish them with a node-kind tag.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from itertools import chain, islice
from operator import attrgetter

__all__ = [
    "CorpusError",
    "PageRecord",
    "CategoryRecord",
    "CorpusStore",
    "FilterConfig",
    "parse_corpus",
    "serialize_corpus",
    "filter_pages",
    "gen_synthetic_wiki",
]

FORMAT_VERSION = 1

# Characters that str.splitlines() breaks lines at but json.dumps leaves
# unescaped inside strings when ensure_ascii is off.
_LINE_BREAKS_IN_STRINGS = re.compile("[\x85\u2028\u2029]")
# A record's line as json.dumps(record, ensure_ascii=False) writes it.
_META_LINE = '{"kind": "meta", "root": %d, "version": %d}'
_CATEGORY_LINE = '{"kind": "category", "id": %d, "title": %s, "parents": [%s]}'
_PAGE_LINE = ('{"kind": "page", "id": %d, "title": %s, "text": %s, '
              '"categories": [%s], "links": [%s]}')
_INT = frozenset([int])


class CorpusError(ValueError):
    """Raised for malformed corpus input or broken referential integrity."""


@dataclass(frozen=True)
class PageRecord:
    page_id: int
    title: str
    text: str
    category_ids: tuple[int, ...]
    out_links: tuple[int, ...]


@dataclass(frozen=True)
class CategoryRecord:
    category_id: int
    title: str
    parent_ids: tuple[int, ...]


@dataclass(frozen=True)
class CorpusStore:
    """Immutable validated corpus: pages, categories, and the hierarchy root."""

    pages: tuple[PageRecord, ...]
    categories: tuple[CategoryRecord, ...]
    root_category_id: int

    @property
    def n_pages(self) -> int:
        return len(self.pages)


@dataclass(frozen=True)
class FilterConfig:
    """Thresholds a page must meet to survive corpus filtering.

    The defaults keep every page, as the pipeline's default ``filter``
    section does. Thresholds meant for a full Wikipedia dump are
    ``FilterConfig(min_distinct_terms=125, min_in_links=15,
    min_out_links=15)``; on a small corpus they can drop every page.
    """

    min_distinct_terms: int = 0
    min_in_links: int = 0
    min_out_links: int = 0
    excluded_title_prefixes: tuple[str, ...] = ()

    def __post_init__(self):
        if min(self.min_distinct_terms, self.min_in_links, self.min_out_links) < 0:
            raise ValueError("filter thresholds must be >= 0")


# A field is taken only as JSON wrote it: no float, bool or string stands in
# for an integer (type(v) is int leaves out bool). An id must fit the signed
# 64-bit arrays that the cached artifacts are read into.
def _int_field(rec: dict, key: str) -> int:
    value = rec[key]
    if type(value) is not int:
        raise TypeError(f"{key!r} must be an integer, got {value!r}")
    if value >= 2**63:
        raise ValueError(f"{key!r} {value} is not below 2**63")
    return value


def _ids_field(rec: dict, key: str, self_id=None) -> tuple[int, ...]:
    """``rec[key]`` in canonical form: sorted, deduplicated, ``self_id`` dropped."""
    values = rec[key]
    if type(values) is not list or not _INT.issuperset(map(type, values)):
        raise TypeError(f"{key!r} must be a list of integers, got {values!r}")
    ids = set(values)
    ids.discard(self_id)  # never the largest id, as self_id is below 2**63
    ids = sorted(ids)
    if ids and ids[-1] >= 2**63:
        raise ValueError(f"{key!r} holds {ids[-1]}, which is not below 2**63")
    return tuple(ids)


def _utf8_field(value: str, key: str) -> None:
    """Raise ValueError if ``value`` holds a lone surrogate, which a JSON
    escape such as ``\\ud800`` can give and UTF-8 cannot encode."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"{key!r} holds the lone surrogate {value[exc.start]!r}, "
                         "which UTF-8 cannot encode") from None


_DECODER = json.JSONDecoder()


def _decoded(line: str):
    """``json.loads(line)`` for a stripped ``line``, which ends in no
    whitespace: one decoder's ``raw_decode``, and the two checks
    ``json.loads`` makes around it, with its error texts."""
    if line.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
    value, end = _DECODER.raw_decode(line)
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, json.decoder.WHITESPACE.match(line, end).end())
    return value


def parse_corpus(lines) -> CorpusStore:
    """Parse an iterable of corpus lines (or a whole string) into a CorpusStore.

    Raises CorpusError with a line number for malformed records (among them
    an id, ``root`` or list entry that is not a JSON integer below 2**63, a
    ``categories``, ``parents`` or ``links`` that is not a list, a
    ``text`` that is not a string, and a ``title`` or ``text`` that holds a
    lone surrogate), duplicate ids, dangling references, or a missing root
    category.
    """
    if isinstance(lines, str):
        lines = lines.splitlines()
    pages: dict[int, PageRecord] = {}
    categories: dict[int, CategoryRecord] = {}
    root_id = None
    saw_meta = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            rec = _decoded(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(rec, dict) or "kind" not in rec:
            raise CorpusError(f"line {lineno}: record has no 'kind' field")
        kind = rec["kind"]
        try:
            if kind == "meta":
                if saw_meta:
                    raise CorpusError(f"line {lineno}: duplicate meta header")
                if lineno != 1 and (pages or categories):
                    raise CorpusError(f"line {lineno}: meta header must be the first record")
                if rec.get("version") != FORMAT_VERSION:
                    raise CorpusError(f"line {lineno}: unsupported corpus version {rec.get('version')!r}")
                root_id = _int_field(rec, "root")
                saw_meta = True
            elif kind in ("page", "category"):
                if not saw_meta:
                    raise CorpusError(f"line {lineno}: record before meta header")
                rid = _int_field(rec, "id")
                if rid < 0:
                    raise CorpusError(f"line {lineno}: negative {kind} id {rid}")
                if rid in (pages if kind == "page" else categories):
                    raise CorpusError(f"line {lineno}: duplicate {kind} id {rid}")
                title = rec["title"]
                if not isinstance(title, str) or not title:
                    raise CorpusError(f"line {lineno}: {kind} {rid}: 'title' must be a "
                                      f"non-empty string, got {title!r}")
                # an ASCII string holds no surrogate; str.isascii() reads a flag
                if not title.isascii():
                    _utf8_field(title, "title")
                if kind == "page":
                    text = rec["text"]
                    if not isinstance(text, str):
                        raise TypeError(f"'text' must be a string, got {text!r}")
                    if not text.isascii():
                        _utf8_field(text, "text")
                    pages[rid] = PageRecord(rid, title, text, _ids_field(rec, "categories"),
                                            _ids_field(rec, "links", rid))
                else:
                    categories[rid] = CategoryRecord(rid, title, _ids_field(rec, "parents", rid))
            else:
                raise CorpusError(f"line {lineno}: unknown record kind {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, CorpusError):
                raise
            raise CorpusError(f"line {lineno}: malformed {kind} record: {exc}") from exc
    if not saw_meta:
        raise CorpusError("missing meta header line")
    store = CorpusStore(
        pages=tuple(pages[k] for k in sorted(pages)),
        categories=tuple(categories[k] for k in sorted(categories)),
        root_category_id=root_id,
    )
    _validate_references(store)
    return store


def _validate_references(store: CorpusStore) -> None:
    # Category references must resolve. Page out-links are soft: they may
    # point into the wider unfiltered universe, so a filtered store keeps
    # its link lists (and hence its degrees) intact.
    cat_ids = {c.category_id for c in store.categories}
    if store.root_category_id not in cat_ids:
        raise CorpusError(f"root category {store.root_category_id} does not exist")
    for p in store.pages:
        for cid in p.category_ids:
            if cid not in cat_ids:
                raise CorpusError(f"page {p.page_id} references unknown category {cid}")
    for c in store.categories:
        for pid in c.parent_ids:
            if pid not in cat_ids:
                raise CorpusError(f"category {c.category_id} references unknown parent {pid}")


def serialize_corpus(store: CorpusStore) -> str:
    """Serialize a store to the line-delimited format, canonically ordered by id.

    Each record goes through its kind's template as ``json.dumps(record,
    ensure_ascii=False)`` writes it, with the line breaks ``str.splitlines()``
    sees inside strings escaped, so ``parse_corpus`` reads the text back to an
    equal store. CorpusError names the record and field of an id, root or
    id-list entry whose type is not exactly int, an id list that is not a
    tuple, and a title or text that is not a str."""
    categories, pages, get = store.categories, store.pages, attrgetter
    enc = json.encoder.encode_basestring  # the string writer of json.dumps
    try:
        # %d writes a bool or a float as an integer: every id's type is checked first
        types = {type(v) for c in categories for v in c.parent_ids}
        types.update(map(type, map(get("category_id"), categories)), map(type, map(get("page_id"), pages)),
                     {type(v) for p in pages for v in p.category_ids}, {type(v) for p in pages for v in p.out_links})
        if not _INT.issuperset(types) or type(store.root_category_id) is not int:
            raise TypeError("an id that is not an int")
        # the %-template of an id list's body by its length, "%d, %d" for two ids
        lists = chain(map(get("parent_ids"), categories), map(get("category_ids"), pages),
                      map(get("out_links"), pages))
        ids = {n: ", ".join(["%d"] * n) for n in set(map(len, lists))}
        lines = chain(
            [_META_LINE % (store.root_category_id, FORMAT_VERSION)],
            (_CATEGORY_LINE % (c.category_id, enc(c.title), ids[len(c.parent_ids)] % c.parent_ids)
             for c in sorted(categories, key=get("category_id"))),
            (_PAGE_LINE % (p.page_id, enc(p.title), enc(p.text), ids[len(p.category_ids)]
                           % p.category_ids, ids[len(p.out_links)] % p.out_links)
             for p in sorted(pages, key=get("page_id"))))
        # joined 256 records at a time, so no list holds a line per record
        text = "\n".join(map("\n".join, iter(lambda: list(islice(lines, 256)), []))) + "\n"
    except TypeError:
        _refuse_ill_typed(store)
        raise
    if text.isascii():
        return text
    return _LINE_BREAKS_IN_STRINGS.sub(lambda m: f"\\u{ord(m[0]):04x}", text)


def _refuse_ill_typed(store: CorpusStore) -> None:
    """Raise CorpusError naming the first record of ``store``, and its field,
    that the templates would write wrong."""
    for name, fields in chain([("the meta record", {"root_category_id": store.root_category_id})],
                              ((f"category {c.category_id!r}", vars(c)) for c in store.categories),
                              ((f"page {p.page_id!r}", vars(p)) for p in store.pages)):
        for field, value in fields.items():
            want, ok = (("a str", isinstance(value, str)) if field in ("title", "text") else
                        ("an int", type(value) is int) if field.endswith("_id") else
                        ("a tuple of ints", isinstance(value, tuple) and _INT.issuperset(map(type, value))))
            if not ok:
                raise CorpusError(f"cannot write {name}: {field} must be {want}, got {value!r}") from None


def in_link_degrees(store: CorpusStore) -> dict[int, int]:
    """In-link degree per page, derived from the union of all out_links.

    Links to pages absent from the store do not count anywhere; pages
    never linked have degree 0.
    """
    degrees = {p.page_id: 0 for p in store.pages}
    for p in store.pages:
        for tid in p.out_links:
            if tid in degrees:
                degrees[tid] += 1
    return degrees


def filter_pages(store: CorpusStore, cfg: FilterConfig, analyzer) -> CorpusStore:
    """Keep pages meeting all thresholds; single pass against pre-filter degrees.

    A page leaves the categories whose titles start with an excluded
    prefix, and a page left in no category is dropped, as is one the
    input puts in none: no arborescence over the category graph reaches
    it. Categories are always retained (pruning empties is the graph
    layer's concern), and surviving pages keep their full out_links even
    when a target was filtered away: link lists describe the original
    universe, which keeps out-degrees stable under repeated filtering.
    """
    return _filter_pages(store, cfg, lambda i: len(set(analyzer.analyze(store.pages[i].text))))


def _filter_pages(store: CorpusStore, cfg: FilterConfig, distinct_terms) -> CorpusStore:
    """``filter_pages``, with ``distinct_terms(i)`` the number of distinct
    terms of ``store.pages[i]``. It is called only under a
    ``min_distinct_terms`` above 0, for pages left in a category."""
    in_deg = in_link_degrees(store)
    excluded = {
        c.category_id
        for c in store.categories
        if any(c.title.startswith(pfx) for pfx in cfg.excluded_title_prefixes)
    }
    pages = []
    for i, p in enumerate(store.pages):
        category_ids = tuple(c for c in p.category_ids if c not in excluded)
        if not category_ids:
            continue
        # a threshold of 0 keeps every page, so its text is not analyzed
        if cfg.min_distinct_terms and distinct_terms(i) < cfg.min_distinct_terms:
            continue
        if in_deg[p.page_id] < cfg.min_in_links:
            continue
        if len(p.out_links) < cfg.min_out_links:
            continue
        pages.append(PageRecord(page_id=p.page_id, title=p.title, text=p.text,
                                category_ids=category_ids, out_links=p.out_links))
    return CorpusStore(pages=tuple(pages), categories=store.categories,
                       root_category_id=store.root_category_id)


def gen_synthetic_wiki(
    seed: int,
    n_topics: int,
    pages_per_topic: int,
    vocab_per_topic: int,
    depth: int,
    *,
    tokens_per_page: int = 60,
    shared_vocab: int = 10,
    crosstalk: float = 0.1,
    junk_words_per_page: int = 1,
    junk_repeats: int = 3,
):
    """Deterministically generate a labelled corpus with a topic category tree.

    Leaf categories correspond to topics; for depth > 1, topics are grouped
    pairwise into intermediate categories up to the root. Page text mixes
    topic vocabulary, globally shared vocabulary, cross-topic noise
    (`crosstalk` is the probability a token is drawn from a foreign topic),
    and a few page-unique junk words repeated enough to earn a high tf.

    Returns (CorpusStore, labels) with labels mapping page_id -> topic name.
    A count that is not an int (nor a bool) at or above its floor, or a
    crosstalk outside [0, 1], raises ValueError naming the parameter.
    """
    for name, value, floor in (
            ("n_topics", n_topics, 1), ("pages_per_topic", pages_per_topic, 1),
            ("vocab_per_topic", vocab_per_topic, 1), ("depth", depth, 1),
            ("tokens_per_page", tokens_per_page, 0), ("shared_vocab", shared_vocab, 0),
            ("junk_words_per_page", junk_words_per_page, 0), ("junk_repeats", junk_repeats, 0)):
        if type(value) is not int or value < floor:
            raise ValueError(f"{name} must be an integer >= {floor}, got {value!r}")
    if type(crosstalk) not in (int, float) or not 0 <= crosstalk <= 1:
        raise ValueError(f"crosstalk must be a real number in [0, 1], got {crosstalk!r}")
    rng = random.Random(seed)
    topic_names = [f"topic{t}" for t in range(n_topics)]
    topic_vocab = [[f"t{t}w{j}" for j in range(vocab_per_topic)] for t in range(n_topics)]
    shared = [f"shared{j}" for j in range(shared_vocab)]

    # Category tree: leaves are topics; each extra level groups children in pairs.
    categories: dict[int, CategoryRecord] = {}
    root_id = 0
    leaf_cids = list(range(1, n_topics + 1))
    next_cid = n_topics + 1
    level = list(leaf_cids)
    level_titles = {cid: topic_names[i] for i, cid in enumerate(leaf_cids)}
    parent_of: dict[int, int] = {}
    for _ in range(depth - 1):
        if len(level) == 1:
            break
        groups = [level[i:i + 2] for i in range(0, len(level), 2)]
        new_level = []
        for g in groups:
            gid = next_cid
            next_cid += 1
            level_titles[gid] = "group_" + "_".join(level_titles[c] for c in g)
            for child in g:
                parent_of[child] = gid
            new_level.append(gid)
        level = new_level
    for cid in level:
        parent_of[cid] = root_id
    categories[root_id] = CategoryRecord(root_id, "Root", ())
    for cid in sorted(level_titles):
        categories[cid] = CategoryRecord(cid, level_titles[cid], (parent_of[cid],))

    # The draws random.Random's choice, randrange(n) and shuffle make on CPython
    # 3.10-3.13: getrandbits(n.bit_length()), drawn again while not below n.
    rnd, bits = rng.random, rng.getrandbits
    n_other, n_shared = n_topics - 1, len(shared)
    k_other, k_vocab, k_shared = (n.bit_length() for n in (n_other, vocab_per_topic, n_shared))
    swaps = [(i, (i + 1).bit_length())
             for i in range(tokens_per_page + junk_words_per_page * junk_repeats - 1, 0, -1)]
    n_pages = n_topics * pages_per_topic
    pages = []
    labels = {pid: topic_names[pid % n_topics] for pid in range(n_pages)}
    for pid in range(n_pages):
        topic = pid % n_topics
        tokens = []
        for _ in range(tokens_per_page):
            r = rnd()
            if r < crosstalk and n_other:
                other = bits(k_other)
                while other >= n_other:
                    other = bits(k_other)
                words, n, k = topic_vocab[other + (other >= topic)], vocab_per_topic, k_vocab
            elif r < crosstalk + 0.2 and shared:
                words, n, k = shared, n_shared, k_shared
            else:
                words, n, k = topic_vocab[topic], vocab_per_topic, k_vocab
            j = bits(k)
            while j >= n:
                j = bits(k)
            tokens.append(words[j])
        for j in range(junk_words_per_page):
            tokens.extend([f"junk{pid}x{j}"] * junk_repeats)
        for i, k in swaps:  # shuffle: swap each token with one at or before it
            j = bits(k)
            while j > i:
                j = bits(k)
            tokens[i], tokens[j] = tokens[j], tokens[i]
        # Ring links keep every page above trivial in/out-degree thresholds.
        out_links = tuple(sorted({(pid + 1) % n_pages, (pid + 2) % n_pages} - {pid}))
        pages.append(PageRecord(
            page_id=pid,
            title=f"page{pid}",
            text=" ".join(tokens),
            category_ids=(leaf_cids[topic],),
            out_links=out_links,
        ))
    store = CorpusStore(
        pages=tuple(pages),
        categories=tuple(categories[k] for k in sorted(categories)),
        root_category_id=root_id,
    )
    return store, labels
