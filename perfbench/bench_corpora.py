"""Benchmark inputs: the strict-tree synthetic config and a cyclic corpus.

The library's own generator (``gen_synthetic_wiki``) only makes strict
trees: one parent per category, one category per page, no cycles. The
cyclic generator below adds what real category graphs have and the tree
lacks: multi-parent categories, pages in several categories, and planted
2- and 3-cycles among sibling subcategories. Both are deterministic in
their seed.
"""

from __future__ import annotations

import random

from wikistrata import catgraph
from wikistrata.corpus import CategoryRecord, CorpusStore, PageRecord

# cold-tree and lambda-session: 400 pages under a depth-3 topic tree.
# crosstalk 0.55 keeps accuracy off the ceiling (about 0.80 / 0.90).
TREE_FULL = dict(n_topics=8, depth=3, pages_per_topic=50, vocab_per_topic=40,
                 tokens_per_page=40, crosstalk=0.55, junk_words_per_page=3, junk_repeats=4)

# cyclic-file: 320 pages, 1200 subcategories, 450 planted cycles. Cycles
# are disjoint, so each is its own strongly connected component and leaf
# sets stay small; about 3 in 4 cycles hold a page and force one
# Chu-Liu/Edmonds contraction (about 380 in all, well below the ~1200
# at which the recursive solver overflows the stack).
CYCLIC_FULL = dict(n_topics=8, pages_per_topic=40, vocab_per_topic=20, tokens_per_page=20,
                   subcats_per_topic=150, cycles=450, crosstalk=0.5)

# Exact shares of subcategories with a second parent in another topic,
# and of pages also in a subcategory of another topic.
EXTRA_PARENT_P = 0.2
CROSS_TOPIC_P = 0.1
# Words every topic draws from, a share 0.2 of each page's tokens.
SHARED_VOCAB = 10


def gen_cyclic_wiki(
    seed: int,
    n_topics: int,
    pages_per_topic: int,
    vocab_per_topic: int,
    tokens_per_page: int,
    subcats_per_topic: int,
    cycles: int,
    crosstalk: float,
):
    """Labelled corpus whose category graph has cycles and shared parents.

    Root -> topic categories -> sibling subcategories. A share
    ``EXTRA_PARENT_P`` of subcategories gets a second parent in another
    topic; ``cycles`` disjoint rings, alternately of 2 and 3 siblings, are
    planted within the topics. Pages sit in 1, 2 or 3 subcategories of
    their topic in turn, and a share ``CROSS_TOPIC_P`` also in one
    subcategory of another. Shares and counts are exact, so seeds vary
    which categories are picked, not how many.

    Returns (CorpusStore, labels, planted) where planted lists the rings.
    """
    rng = random.Random(seed)
    parents: dict[int, set[int]] = {0: set()}
    titles = {0: "Root"}
    topics = list(range(1, n_topics + 1))
    for t, cid in enumerate(topics):
        parents[cid] = {0}
        titles[cid] = f"topic{t}"
    subs = []
    next_cid = n_topics + 1
    for t in range(n_topics):
        row = list(range(next_cid, next_cid + subcats_per_topic))
        next_cid += subcats_per_topic
        for j, cid in enumerate(row):
            parents[cid] = {topics[t]}
            titles[cid] = f"topic{t}_sub{j}"
        subs.append(row)

    def other_topic(t: int) -> int:
        o = rng.randrange(n_topics - 1)
        return o + (o >= t)

    all_subs = [cid for row in subs for cid in row]
    for cid in rng.sample(all_subs, round(EXTRA_PARENT_P * len(all_subs))):
        t = (cid - n_topics - 1) // subcats_per_topic
        parents[cid].add(rng.choice(subs[other_topic(t)]))

    planted = []
    for t in range(n_topics):
        pool = list(subs[t])
        rng.shuffle(pool)
        for i in range(cycles // n_topics + (t < cycles % n_topics)):
            ring, pool = pool[:2 + i % 2], pool[2 + i % 2:]
            if len(ring) < 2:
                break
            for a, b in zip(ring, ring[1:] + ring[:1]):
                parents[a].add(b)
            planted.append(tuple(ring))

    topic_vocab = [[f"t{t}w{j}" for j in range(vocab_per_topic)] for t in range(n_topics)]
    shared = [f"shared{j}" for j in range(SHARED_VOCAB)]
    n_pages = n_topics * pages_per_topic
    pages = []
    labels = {}
    cross = set(rng.sample(range(n_pages), round(CROSS_TOPIC_P * n_pages)))
    for pid in range(n_pages):
        t = pid % n_topics
        labels[pid] = f"topic{t}"
        tokens = []
        for _ in range(tokens_per_page):
            r = rng.random()
            if r < crosstalk:
                tokens.append(rng.choice(topic_vocab[other_topic(t)]))
            elif r < crosstalk + 0.2:
                tokens.append(rng.choice(shared))
            else:
                tokens.append(rng.choice(topic_vocab[t]))
        tokens += [f"junk{pid}"] * 3
        rng.shuffle(tokens)
        cats = set(rng.sample(subs[t], 1 + pid // n_topics % 3))
        if pid in cross:
            cats.add(rng.choice(subs[other_topic(t)]))
        pages.append(PageRecord(
            page_id=pid,
            title=f"page{pid}",
            text=" ".join(tokens),
            category_ids=tuple(sorted(cats)),
            out_links=tuple(sorted({(pid + 1) % n_pages, (pid + 2) % n_pages} - {pid})),
        ))
    store = CorpusStore(
        pages=tuple(pages),
        categories=tuple(CategoryRecord(c, titles[c], tuple(sorted(parents[c])))
                         for c in sorted(parents)),
        root_category_id=0,
    )
    return store, labels, planted


def describe(store, planted_cycles: int) -> dict[str, int]:
    """Shape of a benchmark input, reported next to the metrics."""
    g = catgraph.build_graph(store)
    return {
        "pages": len(store.pages),
        "categories": len(store.categories),
        "inclusion_edges": len(g.inclusion),
        "planted_cycles": planted_cycles,
        "census_cycles": len(catgraph.cycle_census(g).cycles),
    }
