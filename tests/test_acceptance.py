"""End-to-end acceptance checks.

Each test prints a single [PASS]/[FAIL] line for its criterion; run with
``pytest -s tests/test_acceptance.py`` to see them all.
"""

import contextlib
import random
import time

from wikistrata.arbor import chu_liu_edmonds
from wikistrata.catgraph import categorical_tfidf, cycle_census, fit_power_law, leaf_sets
from wikistrata.corpus import gen_synthetic_wiki
from wikistrata.esa import build_index, load_vector_set, relatedness, tfidf, word_vector
from wikistrata.pipeline import merge_config, run_pipeline
from wikistrata.textproc import Analyzer, build_vocabulary

from oracles import brute_force_min_arborescence, sample_power_law_degrees
from test_arbor import random_reachable_digraph
from test_catgraph import leaf_set_oracle, make_graph


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {num}: {desc}")
        raise
    print(f"[PASS] {num}: {desc}")


def test_01_arborescence_matches_exhaustive_search():
    with criterion(1, "minimum arborescence equals exhaustive search on 500 random digraphs"):
        start = time.perf_counter()
        for seed in range(500):
            rng = random.Random(seed)
            d = random_reachable_digraph(rng, rng.randint(2, 6), cost_range=(0, 9))
            fast = chu_liu_edmonds(d)
            slow = brute_force_min_arborescence(d)
            assert fast.total_cost == slow.total_cost, f"seed {seed}"
        assert time.perf_counter() - start < 10.0


def test_02_singleton_category_equals_classical_tfidf(fixture_index):
    with criterion(2, "singleton-category tfidf equals classical tfidf within 1e-12"):
        for pid in fixture_index.page_ids:
            g = make_graph({0, 1}, inclusion={(1, 0)},
                           membership={(pid, 1)}, pages={pid})
            ls = leaf_sets(g)
            for tid, f in fixture_index.page_term_freqs[pid].items():
                cat = categorical_tfidf(tid, 1, fixture_index, ls)
                classical = tfidf(f, fixture_index.vocabulary.df(tid),
                                  fixture_index.n_pages)
                assert abs(cat - classical) <= 1e-12


def test_03_zero_lambdas_reduce_to_baseline(tmp_path):
    with criterion(3, "all-zero stratification weights reproduce baseline vectors bit for bit"):
        cfg = merge_config({
            "corpus": {"synthetic": {"seed": 3, "n_topics": 3,
                                     "pages_per_topic": 12,
                                     "vocab_per_topic": 15, "depth": 1}},
            "strata": {"lambdas": [0.0, 0.0, 0.0]},
            "cache": {"dir": str(tmp_path / "cache")},
        })
        result = run_pipeline(cfg)
        baseline = load_vector_set(result.artifacts["baseline.esvs"])
        stratified = load_vector_set(result.artifacts["stratified.esvs"])
        assert stratified == baseline
        with open(result.artifacts["baseline.esvs"], "rb") as fh:
            base_bytes = fh.read()
        with open(result.artifacts["stratified.esvs"], "rb") as fh:
            strat_bytes = fh.read()
        assert base_bytes == strat_bytes


def test_04_all_emitted_vectors_unit_or_zero(tmp_path):
    with criterion(4, "every emitted vector has unit norm (or is zero) within 1e-9"):
        cfg = merge_config({
            "corpus": {"synthetic": {"seed": 4, "n_topics": 3,
                                     "pages_per_topic": 12,
                                     "vocab_per_topic": 15, "depth": 2}},
            "cache": {"dir": str(tmp_path / "cache")},
        })
        result = run_pipeline(cfg)
        for artifact in ("baseline.esvs", "stratified.esvs",
                         "catvecs.esvs", "pagevecs.esvs"):
            for vec in load_vector_set(result.artifacts[artifact]).values():
                assert vec.is_zero() or abs(vec.norm() - 1.0) <= 1e-9


def test_05_relatedness_symmetric_bounded_reflexive():
    with criterion(5, "relatedness is symmetric, within [0,1], and 1 on the diagonal"):
        store, _ = gen_synthetic_wiki(seed=5, n_topics=4, pages_per_topic=20,
                                      vocab_per_topic=25, depth=1)
        analyzer = Analyzer()
        voc = build_vocabulary(store, analyzer, min_df=1)
        index = build_index(store, analyzer, voc)
        rng = random.Random(5)
        terms = list(range(len(voc)))
        for _ in range(1000):
            a, b = rng.choice(terms), rng.choice(terms)
            r_ab = relatedness(index, a, b)
            r_ba = relatedness(index, b, a)
            assert 0.0 <= r_ab <= 1.0
            assert abs(r_ab - r_ba) <= 1e-12
            if not word_vector(index, a).is_zero():
                assert abs(relatedness(index, a, a) - 1.0) <= 1e-12


def test_06_leaf_sets_match_reachability_oracle():
    with criterion(6, "leaf sets match a reverse-reachability oracle on 100 random graphs"):
        for seed in range(100):
            rng = random.Random(seed)
            n_cats = rng.randint(2, 30)
            n_pages = rng.randint(1, 20)
            cats = set(range(n_cats))
            inclusion = {
                (a, b) for a in cats for b in cats
                if a != b and rng.random() < 0.1
            }
            membership = {
                (100 + p, rng.randrange(n_cats)) for p in range(n_pages)
            }
            g = make_graph(cats, inclusion, membership,
                           pages={p for p, _ in membership})
            assert len(cats) + len(g.page_ids) <= 50
            ls = leaf_sets(g)
            for c in cats:
                assert set(ls.pages_of(c)) == leaf_set_oracle(g, c), f"seed {seed} cat {c}"


def test_07_stratification_improves_classification(tmp_path):
    with criterion(7, "stratified vectors classify no worse than baseline and usually better"):
        wins = 0
        for seed in range(1, 6):
            cfg = merge_config({
                "corpus": {"synthetic": {
                    "seed": seed, "n_topics": 4, "pages_per_topic": 50,
                    "vocab_per_topic": 40, "depth": 2,
                    "tokens_per_page": 40, "crosstalk": 0.45,
                    "junk_words_per_page": 3, "junk_repeats": 4,
                }},
                "eval": {"k": 5, "seed": 0},
                "cache": {"dir": str(tmp_path / f"cache{seed}")},
            })
            result = run_pipeline(cfg)
            base = result.reports["baseline"].mean_accuracy
            strat = result.reports["stratified"].mean_accuracy
            assert 0.6 <= base <= 0.9, f"seed {seed}: baseline {base}"
            assert strat >= base, f"seed {seed}: {strat} < {base}"
            if strat > base:
                wins += 1
        assert wins >= 3, f"stratified strictly better on only {wins}/5 seeds"


def test_08_exact_cycle_census_finds_planted_cycles():
    with criterion(8, "exact cycle census recovers planted 2- and 3-cycles on 100 random graphs"):
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randint(10, 25)
            cats = set(range(n))
            inclusion = {
                (a, b) for a in cats for b in cats
                if a > b + 5 and rng.random() < 0.15
            }
            planted = set()
            reserved = list(range(n, n + 10))
            expected = set()
            it = iter(reserved)
            for _ in range(rng.randint(1, 2)):
                a, b = next(it), next(it)
                planted |= {(a, b), (b, a)}
                expected.add((a, b))
            for _ in range(rng.randint(1, 2)):
                a, b, c = next(it), next(it), next(it)
                planted |= {(a, b), (b, c), (c, a)}
                expected.add((a, b, c))
            g = make_graph(cats | set(reserved), inclusion | planted,
                           membership=(), pages=())
            report = cycle_census(g, "exact")
            assert set(report.cycles) == expected, f"seed {seed}"


def test_09_power_law_fit_recovers_exponent():
    with criterion(9, "power-law fit recovers the generating exponent within 0.3"):
        degrees = sample_power_law_degrees(2.5, 10000, seed=42)
        fit = fit_power_law(degrees)
        assert not fit.degenerate
        assert abs(fit.alpha - 2.5) <= 0.3, f"alpha {fit.alpha}"


def test_10_pipeline_reruns_byte_identical(tmp_path):
    with criterion(10, "independent pipeline runs produce byte-identical artifacts"):
        def run(dirname):
            cfg = merge_config({
                "corpus": {"synthetic": {"seed": 10, "n_topics": 3,
                                         "pages_per_topic": 15,
                                         "vocab_per_topic": 20, "depth": 2}},
                "cache": {"dir": str(tmp_path / dirname)},
            })
            return run_pipeline(cfg)

        a = run("cache-a")
        b = run("cache-b")
        for artifact in ("baseline.esvs", "stratified.esvs", "catvecs.esvs",
                         "pagevecs.esvs", "arborescence.tsv"):
            with open(a.artifacts[artifact], "rb") as fh:
                bytes_a = fh.read()
            with open(b.artifacts[artifact], "rb") as fh:
                bytes_b = fh.read()
            assert bytes_a == bytes_b, artifact
        assert a.reports == b.reports
