"""Baseline ESA vs stratified ESA on a noisy synthetic wiki.

Runs the cached pipeline over a corpus with heavy topic crosstalk and
per-page junk words, then again with gentler lambdas, then back at the
first lambdas. The stratified vectors pull a page's weights toward terms
its ancestor categories agree on, which usually buys a few points of
classification accuracy. The last run takes the index, category graph,
tables and tree that the second parsed, since their bytes did not change.

Run:  python3 demos/stratified_classification.py
"""

import tempfile

from wikistrata.pipeline import merge_config, run_pipeline


def main():
    with tempfile.TemporaryDirectory() as workdir:
        cfg = merge_config({
            "corpus": {"synthetic": {
                "seed": 1, "n_topics": 4, "pages_per_topic": 50,
                "vocab_per_topic": 40, "depth": 2, "tokens_per_page": 40,
                "crosstalk": 0.45, "junk_words_per_page": 3, "junk_repeats": 4,
            }},
            "eval": {"k": 5, "seed": 0},
            "cache": {"dir": workdir},
        })

        result = run_pipeline(cfg)
        print("pipeline stages:")
        for name, status in result.stages:
            print(f"  [{status}] {name}")

        base = result.reports["baseline"]
        strat = result.reports["stratified"]
        print("\n== baseline ESA ==")
        print(base.summary())
        print("== stratified ESA (lambdas 0.5, 0.25, 0.125) ==")
        print(strat.summary())
        gain = strat.mean_accuracy - base.mean_accuracy
        print(f"accuracy gain from stratification: {gain:+.4f}")

        # Rerunning with different lambdas only redoes the last two stages.
        first_lambdas = cfg["strata"]["lambdas"]
        cfg["strata"]["lambdas"] = [0.1, 0.05, 0.025]
        rerun = run_pipeline(cfg)
        redone = [name for name, status in rerun.stages if status == "run"]
        print(f"\nafter a lambda change, only {redone} reran (everything else hit the cache)")
        print(f"gentler lambdas accuracy: {rerun.reports['stratified'].mean_accuracy:.4f}")

        cfg["strata"]["lambdas"] = first_lambdas
        back = run_pipeline(cfg)
        same = "equals" if back.reports["stratified"] == strat else "DIFFERS FROM"
        print(f"back at the first lambdas, the stratified report {same} the first run's")


if __name__ == "__main__":
    main()
