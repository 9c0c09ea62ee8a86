"""wikistrata command line.

Every subcommand works off a JSON config file (--config); stage caching
makes repeated invocations cheap. ``run`` runs every stage; the other
commands stop after the last stage they report (see ``_LAST_STAGE``), and
``evaluate`` after the stage that cross-validates its mode's vector set.
Exit codes: 0 success, 2 validation error (bad config or arguments, a
missing file, or a cache directory that another run holds), 3 stage
failure (a broken corpus included) or internal error.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from wikistrata import catgraph, esa, pipeline, strata
from wikistrata.pipeline import ConfigError, StageError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_STAGE = 3


class UsageError(ValueError):
    """A command-line argument the pipeline cannot act on."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wikistrata")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="JSON config file")
        return p

    add("run", "run the full pipeline and print the evaluation summary")

    add("build-index", "build the ESA index artifacts")

    p = add("relate", "ESA relatedness of two terms")
    p.add_argument("term_a")
    p.add_argument("term_b")

    add("build-catvecs", "build category vectors and weighted edges")

    p = add("diagnose", "graph diagnostics")
    p.add_argument("what", choices=["cycles", "degrees", "walk"])
    p.add_argument("--seed", type=int, default=0, help="seed for walk mode")

    p = add("arborify", "extract the minimum spanning arborescence")
    p.add_argument("--root", type=int, default=None, help="override root category id")

    p = add("vectorize", "write stratified document vectors")
    p.add_argument("--strata", default=None,
                   help="preset (half|tenth|flat) or comma-separated lambdas")

    p = add("evaluate", "cross-validated classification report")
    p.add_argument("--mode", choices=["baseline", "stratified"], default="stratified")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, UsageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_STAGE


# The commands that stop after a stage: the last stage each runs, and the
# artifacts whose paths it prints.
_LAST_STAGE = {
    "build-index": ("index", ("index.tsv",)),
    "relate": ("index", ()),
    "build-catvecs": ("weights", ("catvecs.esvs", "weights.tsv")),
    "diagnose": ("filter", ()),
    "arborify": ("arborify", ("arborescence.tsv",)),
    "vectorize": ("vectorize_stratified", ("stratified.esvs",)),
}


def _dispatch(args) -> int:
    cfg = pipeline.load_config(args.config)

    if args.command == "run":
        result = pipeline.run_pipeline(cfg)
        for name, status in result.stages:
            print(f"[{status}] {name}")
        for mode in ("baseline", "stratified"):
            print(f"\n== {mode} ==")
            print(result.reports[mode].summary())
        return EXIT_OK

    if args.command == "arborify" and args.root is not None:
        cfg["arbor"]["root"] = args.root
    if args.command == "vectorize" and args.strata is not None:  # run_stages checks the values
        try:
            cfg["strata"]["lambdas"] = list(strata.PRESETS.get(args.strata) or map(
                float, args.strata.split(",")))
        except ValueError as exc:
            raise UsageError(f"--strata: {exc}") from exc

    last, printed = _LAST_STAGE.get(args.command) or (
        pipeline._WRITER[f"report_{args.mode}.tsv"], ())
    for name, _status, run in pipeline.run_stages(cfg):
        if name == last:
            break
    for artifact in printed:
        print(run.result.artifacts[artifact])

    if args.command == "evaluate":
        print(pipeline._report(run, args.mode).summary())

    if args.command == "relate":
        index = run.index
        ids = []
        for raw in (args.term_a, args.term_b):
            terms = run.analyzer.analyze(raw)
            if len(terms) != 1 or terms[0] not in index.vocabulary:
                raise UsageError(f"term {raw!r} is not in the vocabulary")
            ids.append(index.vocabulary.term_to_id[terms[0]])
        print(f"{esa.relatedness(index, ids[0], ids[1]):.6f}")

    if args.command == "diagnose":
        graph = run.graph
        if args.what == "cycles":
            print(catgraph.cycle_census(graph, "exact").to_tsv(), end="")
        elif args.what == "walk":
            report = catgraph.cycle_census(graph, "walk", seed=args.seed)
            print(f"# walks\t{report.n_walks}")
            print(f"# cycle_walks\t{report.n_cycle_walks}")
            print(f"# root_walks\t{report.n_root_walks}")
            print(f"# dead_end_walks\t{report.n_dead_end_walks}")
            print(report.to_tsv(), end="")
        else:
            print(catgraph.degree_stats(graph).to_tsv(), end="")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
