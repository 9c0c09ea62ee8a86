"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload cold-tree --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout: the library is imported from
``src/`` next to this directory, never from an installed copy. Earlier
stdout lines give the input's shape, the sample counts and the unscaled
median time of each op kind; check failures
go to stderr. The last line is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``
with the end-to-end metrics, or with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import wikistrata  # noqa: E402
from bench_workloads import WORKLOADS, metric_units, run_workload  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(wikistrata.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"wikistrata imported from {wikistrata.__file__}, not from {ROOT / 'src'}")

    run, metrics = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    for problem in run.problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"inputs": run.inputs, "samples": run.sample_counts(),
                      "raw_median_s": run.raw_medians()}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in metric_units(bool(args.trace)).items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
