"""Self-test of the benchmark at toy size.

The checks must catch a corrupted artifact, and every workload must emit
every metric BENCHMARK.json declares, with its unit.
"""

import json
import math
import struct
from dataclasses import replace
from pathlib import Path

import pytest

from bench_workloads import CHECK_PAGES, FULL, WORKLOADS, Run, metric_units, run_workload

ROOT = Path(__file__).resolve().parent.parent

TOY = replace(
    FULL,
    tree=dict(n_topics=3, depth=2, pages_per_topic=6, vocab_per_topic=8, tokens_per_page=15,
              crosstalk=0.3, junk_words_per_page=1, junk_repeats=3),
    cyclic=dict(n_topics=3, pages_per_topic=6, vocab_per_topic=8, tokens_per_page=12,
                subcats_per_topic=8, cycles=6, crosstalk=0.3),
    queries=40, query_bursts=4, session_hits=2, setup_repeats=2,
)


def test_corrupted_baseline_weight_fails_the_op(tmp_path):
    run = Run("cold-tree", seed=3, sizes=TOY, workdir=tmp_path)
    run.setup()
    cache = tmp_path / "cache"
    cfg = run.cold_op(cache)
    assert (run.attempted, run.failed) == (1, 0), run.problems
    assert len(run.space.page_ids) <= CHECK_PAGES  # every page is checked

    # First weight of the first vector: ESVS header (12 bytes), key (8),
    # ESAV header (15), then the entry's u32 dimension.
    path = cache / "baseline.esvs"
    buf = bytearray(path.read_bytes())
    (weight,) = struct.unpack_from("<d", buf, 12 + 8 + 15 + 4)
    struct.pack_into("<d", buf, 12 + 8 + 15 + 4, weight * (1 + 1e-9))
    path.write_bytes(bytes(buf))

    run.hit_op(cache, cfg, run.accuracy)
    assert (run.attempted, run.failed) == (2, 1)
    assert any("baseline vector of page" in p for p in run.problems), run.problems


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(tmp_path, workload, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in section} == metric_units(trace)

    run, metrics = run_workload(workload, seed=2, seconds=0, trace=trace, root=tmp_path, sizes=TOY)
    assert run.failed == 0, run.problems
    assert run.attempted >= 1
    assert set(metrics) == set(metric_units(trace))
    assert all(math.isfinite(v) for v in metrics.values())
    if trace:
        assert (tmp_path / ".perfbench_work" / f"spans-{workload}-seed2.json").exists()
    else:
        assert all(v > 0 for v in metrics.values())
