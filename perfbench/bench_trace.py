"""Span tracing around the library's public functions, from outside it.

``Tracer.install`` replaces each target function with a timing wrapper in
every ``wikistrata`` module namespace that binds it (``strata`` imports
``document_vector`` by name, so patching ``esa`` alone would miss those
calls) and ``Tracer.uninstall`` puts the originals back. Each call records
a span (id, parent id, name, start, end) in memory. A function's self time
is its span time minus the time covered by its child spans.

Per-element hot calls (``tfidf``, ``categorical_tfidf``, ``ancestors``,
``SparseVector`` methods) are not wrapped: the wrapper would cost more
than the call.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

# (layer, attribute path inside the layer's module)
TARGETS = (
    ("corpus", "parse_corpus"),
    ("corpus", "serialize_corpus"),
    ("corpus", "filter_pages"),
    ("corpus", "gen_synthetic_wiki"),
    ("textproc", "build_vocabulary"),
    ("textproc", "Analyzer.analyze"),
    ("esa", "build_index"),
    ("esa", "index_from_freqs"),
    ("esa", "document_vector"),
    ("esa", "relatedness"),
    ("esa", "save_vector_set"),
    ("esa", "load_vector_set"),
    ("catgraph", "build_graph"),
    ("catgraph", "leaf_sets"),
    ("catgraph", "category_term_weights"),
    ("catgraph", "category_vector"),
    ("catgraph", "weight_edges"),
    ("arbor", "reverse_and_cost"),
    ("arbor", "chu_liu_edmonds"),
    ("arbor", "parse_arborescence_tsv"),
    ("arbor", "arborescence_to_tsv"),
    ("strata", "StrataVectorizer.document_vector"),
    ("strata", "StrataVectorizer.stratified_tfidf"),
    ("evaluate", "cross_validate"),
    ("pipeline", "run_pipeline"),
)

LAYERS = ("corpus", "textproc", "esa", "catgraph", "arbor", "strata", "evaluate", "pipeline")


# Work counters taken at the same boundaries:
# (metric name, unit, function key, value from (args, result)).
COUNTERS = (
    ("esa.load_vector_set.bytes", "B", "esa.load_vector_set",
     lambda args, _result: os.path.getsize(args[0])),
    ("esa.save_vector_set.bytes", "B", "esa.save_vector_set",
     lambda args, _result: os.path.getsize(args[0])),
    ("esa.save_vector_set.nnz", "count", "esa.save_vector_set",
     lambda args, _result: sum(v.nnz for v in args[1].values())),
    ("catgraph.weight_edges.edges", "count", "catgraph.weight_edges",
     lambda _args, result: len(result)),
    # the solver's input size
    ("arbor.edges", "count", "arbor.chu_liu_edmonds",
     lambda args, _result: len(args[0].edges)),
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer (name, unit) the tracer reports."""
    names = []
    for layer, attr in TARGETS:
        key = f"{layer}.{attr}"
        names += [(f"{key}.s", "s"), (f"{key}.self_s", "s"), (f"{key}.calls", "count")]
    names += [(name, unit) for name, unit, _key, _value in COUNTERS]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    return names


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.totals = {f"{layer}.{attr}": [0.0, 0.0, 0] for layer, attr in TARGETS}
        self.counts = {name: 0 for name, _unit, _key, _value in COUNTERS}
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, key, fn):
        counters = [(name, value) for name, _unit, k, value in COUNTERS if k == key]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            self._stack.append([sid, 0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _, child = self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                total = self.totals[key]
                total[0] += duration
                total[1] += duration - child
                total[2] += 1
                self.spans.append((sid, parent, key, start, end))
            for name, value in counters:
                self.counts[name] += value(args, result)
            return result

        return traced

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items()
                      if name == "wikistrata" or name.startswith("wikistrata.")]
        for layer, attr in TARGETS:
            owner = sys.modules[f"wikistrata.{layer}"]
            *cls_path, name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[name]
            wrapper = self._wrap(f"{layer}.{attr}", original)
            if cls_path:
                self._patch(owner, name, original, wrapper)
                continue
            for module in namespaces:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, original, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def metrics(self, units: int) -> dict[str, float]:
        """Per-layer figures per traced unit of work."""
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for key, (s, self_s, calls) in self.totals.items():
            out[f"{key}.s"] = s / units
            out[f"{key}.self_s"] = self_s / units
            out[f"{key}.calls"] = calls / units
            layer_self[key.split(".", 1)[0]] += self_s / units
        out.update({name: count / units for name, count in self.counts.items()})
        out.update({f"{layer}.self_s": v for layer, v in layer_self.items()})
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)
