"""Span tracing for one benchmark repetition.

Timing wrappers go on the public functions of each ringsombor module (and on
the few methods that are a layer of their own), in the traced repetition
only.  A span is (name, start, end, parent); the repetition's run id is
stamped on every span when the spans are written out.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import time

MODULES = ("rings", "graphs", "sombor", "radicals", "closed_forms", "verify", "cli")

# Span name -> layer, where the layer is not just the module name.
LAYER_OF = {
    "graphs.total_graph": "graphs.build",
    "graphs.unit_graph": "graphs.build",
    "graphs.complement": "graphs.build",
    "graphs.Graph.degrees": "graphs.degrees",
    "graphs.edge_partition_of": "graphs.partition",
    "sombor.degree_pair_counts": "sombor.pair_counts",
    "sombor.sombor_bruteforce": "sombor.assemble",
    "rings.factorize": "rings.factorize",
    "rings.unit_mask": "rings.unit_mask",
    "radicals.radical_normalize": "radicals.normalize",
    "cli.build_parser": "cli.parse",
    "cli.parse_args": "cli.parse",
}

# Graph builders: each builds one n-vertex adjacency of n*n bits.
_BUILDERS = ("graphs.total_graph", "graphs.unit_graph", "graphs.complement")

# The lru-cached functions whose hit ratios are reported.
CACHED = {"factorize": ("rings", "factorize"), "normalize": ("radicals", "radical_normalize")}


def layer_of(name: str) -> str:
    if name in LAYER_OF:
        return LAYER_OF[name]
    module, func = name.split(".", 1)
    if module == "closed_forms":
        return "closed_forms.eval"
    if module == "verify" and (
        func.startswith(("write_", "canonical_"))
        or func.endswith(("_payload", "_rows"))
        or func == "errata_report"
    ):
        return "verify.report"
    return module


class Tracer:
    """Spans of one process, kept in memory while active."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.active = False
        self.row_bytes = 0.0

    def wrap(self, name: str, fn):
        counts_rows = name in _BUILDERS

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if counts_rows:
                g = result[0] if isinstance(result, tuple) else result
                self.row_bytes += g.n * g.n / 8
            return result

        return functools.update_wrapper(traced, fn)


def install(modules: dict) -> Tracer:
    """Wrap every public function defined in each module, the Graph.degrees
    property, the rings' unit_mask methods and the CLI parser, and rebind
    every module-level name that referred to an original."""
    tracer = Tracer()
    wrapped: dict[int, object] = {}
    for short in MODULES:
        mod = modules[short]
        for name, obj in vars(mod).items():
            if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            wrapped[id(obj)] = tracer.wrap(f"{short}.{name}", obj)

    cli = modules["cli"]
    traced_build = wrapped[id(cli.build_parser)]

    def build_parser(*args, **kwargs):
        parser = traced_build(*args, **kwargs)
        parser.parse_args = tracer.wrap("cli.parse_args", parser.parse_args)
        return parser

    wrapped[id(cli.build_parser)] = build_parser

    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, name, wrapped[id(obj)])

    graph_cls = modules["graphs"].Graph
    graph_cls.degrees = property(tracer.wrap("graphs.Graph.degrees", graph_cls.degrees.fget))
    rings = modules["rings"]
    for cls in (rings.FiniteRing, rings.ZnRing, rings.TruncatedPolyRing):
        if "unit_mask" in vars(cls):
            cls.unit_mask = tracer.wrap("rings.unit_mask", vars(cls)["unit_mask"])
    return tracer


def cache_counts(modules: dict) -> dict:
    """(hits, misses) of each reported lru cache, read off the originals."""
    out = {}
    for key, (short, name) in CACHED.items():
        fn = getattr(modules[short], name)
        while not hasattr(fn, "cache_info"):
            fn = fn.__wrapped__
        info = fn.cache_info()
        out[key] = [info.hits, info.misses]
    return out


def self_times(spans) -> dict[str, float]:
    """Per-layer self time in seconds."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for (name, start, end, parent), inner in zip(spans, child_time):
        layer = layer_of(name)
        totals[layer] = totals.get(layer, 0.0) + (end - start - inner)
    return totals


def covered_time(spans) -> float:
    """Time covered by root spans (they never overlap)."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def write_spans(path: str, run_id: str, spans):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for idx, (name, start, end, parent) in enumerate(spans):
            fh.write(
                json.dumps(
                    {"run": run_id, "id": idx, "name": name, "start": start,
                     "end": end, "parent": None if parent < 0 else parent}
                )
                + "\n"
            )
