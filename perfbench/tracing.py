"""Spans recorded by the benchmark around its calls into each library layer.

A span is (name, layer, start, end, parent, operation id, peak RSS at
start and end, counters).  Spans stay in memory and are written out as
JSON lines when the round ends.  With tracing off, `span` yields a scratch
counter dict and records nothing.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager

LAYERS = ("gf", "planar", "plane", "unital", "analysis")

# the stage spans reported one by one; every other span still counts
# towards its layer's busy time
STAGES = {
    "gf": ("field_new", "split_new"),
    "planar": ("table", "planarity"),
    "plane": ("axioms", "collineation"),
    "unital": ("build", "embedded", "design", "polarity", "derived", "io"),
    "analysis": ("design_index", "onan", "wilbrink", "circles", "stabilizer",
                 "compare"),
}

# counters summed over a layer's spans, as `<layer>.<counter>`
COUNTERS = {
    "planar": ("shifts_checked",),
    "plane": ("pairs_checked",),
    "unital": ("lines_checked", "pairs_covered", "incidences_checked"),
    "analysis": ("quadruples_examined", "onan_configs", "wilbrink_triples"),
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def operation(self, name: str):
        """The root span of one operation (layer `bench`)."""
        self._op += 1
        with self.span("bench", name):
            yield

    @contextmanager
    def span(self, layer: str, name: str):
        counts: dict = {}
        if not self.enabled:
            yield counts
            return
        rec = {"name": name, "layer": layer, "op": self._op,
               "parent": self._stack[-1] if self._stack else None,
               "rss_start_mb": peak_rss_mb(), "counts": counts}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        try:
            yield counts
        finally:
            rec["end"] = time.perf_counter()
            rec["rss_end_mb"] = peak_rss_mb()
            self._stack.pop()

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def rollup(spans: list[dict]) -> dict[str, float]:
    """Per-layer self time, calls, counters and RSS growth.

    A span's self time (and self RSS growth) is its own minus what its
    direct children cover.
    """
    child_time = [0.0] * len(spans)
    child_rss = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
            child_rss[s["parent"]] += s["rss_end_mb"] - s["rss_start_mb"]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = 0.0
        out[f"{layer}.rss_growth_mb"] = 0.0
        for stage in STAGES[layer]:
            out[f"{layer}.{stage}_s"] = 0.0
        for counter in COUNTERS.get(layer, ()):
            out[f"{layer}.{counter}"] = 0
    out["gf.calls"] = 0
    out["bench.self_s"] = 0.0
    for i, s in enumerate(spans):
        self_s = s["end"] - s["start"] - child_time[i]
        layer = s["layer"]
        if layer == "bench":
            out["bench.self_s"] += self_s
            continue
        out[f"{layer}.busy_s"] += self_s
        out[f"{layer}.rss_growth_mb"] += s["rss_end_mb"] - s["rss_start_mb"] - child_rss[i]
        if s["name"] in STAGES[layer]:
            out[f"{layer}.{s['name']}_s"] += self_s
        for key, val in s["counts"].items():
            out[f"{layer}.{key}"] += val
        if layer == "gf":
            out["gf.calls"] += 1
    examined = out["analysis.quadruples_examined"]
    out["analysis.onan_yield"] = (out["analysis.onan_configs"] / examined
                                  if examined else 0.0)
    return out
