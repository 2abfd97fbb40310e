"""Span tracing installed from outside the package.

The time-stepping code in ``scenarios`` looks up ``neighbors.build_index``,
``gfdm.all_gradients``, ``movers.displacement`` and the rest on their
modules at call time, so replacing those module attributes with timing
wrappers traces every call without changing a file of the package. The velocity field is traced
through a proxy object on the scenario. Spans stay in memory until the
benchmark writes them out at the end.

A span's layer is the part of its name before the first dot; the layers
are the package's modules, plus ``bench`` for the root span of each run.
"""
from __future__ import annotations

import collections
import gzip
import json
import logging
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

LAYERS = ("fields", "neighbors", "gfdm", "movers", "cloud", "diagnostics", "scenarios", "cli")

# (module, attribute, span name). ``apply_displacements`` and
# ``advance_history`` live in ``cloud`` but ``scenarios`` calls the names it
# imported from there.
TARGETS = (
    ("neighbors", "build_index", "neighbors.build_index"),
    ("gfdm", "all_gradients", "gfdm.all_gradients"),
    ("movers", "displacement", "movers.displacement"),
    ("movers", "move_m1", "movers.m1"),
    ("movers", "move_m2", "movers.m2"),
    ("movers", "move_m3", "movers.m3"),
    ("movers", "move_m4", "movers.m4"),
    ("movers", "exp_series_apply", "movers.series"),
    ("diagnostics", "diameter", "diagnostics.diameter"),
    ("diagnostics", "hull_volume", "diagnostics.hull_volume"),
    ("scenarios", "apply_displacements", "cloud.apply_displacements"),
    ("scenarios", "advance_history", "cloud.advance_history"),
    ("scenarios", "step", "scenarios.step"),
    ("scenarios", "short_step", "scenarios.step"),
    ("scenarios", "initial_cloud", "scenarios.initial_cloud"),
    ("scenarios", "run", "scenarios.run"),
    ("scenarios", "convergence_sweep", "scenarios.convergence_sweep"),
    ("cli", "main", "cli.main"),
    ("cli", "write_csv", "cli.write"),
    ("cli", "write_sweep_csv", "cli.write"),
)


class FieldProxy:
    """A velocity field whose ``evaluate`` and ``gradient`` calls are spans."""

    def __init__(self, field, tracer: "Tracer"):
        self._field = field
        self.evaluate = tracer.wrap("fields.evaluate", field.evaluate)
        self.gradient = tracer.wrap("fields.gradient", field.gradient)

    def __getattr__(self, name):
        return getattr(self._field, name)


class _CountingHandler(logging.Handler):
    def __init__(self, counts: collections.Counter):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record):
        self.counts["gfdm.fallbacks"] += 1


class Tracer:
    """In-memory spans ``[name, start, end, parent index, run id]`` and counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.min_neighbors: int | None = None
        self.run_id = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def proxied(self, scenario):
        return replace(scenario, field=FieldProxy(scenario.field, self))

    # counters taken at the same boundaries as the spans, after the span ends
    def _on_index(self, args, index):
        counts = np.asarray(index.neighbor_count())
        self.counts["neighbors.points"] += counts.size
        self.counts["neighbors.edges"] += int(counts.sum())
        low = int(counts.min())
        self.min_neighbors = low if self.min_neighbors is None else min(self.min_neighbors, low)

    def _on_gradients(self, args, result):
        self.counts["gfdm.stencils"] += len(result)

    def _on_run(self, args, records):
        self.counts["diagnostics.records"] += len(records)

    def _on_write(self, args, result):
        self.counts["cli.bytes"] += os.path.getsize(args[1])

    @contextmanager
    def installed(self, lagmove):
        """Patch the package's module attributes for the duration of a traced run."""
        after = {
            "neighbors.build_index": self._on_index,
            "gfdm.all_gradients": self._on_gradients,
            "scenarios.run": self._on_run,
            "cli.write": self._on_write,
        }
        saved = []

        def patch(module, attr, value):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)

        counts = self.counts
        hull_cls = lagmove.diagnostics.ConvexHull

        def counted_hull(*args, **kwargs):
            counts["diagnostics.hulls"] += 1
            return hull_cls(*args, **kwargs)

        make_scenario = lagmove.scenarios.make_scenario
        handler = _CountingHandler(counts)
        gfdm_log = logging.getLogger(lagmove.gfdm.__name__)
        try:
            for module_name, attr, name in TARGETS:
                module = getattr(lagmove, module_name)
                if hasattr(module, attr):
                    patch(module, attr, self.wrap(name, getattr(module, attr), after.get(name)))
            patch(lagmove.diagnostics, "ConvexHull", counted_hull)
            patch(lagmove.scenarios, "make_scenario", lambda *a, **k: self.proxied(make_scenario(*a, **k)))
            gfdm_log.addHandler(handler)
            yield self
        finally:
            gfdm_log.removeHandler(handler)
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def write(self, path: str) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as f:
            for name, start, end, parent, run in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "run": run}) + "\n")


def layer_metrics(tracer: Tracer, scales: list[float], untraced_run_s: float, traced_run_s: float) -> dict:
    """Per-layer metrics from the spans: (value, unit) by metric name.

    Times named after a function are its mean inclusive duration per call;
    ``<layer>.self_ms`` is the layer's self time per run, and
    ``<layer>.share`` its self time over the runs' total traced time. A
    span's self time is its duration minus that of its direct children.
    ``scales[run id]`` turns that run's wall seconds into reference seconds
    (see calibrate.py), as for the end-to-end times.
    """
    spans = tracer.spans
    dur = [(end - start) * scales[run] for _, start, end, _, run in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += dur[i]
    calls = collections.Counter()
    inclusive = collections.Counter()
    self_by_layer = collections.Counter()
    step_ms, step_self_ms = [], []
    for i, span in enumerate(spans):
        name = span[0]
        calls[name] += 1
        inclusive[name] += dur[i]
        self_by_layer[name.split(".", 1)[0]] += dur[i] - child[i]
        if name == "scenarios.step":
            step_ms.append(1e3 * dur[i])
            step_self_ms.append(1e3 * (dur[i] - child[i]))
    runs = max(1, calls["bench.iteration"])
    total = inclusive["bench.iteration"] or 1.0
    steps = max(1, len(step_ms))
    c = tracer.counts

    def per_call_ms(name):
        return 1e3 * inclusive[name] / calls[name] if calls[name] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.share"] = (self_by_layer[layer] / total, "ratio")
        m[f"{layer}.self_ms"] = (1e3 * self_by_layer[layer] / runs, "ms")
    m.update({
        "neighbors.build_index_ms": (per_call_ms("neighbors.build_index"), "ms"),
        "neighbors.calls": (calls["neighbors.build_index"] / runs, "count"),
        "neighbors.edges_per_point": (ratio(c["neighbors.edges"], c["neighbors.points"]), "count"),
        "neighbors.min_neighbors": (tracer.min_neighbors or 0, "count"),
        "gfdm.all_gradients_ms": (per_call_ms("gfdm.all_gradients"), "ms"),
        "gfdm.calls": (calls["gfdm.all_gradients"] / runs, "count"),
        "gfdm.stencils_per_s": (ratio(c["gfdm.stencils"], inclusive["gfdm.all_gradients"]), "1/s"),
        "gfdm.fallback_ratio": (ratio(c["gfdm.fallbacks"], c["gfdm.stencils"]), "ratio"),
        "movers.m1_ms": (per_call_ms("movers.m1"), "ms"),
        "movers.m2_ms": (per_call_ms("movers.m2"), "ms"),
        "movers.m3_ms": (per_call_ms("movers.m3"), "ms"),
        "movers.m4_ms": (per_call_ms("movers.m4"), "ms"),
        "movers.series_ms": (per_call_ms("movers.series"), "ms"),
        "movers.series_calls_per_step": (calls["movers.series"] / steps, "count"),
        "fields.evaluate_ms": (per_call_ms("fields.evaluate"), "ms"),
        "fields.gradient_ms": (per_call_ms("fields.gradient"), "ms"),
        "diagnostics.diameter_ms": (per_call_ms("diagnostics.diameter"), "ms"),
        "diagnostics.hull_volume_ms": (per_call_ms("diagnostics.hull_volume"), "ms"),
        "diagnostics.hulls_per_record": (ratio(c["diagnostics.hulls"], c["diagnostics.records"]), "count"),
        "cloud.apply_displacements_ms": (per_call_ms("cloud.apply_displacements"), "ms"),
        "cloud.advance_history_ms": (per_call_ms("cloud.advance_history"), "ms"),
        "scenarios.step_ms.p50": (_percentile(step_ms, 50), "ms"),
        "scenarios.step_ms.p95": (_percentile(step_ms, 95), "ms"),
        "scenarios.step_self_ms": (statistics.median(step_self_ms) if step_self_ms else 0.0, "ms"),
        "scenarios.initial_cloud_ms": (per_call_ms("scenarios.initial_cloud"), "ms"),
        "cli.write_ms": (per_call_ms("cli.write"), "ms"),
        "cli.bytes_written": (ratio(c["cli.bytes"], calls["cli.write"]), "bytes"),
        "trace.overhead_ratio": (traced_run_s / untraced_run_s, "ratio"),
    })
    return m


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0
