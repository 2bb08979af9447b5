"""Outside-in tracing of freqalloc's public entry points.

``Tracer.install()`` replaces each traced name, at run time and where the
program looks it up, with a wrapper that records a span (name, start, end,
parent) in memory.  Nothing under ``src/`` changes: ``floor_linear`` is
bound in both ``golden`` and ``systems``, ``cli`` reaches the checker
through the ``checker`` module, and methods are replaced on their classes,
so every call the program makes passes through a wrapper.  Spans go to a
file when the run ends; ``layer_metrics()`` reduces them to per-layer call
counts and self times (a span's duration minus its direct children's),
plus the counters and samples recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable

import numpy as np

from workloads import percentile

# (module, attribute) pairs per span name.  A module attribute is patched in
# every module that binds the name; a class attribute is patched on the class.
SPANS = {
    "golden.floor_linear": [("golden", "floor_linear"), ("systems", "floor_linear")],
    "systems.sets": [("systems", "FSystemSpec.sets")],
    "systems.row_sizes": [("systems", "FSystemSpec.row_sizes")],
    "systems.row_union": [("systems", "FSystemSpec.row_union")],
    "frequencies.union": [("frequencies", "FrequencySet.__or__")],
    "frequencies.intersect": [("frequencies", "FrequencySet.__and__")],
    "frequencies.difference": [("frequencies", "FrequencySet.__sub__")],
    "frequencies.isdisjoint": [("frequencies", "FrequencySet.isdisjoint")],
    "allocation.request": [("allocation", "Allocator.request")],
    "allocation.from_edges": [("allocation", "BipartiteInstance.from_edges")],
    "harness.run_universal": [("harness", "run_universal")],
    "checker.run_checks": [("checker", "run_checks")],
    "checker.check_f1": [("checker", "check_f1")],
    "checker.check_f2": [("checker", "check_f2")],
    "checker.check_competitiveness": [("checker", "check_competitiveness")],
    "checker.min_lambda": [("checker", "min_lambda")],
    "checker.lemma_chain_check": [("checker", "lemma_chain_check")],
    "checker.gamma_trace": [("checker", "gamma_trace")],
    "checker.falsify": [("checker", "falsify")],
    "plugin.query": [("plugin", "PluginSystem.query")],
    "cli.main": [("cli", "main")],
}

# The n-ary union is the same layer operation as `|`; it is bound by name in
# frequencies, systems and checker.
UNION_ALL_SITES = ("frequencies", "systems", "checker")

CALLS = ["golden.floor_linear", "systems.sets", "systems.row_sizes",
         "systems.row_union", "frequencies.union", "frequencies.intersect",
         "frequencies.difference", "frequencies.isdisjoint",
         "allocation.request", "plugin.query", "cli.main"]
SELF_S = ["golden.floor_linear", "systems.sets", "systems.row_sizes",
          "systems.row_union", "frequencies.union", "frequencies.intersect",
          "frequencies.difference", "frequencies.isdisjoint",
          "allocation.request", "harness.run_universal", "checker.check_f1",
          "checker.check_f2", "checker.check_competitiveness",
          "checker.min_lambda", "checker.lemma_chain_check",
          "checker.gamma_trace", "checker.falsify", "cli.main"]


def _resolve(modules: dict, where: str, attr: str) -> tuple[object, str]:
    owner = modules[where]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """In-memory span recorder plus the counters kept beside the spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock  # times every span
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self.bands_in = 0
        self.iter_items = 0
        self.plugin_keys: set[tuple[object, str, int, int]] = set()
        self.round_trip_us: list[float] = []
        self.generators: list[Callable] = []
        self.out_bytes = 0

    def span(self, name: str, fn: Callable) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, open_ = self.span_start, self.span_end, self._open
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()

        return traced

    def install(self) -> None:
        from freqalloc import (allocation, checker, cli, frequencies, golden,
                               harness, plugin, systems)

        modules = {m.__name__.rsplit(".", 1)[1]: m for m in (
            allocation, checker, cli, frequencies, golden, harness, plugin,
            systems)}
        for name, sites in SPANS.items():
            owner, attr = _resolve(modules, *sites[0])
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.span(name, raw.__func__))
            else:
                wrapped = self.span(name, getattr(owner, attr))
            for site in sites:
                setattr(*_resolve(modules, *site), wrapped)

        union_all = self.span("frequencies.union", frequencies.union_all)

        def counted_union_all(sets):
            def operands():
                for s in sets:
                    self.bands_in += len(s.bands)
                    yield s
            return union_all(operands())

        for where in UNION_ALL_SITES:
            setattr(modules[where], "union_all", counted_union_all)

        FrequencySet = frequencies.FrequencySet
        union = FrequencySet.__or__

        def counted_union(a, b):
            if isinstance(b, FrequencySet):
                self.bands_in += len(a.bands) + len(b.bands)
            return union(a, b)

        FrequencySet.__or__ = counted_union

        iter_encoded = FrequencySet.iter_encoded

        def counted_iter_encoded(fs):
            for item in iter_encoded(fs):
                self.iter_items += 1
                yield item

        FrequencySet.iter_encoded = counted_iter_encoded

        query = plugin.PluginSystem.query
        clock = self.clock

        def timed_query(system, side, t, k):
            key = (system, side.value, t, k)
            if key in self.plugin_keys:
                return query(system, side, t, k)
            self.plugin_keys.add(key)
            t0 = clock()
            result = query(system, side, t, k)
            self.round_trip_us.append((clock() - t0) * 1e6)
            return result

        plugin.PluginSystem.query = timed_query

        def registering(factory):
            @functools.wraps(factory)
            def build():
                spec = factory()
                self.generators.append(spec.generator)
                return spec
            return build

        for key, factory in list(systems.BUILTIN_SYSTEMS.items()):
            systems.BUILTIN_SYSTEMS[key] = registering(factory)
            setattr(systems, factory.__name__, systems.BUILTIN_SYSTEMS[key])

    def write_spans(self, path: str) -> None:
        """Save the spans as NumPy arrays: name index into ``names``, parent
        span (-1 for none), root span (shared by every span of one top-level
        call), and start and end in seconds."""
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        roots = np.arange(len(parents), dtype=np.int32)
        for i in np.flatnonzero(parents >= 0):
            roots[i] = roots[parents[i]]
        np.savez(path, names=np.array(self.names), name=np.asarray(self.span_name),
                 parent=parents, root=roots, start=np.asarray(self.span_start),
                 end=np.asarray(self.span_end))

    def layer_metrics(self) -> dict[str, float]:
        name_ids = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        n = len(dur)
        has_parent = parents >= 0
        child_s = np.bincount(parents[has_parent], weights=dur[has_parent],
                              minlength=n)
        self_s = dur - child_s
        width = len(self.names)
        by_id_calls = np.bincount(name_ids, minlength=width)
        by_id_self = np.bincount(name_ids, weights=self_s, minlength=width)
        by_id_total = np.bincount(name_ids, weights=dur, minlength=width)
        calls: dict[str, int] = {}
        self_time: dict[str, float] = {}
        total: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            calls[name] = calls.get(name, 0) + int(by_id_calls[nid])
            self_time[name] = self_time.get(name, 0.0) + float(by_id_self[nid])
            total[name] = total.get(name, 0.0) + float(by_id_total[nid])

        hits = misses = 0
        for gen in self.generators:
            info = gen.cache_info()
            hits += info.hits
            misses += info.misses
        requests = calls["allocation.request"]
        queries = calls["plugin.query"]
        trips = self.round_trip_us

        metrics: dict[str, float] = {}
        for name in CALLS:
            metrics[f"{name}.calls"] = calls[name]
        for name in SELF_S:
            metrics[f"{name}.self_s"] = self_time[name]
        metrics["systems.gen_cache.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        metrics["frequencies.union.bands_in"] = self.bands_in
        metrics["frequencies.iter_encoded.items"] = self.iter_items
        metrics["allocation.scan_hit_ratio"] = (
            requests / self.iter_items if self.iter_items else 0.0)
        metrics["allocation.from_edges.s"] = total["allocation.from_edges"]
        metrics["plugin.round_trips"] = len(trips)
        metrics["plugin.cache_hit_ratio"] = (
            (queries - len(trips)) / queries if queries else 0.0)
        metrics["plugin.round_trip_us.p50"] = percentile(trips, 50)
        metrics["plugin.round_trip_us.p99"] = percentile(trips, 99)
        metrics["cli.out_bytes"] = self.out_bytes
        return metrics

