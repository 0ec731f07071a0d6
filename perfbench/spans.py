"""Spans around the calls into each module's public functions, installed
from outside the package.

A wrapper replaces the function under every name any ``coverstab`` module
binds it to, so that ``coverstab.census.canonical_form`` is traced as well
as ``coverstab.aut.canonical_form``. Spans are kept in memory as arrays
and written out once, at the end of the run. A span's self time is its
duration minus the durations of the spans directly inside it; calls run
on one thread, so those never overlap.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from time import perf_counter

# Layer name -> (module, attribute) pairs it covers.
LAYERS = {
    "cli.run": [("cli", "run")],
    "graph_core.parse_graph6": [("graph_core", "parse_graph6")],
    "graph_core.write_graph6": [("graph_core", "write_graph6")],
    "graph_core.bfs_distances": [("graph_core", "bfs_distances")],
    "graph_core.predicates": [("graph_core", name) for name in (
        "is_connected", "is_bipartite", "has_twins", "structural_profile")],
    "perms.group_from_generators": [("perms", "group_from_generators")],
    "perms.PermGroup.contains": [("perms", "PermGroup.contains")],
    "aut.canonical_form": [("aut", "canonical_form")],
    "aut.automorphism_group": [("aut", "automorphism_group")],
    "cover.double_cover": [("cover", "double_cover")],
    "cover.stability_report": [("cover", "stability_report")],
    "criteria.criteria_summary": [("criteria", "criteria_summary")],
    "families.build": [("families", name) for name in (
        "complete_graph", "cycle", "petersen", "johnson", "lex_product",
        "lexcycle", "extend_xab")],
    "census.enumerate_graphs": [("census", "enumerate_graphs")],
    "census.classify_graph": [("census", "classify_graph")],
    "census.is_xab_realizable": [("census", "is_xab_realizable")],
}


class Tracer:
    """Records spans (layer, parent span, start, end) while installed."""

    def __init__(self):
        self.layers = list(LAYERS)
        self._layer_id = {name: i for i, name in enumerate(self.layers)}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.yields = [0] * len(self.layers)
        self._stack = [-1]
        self._undo = []

    def _open(self, layer: int) -> int:
        i = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self._stack[-1])
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def _wrap(self, layer: int, fn):
        if inspect.isgeneratorfunction(fn):
            # One span per resumption, closed at each yield so that the
            # consumer's work between items is not charged here.
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    i = self._open(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(i)
                    self.yields[layer] += 1
                    yield item
            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
        return wrapper

    def install(self) -> None:
        """Wrap every function of LAYERS wherever coverstab binds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "coverstab" or name.startswith("coverstab.")]
        for layer, targets in LAYERS.items():
            for module, attr in targets:
                owner = sys.modules[f"coverstab.{module}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = getattr(cls, method)
                    self._set(cls, method, self._wrap(
                        self._layer_id[layer], original))
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(self._layer_id[layer], original)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, name, wrapped)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def totals(self, first: int = 0, last: int | None = None) -> dict:
        """Per layer over spans[first:last]: self seconds and span count,
        plus the canonical labellings made inside generation."""
        last = len(self.layer) if last is None else last
        nlayers = len(self.layers)
        self_s = [0.0] * nlayers
        spans = [0] * nlayers
        child = {}
        for i in range(last - 1, first - 1, -1):
            duration = self.end[i] - self.start[i]
            self_s[self.layer[i]] += duration - child.pop(i, 0.0)
            spans[self.layer[i]] += 1
            p = self.parent[i]
            if p >= first:
                child[p] = child.get(p, 0.0) + duration
        canon = self._layer_id["aut.canonical_form"]
        gen = self._layer_id["census.enumerate_graphs"]
        labellings = sum(1 for i in range(first, last)
                         if self.layer[i] == canon and self.parent[i] >= 0
                         and self.layer[self.parent[i]] == gen)
        return {"self_s": dict(zip(self.layers, self_s)),
                "spans": dict(zip(self.layers, spans)),
                "labellings": labellings}

    def write(self, path) -> None:
        """All spans as gzipped tab-separated text, one span per line."""
        with gzip.open(path, "wt", encoding="ascii") as out:
            out.write("span\tlayer\tparent\tstart_s\tend_s\n")
            for i in range(len(self.layer)):
                out.write(f"{i}\t{self.layers[self.layer[i]]}\t"
                          f"{self.parent[i]}\t{self.start[i]:.9f}\t"
                          f"{self.end[i]:.9f}\n")
