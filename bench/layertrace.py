"""In-memory span tracer that wraps limsolve's public functions from outside.

Wrapping happens at module attributes: a function is replaced in its home
module and in every limsolve module that imported it by name, so calls made
inside the program are traced without editing it.  Lazy properties are
replaced on their class.  Each span records (name, start, end, parent);
self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "limsolve"
# (module, function) pairs traced at their home module; the span name is
# "<module>.<function>".
FUNCTIONS = (
    ("graphs", "fvs_exact"), ("graphs", "is_forest"),
    ("graphs", "remove_vertices"),
    ("diagram", "filter_edge"), ("diagram", "restrict_to_subgraph"),
    ("solver", "inlim"), ("solver", "forest_initial"),
    ("solver", "image_tree"), ("solver", "extract_witness"),
    ("solver", "witness_violations"),
    ("cset", "cset_inlim"), ("cset", "validate_cset_codecomp"),
    ("cset", "pointwise_slice"),
    ("hom", "hom_exists"), ("hom", "validate_decomposition"),
    ("hom", "build_hom_codecomp"), ("hom", "hom_set"),
)
# jsonio's entry points share one span name: JSON text to program objects
PARSERS = ("parse_diagram", "parse_fincat", "parse_cset_diagram",
           "parse_decomposition")
PROPERTIES = (("graphs", "SimpleGraph", "incidence"),
              ("diagram", "CoDecomposition", "edge_data"))
GENERATORS = (("solver", "section_tests"),)
# a module's own binding of a function defined elsewhere, traced under its
# own name as a child-bearing span: cset.inlim counts the slices solved
ALIASES = (("cset", "inlim"),)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._raw_self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def _exit(self) -> None:
        end = time.perf_counter()
        index, child = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        self._raw_self_s[span[0]] += duration - child
        self.calls[span[0]] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def commit(self, scale: float) -> None:
        """Add the self time gathered since the last commit to self_s,
        multiplied by scale (the speed probe's correction for that
        stretch)."""
        for name, seconds in self._raw_self_s.items():
            self.self_s[name] += seconds * scale
        self._raw_self_s.clear()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of the given name."""
        self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def _wrap_generator(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                tracer._enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._exit()
                tracer.counts[name + ".yielded"] += 1
                if getattr(item, "immediately_empty", False):
                    tracer.counts[name + ".pruned"] += 1
                yield item
        return traced

    def _modules(self):
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == PACKAGE
                                      or key.startswith(PACKAGE + "."))]

    def _rebind(self, original, replacement) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        mod = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        for home, fname in FUNCTIONS:
            fn = getattr(mod[home], fname)
            self._rebind(fn, self._wrap(fn, f"{home}.{fname}"))
        for fname in PARSERS:
            fn = getattr(mod["jsonio"], fname)
            self._rebind(fn, self._wrap(fn, "jsonio.parse"))
        for home, fname in GENERATORS:
            fn = getattr(mod[home], fname)
            self._rebind(fn, self._wrap_generator(fn, f"{home}.{fname}"))
        for home, cls_name, prop in PROPERTIES:
            cls = getattr(mod[home], cls_name)
            original = vars(cls)[prop]
            self._undo.append((cls, prop, original))
            setattr(cls, prop,
                    property(self._wrap(original.fget, f"{home}.{prop}")))
        for home, fname in ALIASES:
            fn = getattr(mod[home], fname)
            self._undo.append((mod[home], fname, fn))
            setattr(mod[home], fname, self._wrap(fn, f"{home}.{fname}"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """Spans as JSON lines: name, start and end in seconds, and the
        index of the parent span (-1 at top level)."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7),
                                     parent]) + "\n")
