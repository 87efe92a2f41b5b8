"""Span tracing of cubicf's public functions, from outside the package.

``Tracer.install`` rebinds each function named in ``FUNCTIONS`` to a
wrapper in every cubicf module that holds it (modules import functions by
name, so one module's binding is not enough); ``uninstall`` restores the
originals.  A spanned function records a span (name, start, end, parent,
request); a counted one only increments a counter, because it is called
too often for a span each.  Spans are kept in memory in flat arrays indexed
by span id (ids are given in start order, so a parent's id is below its
children's) until ``write`` saves them.
"""
from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import Counter

# (layer, module, attribute, kind): kind "span" records spans, "count" counts calls.
FUNCTIONS = [
    ("poly", "poly", "sturm_count", "span"),
    ("poly", "poly", "sturm_chain", "span"),
    ("poly", "poly", "moebius_transform", "span"),
    ("poly", "poly", "unimodular_transform", "span"),
    ("poly", "poly", "discriminant", "span"),
    ("poly", "poly", "rational_roots", "span"),
    ("poly", "poly", "IntPoly.sign_at", "count"),
    ("algnum", "algnum", "floor_with_refined", "span"),
    ("algnum", "algnum", "refine", "span"),
    ("algnum", "algnum", "isolate_real_roots", "span"),
    ("algnum", "algnum", "sign_at", "span"),
    ("algnum", "algnum", "same_root", "span"),
    ("algnum", "algnum", "make_algebraic", "span"),
    ("cf", "cf", "expand", "span"),
    ("cf", "cf", "lambda_estimate", "span"),
    ("conjugates", "conjugates", "conjugates", "span"),
    ("conjugates", "conjugates", "disc_product_enclosure", "span"),
    ("conjugates", "conjugates", "limit_sequence", "span"),
    ("conjugates", "conjugates", "asym_sequence", "span"),
    ("conjugates", "conjugates", "reduced_flags", "span"),
    ("conjugates", "conjugates", "beta_constant", "span"),
    ("conjugates", "conjugates", "separation", "span"),
    ("field", "field", "tails_match", "span"),
    ("field", "field", "express", "span"),
    ("field", "field", "lambda_transfer_check", "span"),
    ("field", "field", "boundedness_profile", "span"),
    ("intervals", "intervals", "poly_eval", "count"),
    ("intervals", "intervals", "sqrt_interval", "count"),
    ("cli", "cli", "parse_poly", "span"),
    ("cli", "cli", "main", "span"),
]

MODULES = ["cubicf", "cubicf.poly", "cubicf.algnum", "cubicf.cf", "cubicf.conjugates",
           "cubicf.field", "cubicf.intervals", "cubicf.cli"]

OP = "bench.op"  # root span the harness opens around each operation


def qualified(module: str, attr: str) -> str:
    return f"{module}.{attr}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.requests: list[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")  # -1 for a root span
        self.request = array("i")
        self.counts: Counter = Counter()
        self.results: dict[int, object] = {}  # span id -> summary kept by a hook
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span_wrapper(self, name, fn, summarize=None):
        nid = self._name_id(name)
        stack, clock = self._stack, time.perf_counter_ns
        names, starts, ends, parents, requests = self.name, self.start, self.end, self.parent, self.request

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(len(self.requests) - 1)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if summarize is not None:
                kept = summarize(result)
                if kept is not None:
                    self.results[sid] = kept
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run(self, request_id, fn, *args):
        """Run one operation under a root span."""
        self.requests.append(request_id)
        return self._span_wrapper(OP, fn)(*args)

    def install(self, summaries=None):
        """``summaries`` maps a function name to a hook whose non-None
        return value is kept in ``results`` under the span's id."""
        summaries = summaries or {}
        mods = [importlib.import_module(m) for m in MODULES]
        for _layer, module, attr, kind in FUNCTIONS:
            name = qualified(module, attr)
            home = importlib.import_module(f"cubicf.{module}")
            if "." in attr:  # a method: rebind on its class only
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._count_wrapper(name, orig))
                continue
            orig = getattr(home, attr)
            if kind == "span":
                wrapped = self._span_wrapper(name, orig, summaries.get(name))
            else:
                wrapped = self._count_wrapper(name, orig)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        while self._undo:
            target, key, orig = self._undo.pop()
            setattr(target, key, orig)

    def write(self, path, table):
        """The per-function table and counts, then one span per line as
        [id, name, start_ns, end_ns, parent id or null, request]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write('{"functions": ' + json.dumps(table) + ', "counts": ' + json.dumps(self.counts))
            fh.write(', "spans": [')
            for sid in range(len(self.start)):
                parent = self.parent[sid]
                span = [sid, self.names[self.name[sid]], self.start[sid], self.end[sid],
                        None if parent < 0 else parent, self.requests[self.request[sid]]]
                fh.write(("," if sid else "") + "\n" + json.dumps(span))
            fh.write("\n]}\n")


class SpanIndex:
    """Self times, totals and ancestry queries over a tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        n = len(tracer.start)
        dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
        child_ns = [0] * n
        for i in range(n):
            p = tracer.parent[i]
            if p >= 0:
                child_ns[p] += dur[i]
        self.dur = dur
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        for i in range(n):
            name = tracer.names[tracer.name[i]]
            self.self_ns[name] += dur[i] - child_ns[i]
            self.calls[name] += 1

    def ids(self, name) -> list[int]:
        if name not in self.t.names:
            return []
        nid = self.t.names.index(name)
        return [i for i, x in enumerate(self.t.name) if x == nid]

    def has_ancestor(self, sid, names) -> bool:
        t = self.t
        p = t.parent[sid]
        while p >= 0:
            if t.names[t.name[p]] in names:
                return True
            p = t.parent[p]
        return False

    def outer_total_ns(self, names) -> int:
        """Time covered by spans in ``names``, counting nested ones once."""
        return sum(self.dur[i] for name in names for i in self.ids(name) if not self.has_ancestor(i, names))

    def under(self, name, ancestors) -> list[int]:
        return [i for i in self.ids(name) if self.has_ancestor(i, ancestors)]
