"""Outside-in tracer for the betachow layers.

The tracer never edits the program.  While installed it replaces every
public function and public method of each betachow module with a wrapper,
in every namespace that binds the same function object: ``from .primes
import factor`` gives ``heights`` its own binding of ``factor``, and the
package ``__init__`` re-exports most names, so a wrapper installed only on
the defining module would miss those calls.  ``Fraction.__new__`` is
patched too, so every ``Fraction`` constructed is charged to the layer
whose span is innermost at that moment.

A call that enters a layer from another layer (or from the benchmark)
opens a span; a call that stays inside the current layer only bumps that
function's counter.  Spans with the same parent and name are aggregated
into one node (calls, total seconds, seconds covered by child spans), so a
job that crosses a boundary millions of times still holds a small tree.
A layer's self time is the sum over its nodes of total minus child time.
Everything stays in memory; ``to_json`` gives the tree for writing out at
the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from fractions import Fraction

LAYERS = ("cli", "search", "audits", "heights", "primes", "poly", "linalg",
          "chow", "beta", "reporting")
PACKAGE = "betachow"


def _solutions(args, kwargs, result):
    return ("search.solutions", result.count, "sum")


def _factor_bits(args, kwargs, result):
    return ("primes.factor.max_bits", abs(args[0]).bit_length(), "max")


def _audit_rows(args, kwargs, result):
    return ("audits.rows", len(result.rows), "sum")


def _bytes_out(args, kwargs, result):
    content = args[1] if len(args) > 1 else kwargs["content"]
    return ("reporting.bytes_out", len(content.encode()), "sum")


# Values read off a wrapped call's arguments or result, keyed by function.
PROBES = {
    "search.search_cor12": _solutions,
    "search.search_thm11": _solutions,
    "search.search_thm16": _solutions,
    "primes.factor": _factor_bits,
    "audits.subspace_audit": _audit_rows,
    "audits.levin_duke_audit": _audit_rows,
    "reporting.write_output": _bytes_out,
}


class _Node:
    __slots__ = ("name", "layer", "calls", "total", "child", "children")

    def __init__(self, name: str, layer: str | None):
        self.name, self.layer = name, layer
        self.calls, self.total, self.child = 0, 0.0, 0.0
        self.children: dict[str, _Node] = {}

    def to_json(self) -> dict:
        return {"name": self.name, "calls": self.calls,
                "total_s": self.total, "self_s": self.total - self.child,
                "children": [c.to_json() for c in self.children.values()]}


class Tracer:
    """Install with ``install()``; mark each job with ``begin_job``; always
    ``uninstall()`` (a ``with`` block does both ends)."""

    def __init__(self):
        self.counts: Counter[str] = Counter()     # "layer.func" -> calls
        self.fractions: Counter[str] = Counter()  # layer -> Fractions built
        self.probes: dict[str, int] = {}
        self.jobs: dict[str, _Node] = {}
        self.functions: dict[str, str] = {}       # "layer.func" -> layer
        self._stack: list[list] = []              # [node, start, child_s, layer]
        self._root: _Node | None = None
        self._undo: list[tuple[object, str, object]] = []
        self._namespaces: list[object] = []
        self._originals: set[int] = set()

    # -- install / uninstall ------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        namespaces = [importlib.import_module(PACKAGE), *modules.values()]
        # id -> (function, key, layer) for every public function and method;
        # holding the functions keeps their ids unique
        originals: dict[int, tuple[object, str, str]] = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    namespaces.append(obj)
                    for attr, member in vars(obj).items():
                        if attr.startswith("_"):
                            continue
                        fn = _func(member)
                        if inspect.isfunction(fn):
                            originals[id(fn)] = (fn, f"{layer}.{name}.{attr}", layer)
        wrappers = {i: self._wrap(fn, key, layer)
                    for i, (fn, key, layer) in originals.items()}
        self._namespaces, self._originals = namespaces, set(originals)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                fn = _func(value)
                if id(fn) in wrappers:
                    wrapper = wrappers[id(fn)]
                    self._undo.append((ns, attr, value))
                    setattr(ns, attr, type(value)(wrapper) if fn is not value else wrapper)
        self._undo.append((Fraction, "__new__", Fraction.__dict__["__new__"]))
        Fraction.__new__ = self._counting_new()

    def uninstall(self):
        while self._undo:
            ns, attr, value = self._undo.pop()
            setattr(ns, attr, value)

    def stale_bindings(self) -> list[str]:
        """Names in any betachow namespace still bound to an unwrapped
        public function while installed; empty unless a binding was missed."""
        stale = []
        for ns in self._namespaces:
            for attr, value in vars(ns).items():
                if id(_func(value)) in self._originals:
                    stale.append(f"{getattr(ns, '__name__', ns)}.{attr}")
        return stale

    # -- recording ------------------------------------------------------------

    def begin_job(self, job_id: str):
        if self._stack:
            raise RuntimeError("a job started inside an open span")
        self._root = self.jobs.setdefault(job_id, _Node(job_id, None))

    def _wrap(self, fn, key: str, layer: str):
        self.functions[key] = layer
        counts, stack, clock = self.counts, self._stack, time.perf_counter
        probe = PROBES.get(key)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if stack and stack[-1][3] == layer:
                result = fn(*args, **kwargs)
            else:
                parent = stack[-1][0] if stack else tracer._root
                node = parent.children.get(key)
                if node is None:
                    node = parent.children[key] = _Node(key, layer)
                frame = [node, clock(), 0.0, layer]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    dur = clock() - frame[1]
                    node.calls += 1
                    node.total += dur
                    node.child += frame[2]
                    if stack:
                        stack[-1][2] += dur
            if probe is not None:
                name, value, mode = probe(args, kwargs, result)
                old = tracer.probes.get(name, 0)
                tracer.probes[name] = max(old, value) if mode == "max" else old + value
            return result

        return wrapper

    def _counting_new(self):
        raw = Fraction.__dict__["__new__"].__func__
        stack, fractions = self._stack, self.fractions

        def __new__(cls, *args, **kwargs):
            if stack:
                fractions[stack[-1][3]] += 1
            return raw(cls, *args, **kwargs)

        return __new__

    # -- results --------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}

        def walk(node: _Node):
            if node.layer is not None:
                out[node.layer] += node.total - node.child
            for child in node.children.values():
                walk(child)

        for root in self.jobs.values():
            walk(root)
        return out

    def layer_calls(self) -> dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for key, n in self.counts.items():
            out[self.functions[key]] += n
        return out

    def to_json(self) -> dict:
        return {"counts": dict(sorted(self.counts.items())),
                "fractions": dict(sorted(self.fractions.items())),
                "probes": dict(sorted(self.probes.items())),
                "jobs": [root.to_json() for root in self.jobs.values()]}


def _func(value):
    return value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
