"""Per-layer tracing of su3rep, installed from outside the package.

``Tracer.install`` replaces each public function of a layer module, in every
su3rep module that binds it and under the name that module binds it to, with
a wrapper that counts the call and records a span: name, parent span, item,
start, end.  Public methods of the layer's classes, and RadMatrix's arithmetic
operators, are wrapped on the class.  Two kinds of call are counted but not
spanned, because they are single scalar or entry operations made millions of
times a pass: everything in ``radical``, and RadMatrix's entry accessors
(``items`` is also a generator, so a span would time only its creation).
``uninstall`` puts every original back.

The tracer's own bookkeeping (operand sparsity, generator-set sizes) is timed
and subtracted from the clock that spans read, so span times exclude it; the
wrappers' cost remains and shows as the traced run's overhead.  Spans are kept
in typed arrays, one per field, so that the garbage collector, which runs
during the traced pass, has no span objects to scan.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable

LAYERS = ("radical", "matrices", "structure", "su2", "unknowns", "generators", "verify", "cli")
_COUNT_ONLY_LAYERS = {"radical"}
_COUNT_ONLY_METHODS = {"put", "get", "items"}
# Operators that are part of a class's public surface, by class name.
_OPERATORS = {
    "RadMatrix": ("__add__", "__sub__", "__neg__", "__matmul__"),
    "RadicalSum": ("__add__", "__radd__", "__mul__", "__rmul__"),
}


class Tracer:
    def __init__(self) -> None:
        # One column per span field.  parent is a span index or -1; nested
        # marks a span inside another span of the same name.
        self.spans = {
            "name": [], "parent": array("q"), "item": array("q"),
            "start": array("d"), "end": array("d"), "nested": array("b"),
        }
        self.counts: Counter[str] = Counter()
        self.item = -1  # index of the workload item running; set by the runner
        self.product_terms = 0
        self.generator_nnz = 0
        self.radicands: set[int] = set()
        self._stack = [-1]
        self._active: Counter[str] = Counter()
        self._excluded = 0.0
        self._paused = False
        self._patches: list[tuple[Any, str, Any]] = []

    def clock(self) -> float:
        """perf_counter minus the time the tracer spent on its own bookkeeping."""
        return time.perf_counter() - self._excluded

    # -- installation ------------------------------------------------------

    def install(self, pkg) -> None:
        """Wrap every layer of the imported package ``pkg``; see the module doc."""
        root = pkg.__name__
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == root or n.startswith(root + "."))]
        hooks = {
            "matrices.RadMatrix.__matmul__": (self._count_products, None),
            "generators.build_generator_set": (None, self._count_generator_set),
        }
        replacement: dict[int, Any] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{root}.{layer}"]
            count_only = layer in _COUNT_ONLY_LAYERS
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj, count_only, hooks)
                elif callable(obj):
                    name = f"{layer}.{obj.__qualname__}"
                    replacement[id(obj)] = self._wrap(
                        name, obj, count_only, *hooks.get(name, (None, None))
                    )
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacement:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, replacement[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap_class(self, layer: str, cls: type, count_only: bool, hooks) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _OPERATORS.get(cls.__name__, ()):
                continue
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if not inspect.isfunction(fn):
                continue  # properties, enum members, constants
            name = f"{layer}.{cls.__qualname__}.{attr}"
            wrapped = self._wrap(name, fn, count_only or attr in _COUNT_ONLY_METHODS,
                                 *hooks.get(name, (None, None)))
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def _wrap(self, name: str, fn: Callable, count_only: bool,
              before: Callable | None = None, after: Callable | None = None) -> Callable:
        counts = self.counts
        tracer = self

        if count_only:
            def counted(*args, **kwargs):
                if not tracer._paused:
                    counts[name] += 1
                return fn(*args, **kwargs)

            return functools.wraps(fn)(counted)

        stack, active, perf = self._stack, self._active, time.perf_counter
        names, parents, items, starts, ends, nests = self.spans.values()

        def spanned(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            counts[name] += 1
            nested = active[name] > 0
            if before is not None:
                tracer._bookkeep(before, args)
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            items.append(tracer.item)
            nests.append(nested)
            ends.append(0.0)
            stack.append(index)
            active[name] += 1
            starts.append(perf() - tracer._excluded)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf() - tracer._excluded
                active[name] -= 1
                stack.pop()
            if after is not None and not nested:
                tracer._bookkeep(after, result)
            return result

        return functools.wraps(fn)(spanned)

    # -- bookkeeping, excluded from span times -------------------------------

    def _bookkeep(self, work: Callable, arg) -> None:
        start = time.perf_counter()
        self._paused = True
        try:
            work(arg)
        finally:
            self._paused = False
            self._excluded += time.perf_counter() - start

    def _count_products(self, args) -> None:
        """Scalar products a @ b implies: sum over a's entries (r, k) of the
        number of entries in row k of b (computed from sparsity, not counted)."""
        a, b = args
        row_nnz = Counter(r for r, _, _ in b.items())
        self.product_terms += sum(row_nnz[k] for _, k, _ in a.items())

    def _count_generator_set(self, gs) -> None:
        for mat in gs.matrices().values():
            for _, _, value in mat.items():
                self.generator_nnz += 1
                self.radicands.update(m for _, m in value.terms())

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics that come from spans and counts.

        ``*_s`` of a function is the time callers waited on it (outermost
        spans only, so recursion is not counted twice); ``<layer>.s`` is the
        layer's self time, spans minus their child spans.
        """
        sp = self.spans
        child = [0.0] * len(sp["name"])
        for parent, start, end in zip(sp["parent"], sp["start"], sp["end"]):
            if parent >= 0:
                child[parent] += end - start
        waited: Counter[str] = Counter()
        own: Counter[str] = Counter()
        for name, start, end, nested, inner in zip(
            sp["name"], sp["start"], sp["end"], sp["nested"], child
        ):
            if not nested:
                waited[name] += end - start
            own[name] += end - start - inner
        layer_self: Counter[str] = Counter()
        for name, seconds in own.items():
            layer_self[name.split(".")[0]] += seconds
        c = self.counts
        return {
            "verify.commutators_s": waited["verify.check_commutators"],
            "verify.casimir_s": waited["verify.check_casimir"],
            "verify.structure_s": waited["verify.check_structure"],
            "verify.oracle_s": waited["verify.oracle_solve"],
            "verify.oracle_calls": c["verify.oracle_solve"],
            "matrices.matmul_s": waited["matrices.RadMatrix.__matmul__"],
            "matrices.matmul_calls": c["matrices.RadMatrix.__matmul__"],
            "matrices.product_terms": self.product_terms,
            "matrices.nnz": self.generator_nnz,
            "radical.mul_calls": c["radical.RadicalSum.__mul__"] + c["radical.RadicalSum.__rmul__"],
            "radical.add_calls": c["radical.RadicalSum.__add__"] + c["radical.RadicalSum.__radd__"],
            "radical.distinct_radicands": len(self.radicands),
            "generators.build_s": waited["generators.build_generator_set"],
            "generators.gell_mann_s": waited["generators.to_gell_mann"],
            "cli.emit_s": own["cli.main"],
            "unknowns.s": layer_self["unknowns"],
            "structure.s": layer_self["structure"],
            "su2.s": layer_self["su2"],
        }

    def dump(self) -> dict:
        return {
            "spans": {field: list(column) for field, column in self.spans.items()},
            "counts": dict(sorted(self.counts.items())),
        }
