"""Span tracer for the benchmark.

The tracer wraps functions of the cmsweep modules from outside the package
and records one span per wrapped call: name, start, end and parent span.
Spans stay in memory (four flat arrays) until the benchmark writes them
out.  ``uninstall`` puts every original binding back, so an untraced pass
runs the unmodified program.

A module is a layer.  Its self time is the time covered by its spans minus
the time covered by their child spans, so a helper the tracer does not
wrap counts towards the layer that called it.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array

LAYERS = ("fields", "quatrep", "torus", "intlat", "liereps", "positivity",
          "cmfields", "periods", "cli")

# Functions the named per-layer metrics count, keyed by "<layer>.<qualname>"
# of the definition; any alias of the same function object shares the span.
NAMED = {
    "fields.FieldElement.__mul__": "fields.mul",
    "fields.FieldElement.__add__": "fields.add",
    "fields.FieldElement.__sub__": "fields.add",
    "fields.FieldElement.__rsub__": "fields.add",
    "fields.FieldElement.inverse": "fields.inverse",
    "fields.ExactMatrix.__mul__": "fields.matmul",
    "fields.ExactMatrix.rref": "fields.rref",
    "fields.ExactMatrix.kernel": "fields.kernel",
    "fields.ExactMatrix.solve": "fields.solve",
    "fields.ExactMatrix.det": "fields.det",
    "fields.eigen_decompose": "fields.eigen",
    "quatrep.QuaternionAlgebra.__init__": "quatrep.algebra_init",
    "quatrep.QuaternionAlgebra.mul": "quatrep.alg_mul",
    "quatrep.AntiWeilRep.rational_model": "quatrep.rational_model",
    "quatrep.AntiWeilRep.__init__": "quatrep.rep_init",
    "torus.divisor_test": "torus.divisor_test",
    "torus.rational_intersection": "torus.rational_intersection",
    "torus.pair_analysis": "torus.pair_analysis",
    # every IntLattice is built by one row-HNF computation
    "intlat.IntLattice.__init__": "intlat.hnf",
    "intlat.snf": "intlat.snf",
    "intlat.saturate": "intlat.saturate",
    "intlat.IntLattice.contains": "intlat.contains",
    "liereps.invariant_space": "liereps.invariant_space",
    "positivity.diagonal_feasibility": "positivity.feasibility",
    "cli.compare_with_fixture": "cli.fixture_compare",
}

# Called 1e4 to 1e6 times per pass, mostly from inside fields, for about a
# microsecond each: a span would cost as much as the call.  Their time
# stays with the caller.
UNTRACED = frozenset({
    "fields.FieldElement.__init__",
    "fields.FieldElement.coerce",
    "fields.FieldElement.is_zero",
    "fields.FieldElement.is_rational",
    "fields.FieldElement.as_fraction",
    "fields.MultiQuadField.zero",
    "fields.MultiQuadField.one",
    "fields.MultiQuadField.rational",
    "fields.GaloisElement.__init__",
    "fields.GaloisElement.subset_sign",
})

ROOT = "bench.pass"


def _traced(layer, cls_name, attr, fn):
    key = f"{layer}.{fn.__qualname__}"
    if key in UNTRACED:
        return False
    if key in NAMED:
        return True
    return not attr.startswith("_") or (cls_name and attr == "__init__")


def _discover(modules):
    """(span name, function) for each traced function defined in a layer."""
    found = {}
    for layer, mod in modules.items():
        for attr, val in vars(mod).items():
            if getattr(val, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(val) and _traced(layer, None, attr, val):
                found[id(val)] = (val, layer)
            elif inspect.isclass(val):
                for cattr, cval in vars(val).items():
                    fn = cval.__func__ if isinstance(cval, staticmethod) \
                        else cval
                    if inspect.isfunction(fn) and \
                            _traced(layer, val.__name__, cattr, fn):
                        found[id(fn)] = (fn, layer)
    out = []
    for fn, layer in found.values():
        key = f"{layer}.{fn.__qualname__}"
        out.append((NAMED.get(key, key), fn))
    return out


def _owners(package, modules):
    """Every module and cmsweep class whose attributes may bind a traced
    function, including names one module imported from another."""
    seen = {}
    for mod in (package, *modules.values()):
        seen[id(mod)] = mod
        for val in vars(mod).values():
            if inspect.isclass(val) and \
                    getattr(val, "__module__", "").startswith(package.__name__):
                seen[id(val)] = val
    return list(seen.values())


class Tracer:
    """Records spans of the wrapped cmsweep functions while installed."""

    def __init__(self, package, modules):
        self.package = package
        self.modules = modules
        self.names = [ROOT]
        self._ids = {ROOT: 0}
        self._patched = []
        self.reset()

    # -- span storage -----------------------------------------------------

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.rref_cells = 0
        self.rref_max_cells = 0
        self.eigen_hits = 0

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open_root(self):
        """Clear the spans and start the root span of a pass."""
        self.reset()
        self.name.append(0)
        self.parent.append(-1)
        self.end.append(0)
        self._stack.append(0)
        self.start.append(time.perf_counter_ns())

    def close_root(self):
        self.end[0] = time.perf_counter_ns()
        self._stack.pop()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, span_name, fn):
        nid = self._name_id(span_name)
        clock = time.perf_counter_ns
        tracer = self
        hook = {"fields.rref": self._count_cells,
                "fields.eigen": self._count_hits}.get(span_name)

        def traced(*args, **kwargs):
            starts = tracer.start
            i = len(starts)
            stack = tracer._stack
            tracer.name.append(nid)
            tracer.parent.append(stack[-1])
            tracer.end.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _count_cells(self, args, result):
        cells = args[0].rows * args[0].cols
        self.rref_cells += cells
        self.rref_max_cells = max(self.rref_max_cells, cells)

    def _count_hits(self, args, result):
        self.eigen_hits += len(result)

    def install(self):
        """Bind a wrapper in place of every traced function and each of
        its aliases (names imported by other modules, ``__rmul__`` and
        the like)."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self._wrap(name, fn)
                    for name, fn in _discover(self.modules)}
        for owner in _owners(self.package, self.modules):
            for attr, val in list(vars(owner).items()):
                is_static = isinstance(val, staticmethod)
                w = wrappers.get(id(val.__func__ if is_static else val))
                if w is None:
                    continue
                self._patched.append((owner, attr, val))
                setattr(owner, attr, staticmethod(w) if is_static else w)
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, val = self._patched.pop()
            setattr(owner, attr, val)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    @property
    def patched(self):
        """(owner, attribute) of each binding the tracer replaced."""
        return [(owner, attr) for owner, attr, _ in self._patched]

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Self time of each span in ns: its duration minus the durations
        of its direct children, which nest inside it without overlap."""
        start, end = self.start, self.end
        own = array("q", (e - s for s, e in zip(start, end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own

    def summary(self):
        """Per span name: calls, self ns and inclusive ns.  A call made
        directly inside a span of the same name is not counted again (so
        ``__sub__`` counts once, not also for the ``__add__`` it makes),
        and inclusive time takes outermost spans only."""
        own = self.self_times()
        name, parent = self.name, self.parent
        out = {n: {"calls": 0, "self_ns": 0, "ns": 0} for n in self.names}
        open_until = {}
        for i, nid in enumerate(name):
            rec = out[self.names[nid]]
            if parent[i] < 0 or name[parent[i]] != nid:
                rec["calls"] += 1
            rec["self_ns"] += own[i]
            if self.start[i] >= open_until.get(nid, -1):
                rec["ns"] += self.end[i] - self.start[i]
                open_until[nid] = self.end[i]
        return out

    def eigen_trials(self):
        """Kernels run directly under eigen_decompose."""
        kernel = self._ids.get("fields.kernel")
        eigen = self._ids.get("fields.eigen")
        return sum(1 for i, nid in enumerate(self.name)
                   if nid == kernel and self.parent[i] >= 0
                   and self.name[self.parent[i]] == eigen)

    def layer_metrics(self):
        """The per-layer metrics of the pass just recorded."""
        spans = self.summary()
        zero = {"calls": 0, "self_ns": 0, "ns": 0}

        def calls(name):
            return spans.get(name, zero)["calls"]

        def seconds(name, key):
            return spans.get(name, zero)[key] / 1e9

        layer_self = dict.fromkeys(LAYERS, 0)
        for name, rec in spans.items():
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += rec["self_ns"]
        trials = self.eigen_trials()
        m = {f"{layer}.self_s": ns / 1e9 for layer, ns in layer_self.items()}
        for name in sorted(set(NAMED.values())):
            m[f"{name}.calls"] = calls(name)
        m.update({
            "fields.rref.self_s": seconds("fields.rref", "self_ns"),
            "fields.rref.cells": self.rref_cells,
            "fields.rref.max_cells": self.rref_max_cells,
            "fields.eigen.s": seconds("fields.eigen", "ns"),
            "fields.eigen.trials": trials,
            # base: trials; a pass with no trials reads 0
            "fields.eigen.hit_ratio":
                self.eigen_hits / trials if trials else 0.0,
            "quatrep.algebra_init.s": seconds("quatrep.algebra_init", "ns"),
            "quatrep.rational_model.s":
                seconds("quatrep.rational_model", "ns"),
            "cli.fixture_compare.s": seconds("cli.fixture_compare", "ns"),
        })
        return m

    def write(self, stem):
        """Write the recorded spans as ``<stem>.spans.bin`` (the four
        columns, one after the other, native byte order) and a JSON
        header ``<stem>.spans.json`` naming them."""
        cols = (("name", self.name), ("parent", self.parent),
                ("start_ns", self.start), ("end_ns", self.end))
        with open(f"{stem}.spans.bin", "wb") as fh:
            for _, arr in cols:
                arr.tofile(fh)
        header = {"count": len(self.name), "names": self.names,
                  "columns": [[c, arr.typecode, arr.itemsize]
                              for c, arr in cols],
                  "data": f"{stem.rsplit('/', 1)[-1]}.spans.bin"}
        with open(f"{stem}.spans.json", "w") as fh:
            json.dump(header, fh)
