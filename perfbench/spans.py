"""Spans recorded from outside the program, around calls into cfcalc.

`Tracer.install` rebinds the public functions and a few methods of every
cfcalc module to thin wrappers that time each call, so the program runs
unchanged while the tracer sees its real call tree: a wrapped call made
inside another wrapped call is that span's child.  A span's self time is
its duration minus the time of its child spans.  Nested calls of the same
name (``a - b`` calling ``a + (-b)``) are folded into the outer span.

Spans are aggregated in memory per name as self time, total time and call
count; the benchmark turns them into per-layer metrics when a run ends.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# Public functions wrapped in each module, named "<module>.<function>": the
# ones the workloads call, directly or through other public functions.
FUNCTIONS = {
    "complexes": (
        "build_complex", "point_complex", "product", "subcomplex", "complement_open",
        "simplicial_map", "compose", "inclusion_map", "involution", "fixed_point_set",
        "is_strongly_free", "quotient_by_involution", "is_connected",
    ),
    "calculus": (
        "zero_function", "indicator", "euler_integral", "pullback", "pushforward",
        "dual", "restrict", "shriek_restrict", "restrict_open", "open_extend",
        "open_pushforward", "triangle_decompose", "mod2_reduce", "orbit_pushforward",
    ),
    "indices": (
        "solution_index", "hyperfunction_index", "hyperfunction_dimension",
        "parity_index", "verify_scene",
    ),
    "scenes": ("build_model", "parse_scene", "emit_scene"),
    "cli": ("main", "load_scene"),
}

# Methods wrapped as spans: (module, class, attribute, span name).  Every
# construction of a subcomplex or a simplicial map goes through its class.
METHODS = (
    ("complexes", "SimplicialComplex", "maximal_simplices", "complexes.maximal_simplices"),
    ("complexes", "Subcomplex", "as_complex", "complexes.as_complex"),
    ("complexes", "Subcomplex", "__init__", "complexes.subcomplex"),
    ("complexes", "SimplicialMap", "__init__", "complexes.simplicial_map"),
    ("calculus", "ConstructibleFunction", "__init__", "calculus.function_new"),
    ("calculus", "ConstructibleFunction", "value", "calculus.value"),
    ("calculus", "ConstructibleFunction", "__eq__", "calculus.eq"),
    ("calculus", "ConstructibleFunction", "__add__", "calculus.arith"),
    ("calculus", "ConstructibleFunction", "__sub__", "calculus.arith"),
    ("calculus", "ConstructibleFunction", "__neg__", "calculus.arith"),
    ("calculus", "ConstructibleFunction", "__mul__", "calculus.arith"),
    ("calculus", "ConstructibleFunction", "__rmul__", "calculus.arith"),
)

MODULES = ("complexes", "calculus", "indices", "scenes", "cli")


class Tracer:
    def __init__(self) -> None:
        # name -> [self seconds, total seconds, calls]
        self.stats: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        self.counts: Counter = Counter()
        self.top = 0.0  # seconds inside outermost spans
        self._names: list[str] = []
        self._child: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats.clear()
        self.counts.clear()
        self.top = 0.0

    def _close(self, name: str, elapsed: float) -> None:
        self._names.pop()
        child = self._child.pop()
        stat = self.stats[name]
        stat[0] += elapsed - child
        stat[1] += elapsed
        stat[2] += 1
        if self._child:
            self._child[-1] += elapsed
        else:
            self.top += elapsed

    def call(self, name: str, fn, args, kwargs):
        if self._names and self._names[-1] == name:
            return fn(*args, **kwargs)
        self._names.append(name)
        self._child.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, perf_counter() - start)

    @contextmanager
    def span(self, name: str):
        self._names.append(name)
        self._child.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, perf_counter() - start)

    def self_ms(self, name: str, ops: int) -> float:
        return self.stats[name][0] * 1000.0 / ops

    def total_ms(self, name: str, ops: int) -> float:
        return self.stats[name][1] * 1000.0 / ops

    def calls(self, name: str, ops: int) -> float:
        return self.stats[name][2] / ops

    # --- interposition ---

    def _wrap(self, name: str, fn, count=None):
        call = self.call
        if count is None:
            def traced(*args, **kwargs):
                return call(name, fn, args, kwargs)
        else:
            def traced(*args, **kwargs):
                count(args)
                return call(name, fn, args, kwargs)
        return traced

    def _patch(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def install(self, cf) -> None:
        """Wrap the public calls of the cfcalc package `cf` (one import of it)."""
        mods = [cf] + [getattr(cf, m) for m in MODULES]
        counts = self.counts

        def count_dual(args):
            counts["calculus.dual.support_in"] += len(args[0].items)

        def count_text(args):
            counts["scenes.text_bytes"] += len(args[0].canonical_text.encode())

        hooks = {"calculus.dual": count_dual, "scenes.emit_scene": count_text}
        for mod_name, names in FUNCTIONS.items():
            home = getattr(cf, mod_name)
            for fname in names:
                original = getattr(home, fname)
                span = f"{mod_name}.{fname}"
                wrapped = self._wrap(span, original, hooks.get(span))
                for mod in mods:
                    if getattr(mod, fname, None) is original:
                        self._patch(mod, fname, wrapped)
        for mod_name, cls_name, attr, span in METHODS:
            cls = getattr(getattr(cf, mod_name), cls_name)
            self._patch(cls, attr, self._wrap(span, cls.__dict__[attr]))

        complex_cls = cf.complexes.SimplicialComplex
        init = complex_cls.__dict__["__init__"]

        def counted_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            counts["complexes.simplices_built"] += len(obj.simplices)

        self._patch(complex_cls, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)
