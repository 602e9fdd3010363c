"""Span tracing of the congruences layers, installed from outside the package.

`install` replaces every public function of the eight layer modules, in every
namespace that holds it (the package itself and the modules that re-import
it), and the arithmetic dunders of `GFPolynomial`, by a wrapper that records
one span per call: name, start, end, parent span and query id. Spans stay in
flat arrays in memory until the run ends. A few wrappers also read counters
from the call's arguments or result, after the span has closed.
"""

from __future__ import annotations

import functools
import inspect
import math
from array import array
from collections import Counter
from time import perf_counter
from types import ModuleType
from typing import Any, Callable

from reference import pdivmod, pgcd, pmul

LAYERS = ("cli", "dsl", "systems", "snf", "ramanujan", "intarith", "ffsystems", "gfpoly")
GFPOLY_DUNDERS = ("__add__", "__sub__", "__neg__", "__mul__", "__divmod__", "__mod__", "__floordiv__")


class Tracer:
    """Flat span store: span i has name names[name_id[i]], interval
    [start[i], end[i]], parent span index parent[i] (-1 for a root) and query
    query[i]."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.query_id = -1
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end, parent, query, stack = (
            self.name_id, self.start, self.end, self.parent, self.query, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            query.append(self.query_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are nested on one thread, so the children of a span are disjoint
    intervals inside it and their durations add up to the part they cover.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def layer_totals(tracer: Tracer) -> dict[str, Any]:
    """Self time and span count per layer, and span count per span name."""
    own = self_times(tracer.parent, tracer.start, tracer.end)
    layer_of = [name.split(".", 1)[0] for name in tracer.names]
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    per_name = Counter()
    for nid, dt in zip(tracer.name_id, own):
        layer = layer_of[nid]
        self_s[layer] += dt
        calls[layer] += 1
        per_name[tracer.names[nid]] += 1
    return {"self_s": self_s, "calls": calls, "per_name": per_name}


def _observers(tracer: Tracer) -> dict[str, Callable]:
    counters = tracer.counters
    factorize_inputs: set = set()

    def divisor_rows(layer):
        def observe(args, report):
            counters[f"{layer}.divisor_rows"] += len(report.details.get("divisor_table", ()))
        return observe

    def int_oracle(args, result):
        system = args[0]
        counters["systems.oracle.tuples_scanned"] += math.lcm(*system.moduli) ** system.n
        counters["systems.oracle.solutions"] += result[0]

    def poly_oracle(args, result):
        system = args[0]
        # Measured with the benchmark's own arithmetic, so it opens no spans.
        p = system.field.p
        lcm = (1,)
        for h in system.moduli:
            h = h.coefficients
            lcm = pdivmod(pmul(lcm, h, p), pgcd(lcm, h, p), p)[0]
        counters["ffsystems.oracle.tuples_scanned"] += p ** ((len(lcm) - 1) * system.n)
        counters["ffsystems.oracle.solutions"] += result[0]

    def factorize_poly(args, result):
        factorize_inputs.add(args[0])
        counters["gfpoly.factorize_poly.distinct"] = len(factorize_inputs)

    def smith_normal_form(args, result):
        largest = max(abs(x) for matrix in result.transforms for row in matrix for x in row)
        digits = len(str(largest))
        counters["snf.max_entry_digits"] = max(counters["snf.max_entry_digits"], digits)

    def parse_system(args, result):
        counters["dsl.bytes"] += len(args[0].encode("utf-8"))

    return {
        "systems.restricted_system_count": divisor_rows("systems"),
        "ffsystems.restricted_system_count_ff": divisor_rows("ffsystems"),
        "ffsystems.restricted_count_unit_coeffs_ff": divisor_rows("ffsystems"),
        "systems.enumerate_solutions": int_oracle,
        "ffsystems.enumerate_solutions_ff": poly_oracle,
        "gfpoly.factorize_poly": factorize_poly,
        "snf.smith_normal_form": smith_normal_form,
        "dsl.parse_system": parse_system,
    }


def install(tracer: Tracer, package: ModuleType, modules: dict[str, ModuleType]) -> None:
    """Route every public layer function through a tracing wrapper."""
    observers = _observers(tracer)
    replacement: dict[int, tuple[Any, Callable]] = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            public = not attr.startswith("_") and getattr(obj, "__module__", None) == module.__name__
            if public and (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                name = f"{layer}.{attr}"
                replacement[id(obj)] = (obj, tracer.wrap(name, obj, observers.get(name)))
    for namespace in (package, *modules.values()):
        for attr, obj in list(vars(namespace).items()):
            found = replacement.get(id(obj))
            if found is not None and found[0] is obj:
                setattr(namespace, attr, found[1])
    poly_class = modules["gfpoly"].GFPolynomial
    for dunder in GFPOLY_DUNDERS:
        method = getattr(poly_class, dunder)
        setattr(poly_class, dunder, tracer.wrap(f"gfpoly.{dunder.strip('_')}", method))
