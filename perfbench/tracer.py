"""Per-layer tracing installed from outside the package.

The tracer wraps the public functions listed in ``LAYERS`` in every morphlift
namespace that binds them (the defining module, each module that imported the
name, and the package itself; methods on every class attribute that holds
them). Each call while the tracer is active is one span on a single stack. A
span's self time is its duration minus the time its child spans cover, so the
self times of nested layers add up without double counting. Counter hooks read
argument and result sizes at the same boundaries; their cost is charged to no
span. ``uninstall`` restores every binding, and no file under ``src/`` changes.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

# Layer (module of morphlift) -> wrapped functions, by qualified name.
LAYERS = {
    "poly": ["MultiPoly.__init__", "MultiPoly.__add__", "MultiPoly.__mul__",
             "accumulate_product", "poly_dot", "MultiPoly.partial",
             "MultiPoly.evaluate", "MultiPoly.compose", "render"],
    "exact": ["ExactMatrix.rank"],
    "expr": ["lower_to_poly", "eval_float", "derivative"],
    "mapfile": ["parse_map", "parse_poly"],
    "maps": ["real_identification", "complexify", "compose"],
    "calculus": ["jacobian", "hessian", "laplacian", "complex_gradient",
                 "PolyMatrix.__matmul__"],
    "lift": ["complete_lift_real", "complete_lift_complex", "anti_lift"],
    "analysis": ["is_harmonic", "hwc_certificate", "is_harmonic_morphism",
                 "hessian_conditions"],
    "kaehler": ["span_report", "search_points"],
    "numeric": ["numeric_check", "sample_points", "numeric_complete_lift"],
    "catalog": ["run_entry"],
    "cli": ["cli_main"],
}

# These recurse through their own module-level name. Their defining module
# keeps the original binding, so a wrapper frame is not added at every level
# of recursion: the parser's recursion headroom must be the same traced and
# untraced. Their spans cover only calls from other modules.
SELF_RECURSIVE = {("expr", "lower_to_poly"), ("expr", "derivative")}

COUNTERS = {
    "poly.term_pairs": "count",     # sum of |p|*|q| over accumulate_product
    "poly.terms_out": "count",      # terms in results of __mul__ and poly_dot
    "poly.coeff_bits_max": "bits",  # largest coefficient in those results
    "exact.rank_cells": "count",    # sum of rows*cols over rank calls
    "mapfile.chars_in": "chars",    # characters handed to the parser
    "cli.bytes_out": "bytes",       # UTF-8 bytes cli_main wrote
}


def function_names() -> list[str]:
    return [f"{layer}.{name}" for layer, names in LAYERS.items()
            for name in names]


def _bits(value) -> int:
    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(),
                   value.denominator.bit_length())
    return max(_bits(value.re), _bits(value.im))   # Gaussian rational


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = {name: 0 for name in function_names()}
        self.self_s = {name: 0.0 for name in function_names()}
        self.counters = {name: 0 for name in COUNTERS}
        self._stack: list[float] = []   # per open span: time its children cover
        self._undo: list[tuple] = []

    # -- counter hooks ---------------------------------------------------------

    def _count_pairs(self, args, result):
        _, p, q = args
        self.counters["poly.term_pairs"] += len(p.terms) * len(q.terms)

    def _count_product(self, args, result):
        terms = getattr(result, "terms", None)
        if terms is None:     # __mul__ returned NotImplemented
            return
        self.counters["poly.terms_out"] += len(terms)
        if terms:
            bits = max(_bits(c) for c in terms.values())
            if bits > self.counters["poly.coeff_bits_max"]:
                self.counters["poly.coeff_bits_max"] = bits

    def _count_rank(self, args, result):
        matrix = args[0]
        self.counters["exact.rank_cells"] += matrix.rows * matrix.cols

    def _count_chars(self, args, result):
        self.counters["mapfile.chars_in"] += len(args[0])

    def _count_output(self, args, result):
        # The workloads hand cli_main a fresh buffer for every call.
        self.counters["cli.bytes_out"] += len(args[1].getvalue().encode())

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name, fn, hook):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self_s[name] += end - start - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += end - start
            if hook is not None:
                mark = clock()
                hook(args, result)
                if stack:
                    stack[-1] += clock() - mark
            return result

        return traced

    def install(self) -> None:
        hooks = {
            "poly.accumulate_product": self._count_pairs,
            "poly.MultiPoly.__mul__": self._count_product,
            "poly.poly_dot": self._count_product,
            "exact.ExactMatrix.rank": self._count_rank,
            "mapfile.parse_map": self._count_chars,
            "mapfile.parse_poly": self._count_chars,
            "cli.cli_main": self._count_output,
        }
        modules = [module for key, module in sorted(sys.modules.items())
                   if key == "morphlift" or key.startswith("morphlift.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"morphlift.{layer}"]
            for qualname in names:
                full = f"{layer}.{qualname}"
                owner, _, attr = qualname.rpartition(".")
                if owner:
                    cls = getattr(home, owner)
                    original = cls.__dict__[attr]
                    namespaces = [cls]
                else:
                    original = getattr(home, attr)
                    namespaces = [m for m in modules
                                  if not (m is home and (layer, attr) in SELF_RECURSIVE)]
                wrapper = self._wrap(full, original, hooks.get(full))
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, key, wrapper)
                            self._undo.append((namespace, key, original))

    def uninstall(self) -> None:
        while self._undo:
            namespace, key, original = self._undo.pop()
            setattr(namespace, key, original)

    # -- report --------------------------------------------------------------------

    def metrics(self, overhead: float) -> dict:
        out = {}
        for name in function_names():
            out[f"{name}.calls"] = {"value": self.calls[name], "unit": "count"}
            out[f"{name}.self_s"] = {"value": self.self_s[name], "unit": "s"}
        for name, unit in COUNTERS.items():
            out[name] = {"value": self.counters[name], "unit": unit}
        out["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        return out

    def top(self, count: int = 8) -> tuple[list, list]:
        """The functions and the layers with the most self time."""
        by_layer: dict[str, float] = {}
        for name, seconds in self.self_s.items():
            layer = name.split(".", 1)[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + seconds
        functions = sorted(self.self_s.items(), key=lambda kv: -kv[1])[:count]
        layers = sorted(by_layer.items(), key=lambda kv: -kv[1])[:count]
        return functions, layers
