"""Outside-in span tracing of latpoly's layers.

The tracer rebinds public functions and methods of the layer modules to
wrappers that record one span per call: name, start, end, parent span and
request id, kept in flat arrays and written out when the pass ends.  A
function imported by name into another module is rebound there too, and
aliased methods (``__rmul__ = __mul__``, bound when the class was created)
share one wrapper, so every call path goes through exactly one span.  The
``lru_cache`` objects stay reachable for ``cache_info()``, and ``restore``
puts every original back.

Self time is a span's duration minus the durations of its direct children.
The inclusive time of a layer counts only its outermost spans, so recursion
(``ortho_poly``) is not counted twice.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

MARK = "_perfbench_layer"

# span name -> (module, attribute); the function is rebound in every latpoly
# module that holds it, because engines, closedforms and cli import by name
FUNCTIONS = {
    "symbolic.series_invert": ("symbolic", "series_invert"),
    "symbolic.constant_term_ratio": ("symbolic", "constant_term_ratio"),
    "symbolic.parse_polynomial": ("symbolic", "parse_polynomial"),
    "orthopoly.ortho_poly": ("orthopoly", "ortho_poly"),
    "orthopoly.to_laurent": ("orthopoly", "to_laurent"),
    "engines.brute_force": ("engines", "brute_force"),
    "engines.signature_cells": ("engines", "_signature_cells"),
    "engines.evaluate_signatures": ("engines", "_evaluate_signatures"),
    "engines.transfer_matrix": ("engines", "transfer_matrix"),
    "engines.viennot_ct": ("engines", "viennot_ct"),
    "engines.rho_ct": ("engines", "rho_ct"),
    "engines.generating_function": ("engines", "generating_function"),
    "closedforms.dmr_ct": ("closedforms", "dmr_ct"),
    "closedforms.dmr_sum": ("closedforms", "dmr_sum"),
    "closedforms.four_weight_ct": ("closedforms", "four_weight_ct"),
    "closedforms.four_weight_sum": ("closedforms", "four_weight_sum"),
    "closedforms.rogers": ("closedforms", "rogers"),
    "cli.main": ("cli", "main"),
}

# span name -> (class in symbolic, method names sharing the span)
METHODS = {
    "symbolic.mul": ("LaurentPolynomial", ("__mul__", "__rmul__")),
    "symbolic.add": ("LaurentPolynomial", ("__add__", "__radd__")),
    "symbolic.substitute": ("LaurentPolynomial", ("substitute",)),
    "symbolic.render": ("LaurentPolynomial", ("render",)),
    "symbolic.mul_poly": ("TruncatedSeries", ("mul_poly",)),
}

# metric prefix -> (module, attribute of the lru_cache object)
CACHES = {
    "orthopoly.ortho_poly": ("orthopoly", "ortho_poly"),
    "orthopoly.to_laurent": ("orthopoly", "_to_laurent_cached"),
    "engines.signature_cells": ("engines", "_signature_cells"),
    "engines.rho_inverse": ("engines", "_rho_denominator_inverse"),
    "engines.kernel_power": ("engines", "_kernel_power"),
    "engines.transfer_row": ("engines", "_transfer_row"),
}

REQUEST = "request"

# TruncatedSeries reads that mark mul_poly output as used: (method, exponent read)
_READS = (("coefficient", lambda args: args[0]), ("constant_term", lambda args: 0))
# mul_poly outputs are read right after they are made; older ones are forgotten
_RECENT = 8


def _module(name: str):
    return sys.modules[f"latpoly.{name}"]


def _owners() -> list:
    """Namespaces the tracer may rebind: the package, its modules, two classes."""
    import latpoly
    names = ("symbolic", "orthopoly", "paving", "engines", "closedforms", "cli")
    symbolic = _module("symbolic")
    return ([latpoly] + [_module(n) for n in names]
            + [symbolic.LaurentPolynomial, symbolic.TruncatedSeries])


def installed_wrappers() -> list:
    """Names of latpoly attributes currently bound to a tracer wrapper."""
    return [f"{getattr(owner, '__name__', owner)}.{key}"
            for owner in _owners() for key, value in vars(owner).items()
            if getattr(value, MARK, None)]


def lru_caches() -> dict:
    """Every lru_cache object reachable from latpoly, by qualified name."""
    return {f"{v.__module__}.{v.__qualname__}": v
            for owner in _owners() for v in vars(owner).values()
            if callable(getattr(v, "cache_info", None))}


class Tracer:
    """Span recorder for one pass: ``install``, run requests, ``restore``."""

    def __init__(self):
        self.names = []
        self.name_of = array("H")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("l")
        self.request = array("l")
        self._stack = [-1]
        self._current = [-1]          # request id, -1 outside requests
        self._patches = []            # (owner, attribute, original)
        self._recent = []             # [series, exponents read] per recent mul_poly output
        self.counters = {}
        self._caches = {prefix: getattr(_module(m), a) for prefix, (m, a) in CACHES.items()}
        self._cache_before = {}
        self._request_span = self._span(REQUEST, lambda fn, *args: fn(*args))

    # -- recording -------------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        idx = len(self.names)
        self.names.append(name)
        name_of, t0s, t1s = self.name_of, self.t0, self.t1
        parents, requests = self.parent, self.request
        stack, current = self._stack, self._current
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(t0s)
            name_of.append(idx)
            parents.append(stack[-1])
            requests.append(current[0])
            t0s.append(0.0)
            t1s.append(0.0)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                t0s[sid] = start
                t1s[sid] = end
            if on_result is not None and current[0] >= 0:
                on_result(result)
            return result

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def run_request(self, rid: int, fn, *args):
        """Call fn(*args) as request ``rid`` under a root span."""
        self._current[0] = rid
        try:
            return self._request_span(fn, *args)
        finally:
            self._current[0] = -1

    def _count(self, key: str, value) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _on_mul(self, result) -> None:
        n = result.term_count()
        self._count("symbolic.mul.out_terms", n)
        if n > self.counters.get("symbolic.mul.max_terms", 0):
            self.counters["symbolic.mul.max_terms"] = n

    @staticmethod
    def _series_terms(series) -> int:
        return sum(c.term_count() for c in series.coefficients().values())

    def _on_mul_poly(self, series) -> None:
        self._count("symbolic.mul_poly.out_terms", self._series_terms(series))
        self._recent.append([series, set()])
        del self._recent[:-_RECENT]

    def _on_invert(self, series) -> None:
        self._count("symbolic.series_invert.out_terms", self._series_terms(series))

    def _read_hook(self, fn, exponent_of):
        recent, current = self._recent, self._current

        def read(series, *args):
            result = fn(series, *args)
            if current[0] >= 0:
                for entry in recent:
                    if entry[0] is series:
                        e = exponent_of(args)
                        if e not in entry[1]:
                            entry[1].add(e)
                            self._count("symbolic.mul_poly.read_terms", result.term_count())
                        break
            return result

        setattr(read, MARK, "read")
        read.__wrapped__ = fn
        return read

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        found = installed_wrappers()
        if self._patches or found:
            raise RuntimeError(f"tracer wrappers already installed: {found}")
        hooks = {"symbolic.mul": self._on_mul, "symbolic.mul_poly": self._on_mul_poly,
                 "symbolic.series_invert": self._on_invert}
        owners = _owners()
        for name, (mod_name, attr) in FUNCTIONS.items():
            original = getattr(_module(mod_name), attr)
            wrapper = self._span(name, original, hooks.get(name))
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._set(owner, key, wrapper)
        symbolic = _module("symbolic")
        for name, (cls_name, attrs) in METHODS.items():
            cls = getattr(symbolic, cls_name)
            wrappers = {}
            for attr in attrs:
                original = cls.__dict__[attr]
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._span(name, original, hooks.get(name))
                self._set(cls, attr, wrappers[id(original)])
        for attr, exponent_of in _READS:
            cls = symbolic.TruncatedSeries
            self._set(cls, attr, self._read_hook(cls.__dict__[attr], exponent_of))
        self._cache_before = {k: c.cache_info() for k, c in self._caches.items()}

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._recent.clear()

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics of the spans recorded inside requests."""
        n = len(self.t0)
        t0s, t1s, parents = self.t0, self.t1, self.parent
        dur = [t1s[i] - t0s[i] for i in range(n)]
        children = [0.0] * n
        for i in range(n):
            if parents[i] >= 0:
                children[parents[i]] += dur[i]
        calls, self_s, incl_s, open_until = {}, {}, {}, {}
        for i in range(n):
            if self.request[i] < 0:
                continue
            layer = self.names[self.name_of[i]]
            calls[layer] = calls.get(layer, 0) + 1
            self_s[layer] = self_s.get(layer, 0.0) + dur[i] - children[i]
            if t0s[i] >= open_until.get(layer, float("-inf")):
                incl_s[layer] = incl_s.get(layer, 0.0) + dur[i]
                open_until[layer] = t1s[i]
        out = {}
        for layer in calls:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.s"] = incl_s[layer]
        out.update(self.counters)
        computed = self.counters.get("symbolic.mul_poly.out_terms", 0)
        if computed:
            out["symbolic.mul_poly.useful_ratio"] = (
                self.counters.get("symbolic.mul_poly.read_terms", 0) / computed)
        for prefix, cache in self._caches.items():
            before, after = self._cache_before[prefix], cache.cache_info()
            hits, misses = after.hits - before.hits, after.misses - before.misses
            if hits + misses:
                out[f"{prefix}.hit_ratio"] = hits / (hits + misses)
        if out.get(f"{REQUEST}.s"):
            out["trace.unattributed_frac"] = out[f"{REQUEST}.self_s"] / out[f"{REQUEST}.s"]
        out["trace.spans"] = n
        return out

    def write(self, path) -> None:
        """All spans, columnar, as gzip-compressed JSON."""
        doc = {"names": self.names, "name": self.name_of.tolist(),
               "start": self.t0.tolist(), "end": self.t1.tolist(),
               "parent": self.parent.tolist(), "request": self.request.tolist()}
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(doc, handle, separators=(",", ":"))
