"""Function-boundary spans around lowdisc's layers, recorded from outside
the package.

`install` wraps the named public functions of each lowdisc module at
every place lowdisc binds them (`from .discrepancy import disc` leaves a
copy in five other modules), plus scipy's `linprog` as bound in
`lowdisc.approximation`. Classes are traced through `__init__`, so the
class object itself, and every isinstance check on it, is untouched.
Per-entry hot paths (`scaled_argument`, `CirculantGraph.edges`, ...) are
deliberately not wrapped: their time lands in the caller's self time.

Spans live in memory as [name, parent index, start, end, ok, attrs] and
are written out once, at exit. `summarize` turns the spans of many
invocations into per-layer calls, inclusive time and self time.
"""

import functools
import sys
import time

# layer (lowdisc module) -> names traced in that module
TRACED = {
    "discrepancy": ("disc", "elements_digest", "IntegerMultiset",
                    "random_search"),
    "construction": ("build_low_disc_set", "iteration_constants", "iterate"),
    "numeric_core": ("primes_in_halfopen",),
    "expander": ("build_expander", "graph_from_connection", "spectral_gap"),
    "distribution": ("uniformity_report", "exact_distribution"),
    "approximation": ("minimax_poly", "threshold_degree", "linprog"),
    "polynomials": ("all_points", "monomials_upto_deg"),
    "halfspace": ("build_hardest_halfspace", "lift_to_nof",
                  "two_party_matrix"),
    "cli": ("main",),
}


def _disc_counts(args, kwargs, result):
    Z = args[0] if args else kwargs["Z"]
    return {"modulus": Z.m, "support": sum(1 for f in Z.freq if f)}


def _construction_counts(args, kwargs, result):
    return {"pipeline_tried": int(bool(result.stages)),
            "pipeline_accepted": int(result.branch == "pipeline")}


def _expander_counts(args, kwargs, result):
    return {"complete": int(result.provenance.get("branch") == "complete")}


def _table_counts(args, kwargs, result):
    Z = args[0] if args else kwargs["Z"]
    return {"cells": Z.cardinality * Z.m}


def _linprog_counts(args, kwargs, result):
    rows = 0
    for key in ("A_ub", "A_eq"):
        A = kwargs.get(key)
        if A is not None:
            rows += len(A)
    return {"rows": rows, "nit": int(result.nit),
            "success": int(bool(result.success))}


def _matrix_counts(args, kwargs, result):
    return {"entries": int(result[0].size)}


# Counters read from a call's arguments and result. The ones in DEFERRED
# are costly (O(m) scans) and are evaluated at exit, not inside a span.
COUNTERS = {
    "discrepancy.disc": _disc_counts,
    "construction.build_low_disc_set": _construction_counts,
    "expander.build_expander": _expander_counts,
    "distribution.exact_distribution": _table_counts,
    "approximation.linprog": _linprog_counts,
    "halfspace.two_party_matrix": _matrix_counts,
}
DEFERRED = {"discrepancy.disc"}

NAME, PARENT, START, END, OK, ATTRS = range(6)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._deferred = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        deferred = self._deferred if name in DEFERRED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, parent, clock(), None, False, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            rec[OK] = True
            if counter is not None:
                if deferred is not None:
                    deferred.append((rec, counter, args, kwargs, result))
                else:
                    rec[ATTRS] = counter(args, kwargs, result)
            return result

        return traced

    def finish(self):
        """Evaluate deferred counters; returns the span list."""
        for rec, counter, args, kwargs, result in self._deferred:
            rec[ATTRS] = counter(args, kwargs, result)
        self._deferred.clear()
        return self.spans


def install(tracer, modules):
    """Wrap every TRACED name in `modules` ({dotted name: module}, the
    loaded lowdisc modules). Returns a function that undoes it."""
    undo = []
    for layer, names in TRACED.items():
        home = modules["lowdisc." + layer]
        for name in names:
            span = f"{layer}.{name}"
            orig = getattr(home, name)
            if isinstance(orig, type):
                init = orig.__init__
                orig.__init__ = tracer.wrap(span, init)
                undo.append((orig, "__init__", init))
                continue
            wrapped = tracer.wrap(span, orig)
            for mod in modules.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, orig))

    def uninstall():
        for obj, attr, val in reversed(undo):
            setattr(obj, attr, val)
    return uninstall


def lowdisc_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "lowdisc" or name.startswith("lowdisc.")}


# ------------------------------------------------------------- analysis

def layer_of(name):
    return name.split(".", 1)[0]


def summarize(spans):
    """Per-span-name and per-layer totals of one invocation's spans.

    Returns (functions, self_s):
      functions[name] = {"calls", "s", "ok", "attrs": {key: sum}} where
        "s" sums only spans with no ancestor of the same name, so
        recursion (verify re-running main) is not counted twice;
      self_s[layer] = sum over the layer's spans of duration minus the
        duration of direct children. Children of the same layer give
        their time back through their own self time, so this equals the
        layer's span time minus nested spans of other layers.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    functions, self_s = {}, {}
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        layer = layer_of(name)
        self_s[layer] = self_s.get(layer, 0.0) + dur - child[i]
        f = functions.setdefault(name, {"calls": 0, "s": 0.0, "ok": 0,
                                        "attrs": {}})
        f["calls"] += 1
        f["ok"] += int(bool(s[OK]))
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:
            f["s"] += dur
        for key, val in (s[ATTRS] or {}).items():
            f["attrs"][key] = f["attrs"].get(key, 0) + val
    return functions, self_s


def count_children(spans, parent_name, child_name):
    """Number of `child_name` spans whose direct parent is a
    `parent_name` span."""
    return sum(1 for s in spans
               if s[NAME] == child_name and s[PARENT] >= 0
               and spans[s[PARENT]][NAME] == parent_name)


def count_nested(spans, name):
    """Number of `name` spans with an ancestor of the same name."""
    n = 0
    for s in spans:
        if s[NAME] != name:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        n += p >= 0
    return n
