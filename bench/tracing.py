"""Spans around the library's public functions, installed from outside.

install() wraps every public function of the layer modules (and
cli.main) and rebinds the wrapper at every klsumfree module that imported
the function by name, so calls between layers pass through it: a call of
witness.is_kl_sum_free or oracle.best_witness becomes a span.  Hot inner
loops (abelian.apply_ops, the oracle's extend closure) stay unwrapped and
count toward their caller's self time.  Caches are read only through
their own interfaces: cache_info() of each lru_cache and the size of each
module-level *_CACHE dict.

A span is [name, start, end, parent index, op id]; spans stay in memory
until the round ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("abelian", "sumset", "formulas", "witness", "oracle")
UNWRAPPED = {"abelian.apply_ops"}


def layer_modules() -> dict:
    return {name: sys.modules[f"klsumfree.{name}"] for name in LAYERS + ("cli",)}


def cache_state() -> dict:
    """Every lru_cache's counters and every *_CACHE dict's size."""
    state = {}
    for short, mod in layer_modules().items():
        for name, obj in vars(mod).items():
            cached = obj if hasattr(obj, "cache_info") else getattr(obj, "__wrapped__", None)
            if hasattr(cached, "cache_info") and getattr(cached, "__module__", None) == mod.__name__:
                info = cached.cache_info()
                state[f"{short}.{name}"] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
            elif name.endswith("_CACHE") and isinstance(obj, dict):
                state[f"{short}.{name}"] = {"size": len(obj)}
    return state


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.op_id = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            state = after.before() if after else None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after:
                after.record(self, state, result, span)
            return result

        return traced

    def install(self) -> None:
        mods = layer_modules()
        hooks = _hooks(mods)
        originals = {}
        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                label = f"{short}.{name}"
                public = not name.startswith("_") and (short != "cli" or name == "main")
                callable_fn = inspect.isfunction(obj) or hasattr(obj, "cache_info")
                if public and callable_fn and label not in UNWRAPPED and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (obj, self.wrap(label, obj, hooks.get(label)))
        for modname, mod in list(sys.modules.items()):
            if modname == "klsumfree" or modname.startswith("klsumfree."):
                for name, obj in list(vars(mod).items()):
                    hit = originals.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        setattr(mod, name, hit[1])


class _Hook:
    def __init__(self, before, record):
        self.before, self.record = before, record


def _hooks(mods) -> dict:
    """Counters taken from returned results and cache interfaces."""
    oracle, abelian = mods["oracle"], mods["abelian"]
    exact_cache = getattr(oracle, "_EXACT_CACHE", None)
    tables = abelian.translation_ops

    def exact_record(tracer, size_before, result, span):
        if exact_cache is not None and len(exact_cache) == size_before:
            tracer.counters["oracle.lambda_exact.cache_hits"] += 1
        else:
            tracer.counters["oracle.nodes_explored"] += result.nodes_explored

    def tables_record(tracer, misses_before, result, span):
        if tables.cache_info().misses > misses_before:
            tracer.counters["abelian.translation_ops.build_s"] += span[2] - span[1]

    def add(metric, amount):
        def record(tracer, state, result, span):
            tracer.counters[metric] += amount(result)

        return _Hook(lambda: None, record)

    return {
        "oracle.lambda_exact": _Hook(lambda: len(exact_cache) if exact_cache is not None else None, exact_record),
        "abelian.translation_ops": _Hook(lambda: tables.cache_info().misses, tables_record),
        "oracle.count_sum_free": add("oracle.count_sum_free.sets", lambda r: r.total),
        "oracle.enumerate_maximum": add("oracle.enumerate_maximum.sets", len),
    }


def span_totals(spans: list[list]) -> dict:
    """Per span name: calls, inclusive seconds and self seconds."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for (name, start, end, _, _), inner in zip(spans, child):
        t = totals[name]
        t[0] += 1
        t[1] += end - start
        t[2] += end - start - inner
    return totals


def layer_metrics(tracer: Tracer, caches: dict, json_bytes: int) -> dict:
    """The per-layer metrics of one traced round."""
    totals = span_totals(tracer.spans)

    def calls(*names):
        return sum(totals[n][0] for n in names if n in totals)

    def self_s(*names):
        return sum(totals[n][2] for n in names if n in totals)

    def incl_s(*names):
        return sum(totals[n][1] for n in names if n in totals)

    c = tracer.counters
    ap = ("oracle.alpha_exact", "oracle.beta_exact", "oracle.gamma_exact")
    formulas = tuple(n for n in totals if n.startswith("formulas."))
    exact_self = self_s("oracle.lambda_exact")
    return {
        "oracle.lambda_exact.calls": calls("oracle.lambda_exact"),
        "oracle.lambda_exact.self_s": exact_self,
        "oracle.lambda_exact.cache_hits": c["oracle.lambda_exact.cache_hits"],
        "oracle.nodes_explored": c["oracle.nodes_explored"],
        "oracle.nodes_per_s": c["oracle.nodes_explored"] / exact_self if exact_self else 0.0,
        "oracle.count_sum_free.self_s": self_s("oracle.count_sum_free"),
        "oracle.count_sum_free.sets": c["oracle.count_sum_free.sets"],
        "oracle.enumerate_maximum.self_s": self_s("oracle.enumerate_maximum"),
        "oracle.enumerate_maximum.sets": c["oracle.enumerate_maximum.sets"],
        "oracle.ap.calls": calls(*ap),
        "oracle.ap.self_s": self_s(*ap),
        "oracle.ap.cache_misses": caches.get("oracle._ap_maxima", {}).get("misses", 0),
        "formulas.calls": calls(*formulas),
        "formulas.self_s": self_s(*formulas),
        "witness.best_witness.calls": calls("witness.best_witness"),
        "witness.best_witness.self_s": self_s("witness.best_witness"),
        "witness.witness_json.self_s": self_s("witness.witness_json"),
        "sumset.is_kl_sum_free.calls": calls("sumset.is_kl_sum_free"),
        "sumset.is_kl_sum_free.self_s": self_s("sumset.is_kl_sum_free"),
        "sumset.pair_sumset.calls": calls("sumset.pair_sumset"),
        "sumset.pair_sumset.s": incl_s("sumset.pair_sumset"),
        "sumset.find_violation.calls": calls("sumset.find_violation"),
        "sumset.find_violation.s": incl_s("sumset.find_violation"),
        "abelian.translation_ops.calls": calls("abelian.translation_ops"),
        "abelian.translation_ops.misses": caches.get("abelian.translation_ops", {}).get("misses", 0),
        "abelian.translation_ops.build_s": c["abelian.translation_ops.build_s"],
        "abelian.tables_cached": caches.get("abelian.translation_ops", {}).get("size", 0),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.json_bytes": json_bytes,
    }
