"""Per-layer tracing of qweyl from outside the package.

`Tracer.install` replaces the public functions and methods of each qweyl
module with timing wrappers and `uninstall` puts the originals back; no
file of the package changes.  Every wrapped call adds to a count and to a
self time (its duration minus that of the wrapped calls it made) under a
metric key such as `cyclotomic.mul` or `linalg.add`.  The layer of a key
is the module that defines the function.  Calls into the hot scalar and
matrix operations are aggregated on the call stack; coarse calls (the CLI
entry points, `full_matrix_rep`, `hamiltonian_reduce`, ...) also leave a
span with its start, end and parent, kept in memory until `dump`.

The time a wrapper spends on its own bookkeeping, including the counters
below, is measured and kept apart as overhead.  By construction the self
times of all keys plus that overhead add up to the time of the outermost
wrapped calls (`accounting_error` tests this bookkeeping for
`cli.run_suite`); run.py checks the same sum against a clock read outside
`cli.main`.  The part of a call's cost that lies outside the wrapper's
clock reads (argument passing into the wrapper) is not visible here;
compare traced and untraced wall time for the full tracing cost.

Counters beyond calls and self time:
  mul.qpow       multiplies with an operand equal to some +-q^k
  pbw.term_pairs sum of |a| * |b| over PBWAlgebra.multiply(a, b)
  linalg.useful  SpanBasis.add calls that raised the rank
  pow.repeat     Matrix.__pow__ calls repeating a (matrix, exponent) pair
                 already seen in the same config
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict
from typing import Callable, Optional

LAYERS = ("cyclotomic", "pbw", "expr", "lattice", "fiber", "linalg",
          "reduction", "quiver_examples", "cli")

# (class name or None for a module function, attribute) -> metric key;
# every other wrapped function of a layer counts under "<layer>.other"
NAMED = {
    ("cyclotomic", "CycScalar", "__mul__"): "cyclotomic.mul",
    ("cyclotomic", "CycScalar", "__rmul__"): "cyclotomic.mul",
    ("cyclotomic", "CycScalar", "__add__"): "cyclotomic.add",
    ("cyclotomic", "CycScalar", "__radd__"): "cyclotomic.add",
    ("cyclotomic", "CycScalar", "inverse"): "cyclotomic.inverse",
    ("cyclotomic", "CycField", "qpow"): "cyclotomic.qpow",
    ("pbw", "PBWAlgebra", "multiply"): "pbw.multiply",
    ("expr", None, "evaluate"): "expr.evaluate",
    ("fiber", None, "full_matrix_rep"): "fiber.full_matrix_rep",
    ("fiber", "FullRep", "of_element"): "fiber.of_element",
    ("fiber", "Matrix", "__mul__"): "fiber.matrix_mul",
    ("fiber", "Matrix", "__pow__"): "fiber.matrix_pow",
    ("linalg", "SpanBasis", "add"): "linalg.add",
    ("linalg", "SpanBasis", "reduce"): "linalg.reduce",
    ("linalg", "SpanBasis", "rows"): "linalg.rows",
    ("linalg", "SpanBasis", "pivots"): "linalg.rows",
    ("linalg", None, "nullspace"): "linalg.nullspace",
    ("reduction", None, "hamiltonian_reduce"): "reduction.hamiltonian_reduce",
    ("cli", None, "main"): "cli.main",
    ("cli", None, "run_suite"): "cli.run_suite",
}

# Cheap helpers left unwrapped; their time counts toward their caller.
# They are constructors, comparisons and index arithmetic called inside the
# loops of the named operations, where a wrapper would cost more than they do.
UNWRAPPED = {
    ("cyclotomic", "CycScalar", "__init__"), ("cyclotomic", "CycScalar", "__eq__"),
    ("cyclotomic", "CycField", "scalar"), ("cyclotomic", "CycField", "reduce"),
    ("pbw", "PBWElement", "__init__"), ("fiber", "Matrix", "__init__"),
    ("fiber", "FiberElement", "__init__"), ("fiber", None, "digits"),
    ("fiber", None, "undigits"), ("linalg", None, "vec_add"),
    ("linalg", None, "vec_scale"), ("linalg", None, "vec_sub_scaled"),
}

WRAPPED_DUNDERS = {"__init__", "__post_init__", "__add__", "__radd__", "__sub__",
                   "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                   "__neg__", "__pow__", "__eq__"}

# keys whose calls are few and long: each call also leaves a span
SPAN_LAYERS = {"cli", "reduction", "quiver_examples"}
SPAN_KEYS = {"fiber.full_matrix_rep", "linalg.nullspace", "expr.evaluate"}


def _targets(mod):
    """(owner, class name, attribute, raw attribute) for every wrappable function."""
    layer = mod.__name__.rsplit(".", 1)[1]
    for name, obj in vars(mod).items():
        if name.startswith("_"):
            continue
        if inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for attr, raw in vars(obj).items():
                if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                    continue
                func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if not inspect.isfunction(func) or inspect.isgeneratorfunction(func):
                    continue
                if (layer, name, attr) not in UNWRAPPED:
                    yield obj, name, attr, raw
        elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__ \
                and not inspect.isclass(obj) and not inspect.isgeneratorfunction(obj):
            if (layer, None, name) not in UNWRAPPED:
                yield mod, None, name, obj


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.suite_self_s: dict[str, float] = defaultdict(float)  # self time inside run_suite
        self.counters: dict[str, int] = defaultdict(int)
        self.overhead_s = 0.0
        self.suite_overhead_s = 0.0
        self.suite_s = 0.0  # inclusive time of cli.run_suite
        self.spans: list[list] = []
        self._stack: list[list] = []  # per active wrapped call: [child seconds]
        self._span_stack: list[int] = []
        self._suite_depth = 0
        self._fields: list = []
        self._pow_seen: dict = {}
        self._qpow_sets: dict = {}
        self._saved: list[tuple] = []
        self.config_index = 0
        self.paused = False  # while set, wrappers call straight through

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"qweyl.{layer}") for layer in LAYERS}
        everywhere = [importlib.import_module("qweyl"), *mods.values()]
        replaced: dict[int, Callable] = {}
        for layer, mod in mods.items():
            for owner, cls, attr, raw in list(_targets(mod)):
                key = NAMED.get((layer, cls, attr), f"{layer}.other")
                func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                wrapper = self._wrap(func, key, layer)
                new = type(raw)(wrapper) if isinstance(raw, (classmethod, staticmethod)) else wrapper
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)
                if cls is None:
                    replaced[id(raw)] = wrapper
        # names imported from one module into another point at the originals
        for mod in everywhere:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)] is not obj:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, replaced[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    # -- per-key hooks -----------------------------------------------------

    def _pre_hook(self, key: str) -> Optional[Callable]:
        counters = self.counters
        if key == "cyclotomic.mul":
            def pre(args):
                a, b = args[0], args[1]
                field = getattr(a, "field", None)
                if field is None:
                    return
                qset = self._qpow_set(field)
                if a in qset or (b in qset if isinstance(b, type(a)) else b in (1, -1)):
                    counters["mul.qpow"] += 1
            return pre
        if key == "pbw.multiply":
            def pre(args):
                counters["pbw.term_pairs"] += len(args[1].terms) * len(args[2].terms)
            return pre
        if key == "fiber.matrix_pow":
            seen = self._pow_seen

            def pre(args):
                mark = (id(args[0]), args[1])
                if mark in seen:
                    counters["pow.repeat"] += 1
                else:
                    seen[mark] = args[0]  # keeps the matrix alive, so its id stays unique
            return pre
        return None

    def _post_hook(self, key: str, raw: Callable) -> Optional[Callable]:
        if key == "linalg.add":
            counters = self.counters

            def post(args, result):
                if result:
                    counters["linalg.useful"] += 1
            return post
        if raw.__qualname__ == "CycField.__init__":
            fields = self._fields

            def post(args, result):
                fields.append(args[0])
            return post
        return None

    def _qpow_set(self, field) -> frozenset:
        """The scalars +-q^k of the field, built through its public API with tracing paused."""
        qset = self._qpow_sets.get(field.ell)
        if qset is None:
            self.paused = True
            try:
                powers = [field.qpow(k) for k in range(field.ell)]
                qset = frozenset(powers + [-p for p in powers])
            finally:
                self.paused = False
            self._qpow_sets[field.ell] = qset
        return qset

    # -- the wrapper ---------------------------------------------------------

    def _wrap(self, raw: Callable, key: str, layer: str) -> Callable:
        perf = time.perf_counter
        stack = self._stack
        span_stack = self._span_stack
        spans = self.spans
        calls, self_s, suite_self_s = self.calls, self.self_s, self.suite_self_s
        pre = self._pre_hook(key)
        post = self._post_hook(key, raw)
        is_suite = key == "cli.run_suite"
        record_span = layer in SPAN_LAYERS or key in SPAN_KEYS
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return raw(*args, **kwargs)
            t0 = perf()
            if pre is not None:
                pre(args)
            inside = tracer._suite_depth > 0
            if is_suite:
                tracer._suite_depth += 1
            frame = [0.0]
            stack.append(frame)
            if record_span:
                span = [key, 0.0, 0.0, span_stack[-1] if span_stack else None,
                        tracer.config_index]
                span_stack.append(len(spans))
                spans.append(span)
            t1 = perf()
            ok = False
            try:
                result = raw(*args, **kwargs)
                ok = True
            finally:
                t2 = perf()
                stack.pop()
                own = (t2 - t1) - frame[0]
                calls[key] += 1
                self_s[key] += own
                if is_suite:
                    tracer._suite_depth -= 1
                    tracer.suite_s += t2 - t1
                    suite_self_s[key] += own
                elif inside:
                    suite_self_s[key] += own
                if record_span:
                    span[1], span[2] = t1, t2
                    span_stack.pop()
                if ok and post is not None:
                    post(args, result)
                t3 = perf()
                spent = (t1 - t0) + (t3 - t2)
                tracer.overhead_s += spent
                if inside:
                    tracer.suite_overhead_s += spent
                if stack:
                    stack[-1][0] += t3 - t0
            return result

        wrapper.__wrapped__ = raw
        wrapper.__name__ = getattr(raw, "__name__", key)
        wrapper.__qualname__ = getattr(raw, "__qualname__", key)
        return wrapper

    # -- per-config bookkeeping and results ----------------------------------

    def end_config(self) -> None:
        """Close one cli.main call: count the gauss caches it filled, forget its powers."""
        self.counters["gauss_cache.entries"] += sum(len(getattr(f, "gauss_cache", ()))
                                                    for f in self._fields)
        self._fields.clear()
        self._pow_seen.clear()
        self.config_index += 1

    def accounting_error(self) -> float:
        """|sum of self times inside run_suite + wrapper overhead there - run_suite time|."""
        return abs(sum(self.suite_self_s.values()) + self.suite_overhead_s - self.suite_s)

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

    def dump(self, path: str, batches: int) -> None:
        t_base = self.spans[0][1] if self.spans else 0.0
        data = {
            "batches": batches,
            "keys": {k: {"calls": self.calls[k], "self_s": self.self_s[k],
                         "suite_self_s": self.suite_self_s.get(k, 0.0)}
                     for k in sorted(self.calls)},
            "counters": dict(sorted(self.counters.items())),
            "overhead_s": self.overhead_s,
            "suite_overhead_s": self.suite_overhead_s,
            "suite_s": self.suite_s,
            "spans": [{"name": n, "start": s - t_base, "end": e - t_base,
                       "parent": p, "config": c} for n, s, e, p, c in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")


def layer_metrics(tracer: Tracer, batches: int, overhead_ratio: float) -> dict:
    """The per-layer figures of BENCHMARK.json, per traced batch."""
    calls, self_s, ctr = tracer.calls, tracer.self_s, tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    def inclusive(name):
        return sum(end - start for key, start, end, _, _ in tracer.spans if key == name)

    out = {}
    for key in ("cyclotomic.mul", "cyclotomic.add", "cyclotomic.inverse", "cyclotomic.qpow",
                "pbw.multiply", "expr.evaluate", "fiber.of_element", "fiber.matrix_mul",
                "linalg.add", "linalg.reduce", "reduction.hamiltonian_reduce"):
        out[f"{key}.calls"] = calls.get(key, 0) / batches
        out[f"{key}.self_s"] = self_s.get(key, 0.0) / batches
    out["cyclotomic.mul.qpow_operand_ratio"] = ratio(ctr["mul.qpow"], calls.get("cyclotomic.mul", 0))
    out["pbw.multiply.term_pairs"] = ctr["pbw.term_pairs"] / batches
    out["pbw.gauss_cache.entries"] = ctr["gauss_cache.entries"] / batches
    out["fiber.full_matrix_rep.s"] = inclusive("fiber.full_matrix_rep") / batches
    out["fiber.matrix_pow.calls"] = calls.get("fiber.matrix_pow", 0) / batches
    out["fiber.matrix_pow.repeat_ratio"] = ratio(ctr["pow.repeat"], calls.get("fiber.matrix_pow", 0))
    out["linalg.add.useful_ratio"] = ratio(ctr["linalg.useful"], calls.get("linalg.add", 0))
    out["linalg.rows.self_s"] = self_s.get("linalg.rows", 0.0) / batches
    out["linalg.nullspace.self_s"] = self_s.get("linalg.nullspace", 0.0) / batches
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.layer_self_s(layer) / batches
    out["cli.run_suite.s"] = tracer.suite_s / batches
    out["trace.wrapper_s"] = tracer.overhead_s / batches
    out["trace.overhead_ratio"] = overhead_ratio
    return out
