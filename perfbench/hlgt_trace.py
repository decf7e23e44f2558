"""Span tracing of the hlgt layers, installed from outside the program.

A :class:`Tracer` rebinds the public functions of each hlgt module, and
the ``Polynomial`` ring methods, to wrappers that record a span per call:
name, start, end, self time and the span that caused it.  Every name a
function is bound to in any hlgt module is rebound, so calls through
imported names (``formulas.enumerate_patterns``, ``oracle.check_partition``,
...) are seen too.  Leaving the ``with`` block restores the originals.

Functions called up to millions of times per operation (the ring methods,
``check_partition``, ``row_weight_sum``, ``transition_det``) would need
gigabytes as single spans, so their spans are kept aggregated: one record
per (enclosing span, name) with the call count, total and self time.
Self time is a span's duration minus the durations of its direct children.

Cache hit ratios come from the existing ``lru_cache`` statistics, read
before and after each operation.  Everything stays in memory until
:meth:`Tracer.write_spans` at the end of the run.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from time import perf_counter

import hlgt
from hlgt import cli, formulas, oracle, patterns, polyring, verify

MODULES = (hlgt, cli, verify, formulas, oracle, patterns, polyring)

# (module, function) pairs traced as single spans or, when hot, aggregated.
FUNCTIONS = (
    (cli, "main", False),
    (verify, "check_case", False),
    (formulas, "hl_pattern_expansion", False),
    (formulas, "tokuyama_sum", False),
    (formulas, "stanley_sum", False),
    (formulas, "stanley_filtered_sum", False),
    (formulas, "hl_row_recursion", False),
    (formulas, "tokuyama_row_recursion", False),
    (formulas, "row_weight_sum", True),
    (formulas, "transition_det", True),
    (patterns, "enumerate_patterns", False),
    (patterns, "check_partition", True),
    (oracle, "hall_littlewood", False),
    (oracle, "weyl_denominator", False),
    (oracle, "schur", False),
)

# Span name -> the Polynomial attributes bound to one function.  Products
# are split by ring: ``mul_qt`` when the operands are q,t-only
# (``n_vars == 0``), ``mul_x`` otherwise.
RING_METHODS = {
    "add": ("__add__", "__radd__"),
    "permuted": ("permuted",),
    "divide_by_diff": ("divide_by_diff",),
    "eq": ("__eq__",),
    "substitute": ("substitute",),
    "to_json": ("to_json",),
}
MUL_ATTRS = ("__mul__", "__rmul__")

# lru_caches whose hit ratio is reported.
HIT_RATIO_CACHES = (
    (formulas, "raising_closure"),
    (patterns, "diagonal_weight"),
    (patterns, "subdiagonal_weight"),
)


def _qualname(module, name: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[1]}.{name}"


SPAN_NAMES = tuple(_qualname(m, f) for m, f, _ in FUNCTIONS) + tuple(
    f"polyring.{name}" for name in ("mul_qt", "mul_x", *RING_METHODS)
)
COUNTS = ("cli.out_bytes", "patterns.patterns_out", "polyring.terms_out")
COUNT_UNITS = {"cli.out_bytes": "bytes"}


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = [f"{span}.{q}" for span in SPAN_NAMES for q in ("calls", "self_s")]
    names += [f"{_qualname(m, f)}.hit_ratio" for m, f in HIT_RATIO_CACHES]
    names += ["formulas.cache_entries", *COUNTS, "trace.overhead_s"]
    return names


def _lru_caches():
    # Every memo table the program keeps in formulas and patterns: the
    # caches formulas.clear_caches() drops.
    for module in (formulas, patterns):
        for value in vars(module).values():
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == module.__name__:
                yield value


class Tracer:
    """Records spans of hlgt calls while installed (use as a context manager)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (op, span_id, parent_id, name, start, end, self_s)
        self.aggregates: dict[tuple, list] = {}  # (op, parent_id, name) -> [calls, total_s, self_s]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.missing: list[str] = []
        self._stack: list[list[float]] = []  # per open call: [time of direct children]
        self._open: list[int] = [0]  # ids of open single spans; 0 = none
        self._op = [None]  # id of the current operation, shared with the wrappers
        self._ids = itertools.count(1)
        self._restore: list[tuple] = []
        self._hits = {_qualname(m, f): [0, 0] for m, f in HIT_RATIO_CACHES}
        self._before: dict[str, tuple[int, int]] = {}
        self._cache_entries = 0

    # ------------------------------------------------------------------
    # installation

    def __enter__(self) -> "Tracer":
        for module, name, hot in FUNCTIONS:
            original = getattr(module, name, None)
            qual = _qualname(module, name)
            if original is None:
                self.missing.append(qual)
                continue
            count = "patterns.patterns_out" if name == "enumerate_patterns" else None
            wrapper = (self._hot if hot else self._span)(qual, original, count)
            for mod in MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapper)
        cls = polyring.Polynomial
        for name, attrs in RING_METHODS.items():
            original = cls.__dict__.get(attrs[0])
            if original is None:
                self.missing.append(f"polyring.{name}")
                continue
            count = None if name in ("eq", "to_json") else "polyring.terms_out"
            wrapper = self._hot(f"polyring.{name}", original, count)
            for attr in attrs:
                if cls.__dict__.get(attr) is original:
                    self._rebind(cls, attr, wrapper)
        original = cls.__dict__[MUL_ATTRS[0]]
        mul_qt = self._hot("polyring.mul_qt", original, "polyring.terms_out")
        mul_x = self._hot("polyring.mul_x", original, "polyring.terms_out")

        def mul(a, b):
            return (mul_qt if a.n_vars == 0 else mul_x)(a, b)

        for attr in MUL_ATTRS:
            if cls.__dict__.get(attr) is original:
                self._rebind(cls, attr, mul)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------
    # wrappers

    # Each wrapper adds the size of its result (terms or patterns) to the
    # named count, when one is given.

    def _span(self, name: str, fn, count: str | None):
        stack, open_spans, spans, op, counts = self._stack, self._open, self.spans, self._op, self.counts
        ids = self._ids

        def traced(*args, **kwargs):
            parent = open_spans[-1]
            span_id = next(ids)
            open_spans.append(span_id)
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                open_spans.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                spans.append((op[0], span_id, parent, name, start, end, duration - frame[0]))
            if count:
                counts[count] += _size(result)
            return result

        return traced

    def _hot(self, name: str, fn, count: str | None):
        stack, open_spans, aggregates, op, counts = (
            self._stack, self._open, self.aggregates, self._op, self.counts)

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                key = (op[0], open_spans[-1], name)
                agg = aggregates.get(key)
                if agg is None:
                    aggregates[key] = [1, duration, duration - frame[0]]
                else:
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += duration - frame[0]
            if count:
                counts[count] += _size(result)
            return result

        return traced

    # ------------------------------------------------------------------
    # operations

    def begin_op(self, op_id: int) -> None:
        """Start attributing spans to one operation; snapshot cache statistics."""
        self._op[0] = op_id
        for module, name in HIT_RATIO_CACHES:
            info = _cache_info(module, name)
            self._before[_qualname(module, name)] = (info.hits, info.misses) if info else (0, 0)

    def end_op(self, out_bytes: int) -> None:
        """Close the current operation, adding its cache statistics and output size."""
        for module, name in HIT_RATIO_CACHES:
            info = _cache_info(module, name)
            if info:
                qual = _qualname(module, name)
                hits0, misses0 = self._before[qual]
                self._hits[qual][0] += info.hits - hits0
                self._hits[qual][1] += info.misses - misses0
        entries = sum(cache.cache_info().currsize for cache in _lru_caches())
        self._cache_entries = max(self._cache_entries, entries)
        self.counts["cli.out_bytes"] += out_bytes
        self._op[0] = None

    # ------------------------------------------------------------------
    # results

    def metrics(self, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: (value, unit) for every name in per_layer_names()."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for *_, name, _start, _end, own in self.spans:
            calls[name] += 1
            self_s[name] += own
        for (_op, _parent, name), (n, _total, own) in self.aggregates.items():
            calls[name] += n
            self_s[name] += own
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        for qual, (hits, misses) in self._hits.items():
            out[f"{qual}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        out["formulas.cache_entries"] = (self._cache_entries, "count")
        for name in COUNTS:
            out[name] = (self.counts[name], COUNT_UNITS.get(name, "count"))
        out["trace.overhead_s"] = (overhead_s, "s")
        return out

    def write_spans(self, path: Path, origin: float) -> None:
        """Write every span as one JSON line, times in seconds from origin."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for op, span_id, parent, name, start, end, own in self.spans:
                handle.write(json.dumps({
                    "op": op, "id": span_id, "parent": parent, "name": name,
                    "start": start - origin, "end": end - origin, "self_s": own,
                }) + "\n")
            for (op, parent, name), (n, total, own) in self.aggregates.items():
                handle.write(json.dumps({
                    "op": op, "parent": parent, "name": name,
                    "calls": n, "total_s": total, "self_s": own,
                }) + "\n")


def _size(result) -> int:
    return len(result) if isinstance(result, (polyring.Polynomial, list)) else 0


def _cache_info(module, name: str):
    info = getattr(getattr(module, name, None), "cache_info", None)
    return info() if info else None
