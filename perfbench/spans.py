"""Spans kept in memory around radpfd's public functions, and self times.

A Tracer wraps every function a radpfd layer module lists in ``__all__``
and points every binding of it in every radpfd module at the wrapper,
because the modules import each other's functions by name (for example
``radpfd.cli.exact_coefficients``). Each call records one span: name,
start, end and the index of the enclosing span. A generator function
records one span per resumption, so the consumer's work between items is
not charged to it. Sizes that optimisations move are counted at the same
boundaries, after the span has closed.

This module imports nothing from radpfd at import time.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("exact", "specfun", "saddle", "contour", "report", "svg", "cli")

# Functions reported one by one; every other wrapped function still counts
# towards its layer's self time.
REPORTED = (
    "exact.coefficient_range",
    "exact.exact_coefficients",
    "exact.float_coefficients",
    "exact.decimal_str",
    "specfun.dilog",
    "specfun.phi",
    "specfun.phi_derivative",
    "saddle.solve_saddle",
    "saddle.saddle_constants",
    "saddle.asymptotic_C",
    "saddle.argument_principle_count",
    "contour.cauchy_oracle",
    "contour.constant_c_euler_check",
    "report.build_rows",
    "report.magnitude_series",
    "report.analyze_divergence",
    "report.emit_csv",
    "svg.line_chart",
    "cli.main",
)

COUNTERS = (
    ("exact.max_num_digits", "digits"),
    ("contour.oracle_node_products", "count"),
    ("report.emit_csv.bytes", "bytes"),
    ("svg.line_chart.bytes", "bytes"),
)


# Observers take (counters, bound arguments, result or yielded item).


def _max_num_digits(counters, args, vector):
    biggest = max((abs(q.numerator) for q in vector.values), key=int.bit_length)
    key = "exact.max_num_digits"
    counters[key] = max(counters[key], len(str(biggest)))


def _oracle_products(counters, args, oracle):
    # the oracle evaluates the N-factor product at 2M trapezoid nodes
    counters["contour.oracle_node_products"] += 2 * args["spec"].nodes * args["N"]


def _text_bytes(key):
    def observe(counters, args, text):
        counters[key] += len(text.encode())

    return observe


OBSERVERS = {
    "exact.exact_coefficients": _max_num_digits,
    "exact.coefficient_range": _max_num_digits,
    "contour.cauchy_oracle": _oracle_products,
    "report.emit_csv": _text_bytes("report.emit_csv.bytes"),
    "svg.line_chart": _text_bytes("svg.line_chart.bytes"),
}


class Tracer:
    """Spans of one repetition, kept in memory until export()."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record):
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, name, fn):
        """fn with a span around each call (each resumption for a generator)."""
        observer = OBSERVERS.get(name)
        signature = inspect.signature(fn)

        def observe(args, kwargs, result):
            if observer is not None:
                bound = signature.bind(*args, **kwargs).arguments
                observer(self.counters, bound, result)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                self.calls[name] += 1
                items = fn(*args, **kwargs)
                while True:
                    record = self._open(name)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self._close(record)
                    observe(args, kwargs, item)
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            observe(args, kwargs, result)
            return result

        return traced

    def export(self, samples=()) -> dict:
        """The spans, with each (start, end) of samples, time the program
        did not spend, added as a span "calibration" under the innermost
        span that encloses it."""
        return {
            "spans": with_samples(self.spans, samples),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }


def rebind(replacements: dict):
    """Point every binding of a key of replacements, in every loaded radpfd
    module, at its value. Returns a function that undoes it."""
    by_id = {id(old): (old, new) for old, new in replacements.items()}
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "radpfd" or name.startswith("radpfd.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))

    def restore():
        for module, attr, value in undo:
            setattr(module, attr, value)

    return restore


def install(tracer: Tracer):
    """Wrap the public functions of every layer; returns the undo function."""
    replacements = {}
    for layer in LAYERS:
        module = importlib.import_module(f"radpfd.{layer}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                replacements[fn] = tracer.wrap(f"{layer}.{attr}", fn)
    return rebind(replacements)


def with_samples(spans, samples) -> list:
    """spans (ordered by start, properly nested) plus one span per sample."""
    starts = [start for _, start, _, _ in spans]
    result = list(spans)
    for start, end in samples:
        parent = bisect.bisect_right(starts, start) - 1
        while parent >= 0 and spans[parent][2] < end:
            parent = spans[parent][3] if spans[parent][3] is not None else -1
        result.append(["calibration", start, end, parent if parent >= 0 else None])
    return result


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children[index]):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def summary(trace: dict) -> dict:
    """Self time by function and by layer of one traced repetition.

    Spans named ``bench.<step>`` are the harness's own, one per step; what
    they cover outside radpfd's functions is charged to the layer "bench".
    """
    by_function = defaultdict(float)
    by_layer = defaultdict(float)
    for (name, *_), own in zip(trace["spans"], self_times(trace["spans"])):
        by_function[name] += own
        by_layer[name.split(".", 1)[0]] += own
    return {"by_function": dict(by_function), "by_layer": dict(by_layer)}


def layer_metrics(trace: dict) -> dict:
    """The per-layer metrics of one traced repetition, by name."""
    own = summary(trace)
    arc = [end - start for name, start, end, _ in trace["spans"]
           if name == "contour.integral_approx_C"]
    metrics = {}
    for name in REPORTED:
        metrics[name + ".s"] = own["by_function"].get(name, 0.0)
        metrics[name + ".calls"] = trace["calls"].get(name, 0)
    for layer in LAYERS:
        metrics[f"layer.{layer}.s"] = own["by_layer"].get(layer, 0.0)
    metrics["contour.arc_cold_s"] = arc[0] if arc else 0.0
    metrics["contour.arc_warm_s"] = sum(arc[1:]) / (len(arc) - 1) if len(arc) > 1 else 0.0
    for name, _ in COUNTERS:
        metrics[name] = trace["counters"].get(name, 0)
    metrics["trace.spans"] = len(trace["spans"])
    return metrics
