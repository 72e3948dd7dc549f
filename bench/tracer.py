"""Span tracer that times the centrotensor layers from outside.

Installing the tracer replaces every public function of each layer module
with a wrapper that records a span (name, start, end, parent span, op).
The same wrapper is bound under every name that refers to the function,
in the package namespace and in every module that imported it, so a call
made from inside the library (``eigen.apply`` reaching ``core.apply``)
gets its caller's span as parent.  No file of the library changes.

Spans stay in memory; ``write`` dumps them as JSON lines at the end of a
run and ``metrics`` folds them into the per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import defaultdict

LAYERS = ("core", "structure", "product", "cauchy", "inverse", "eigen", "serialize", "suite", "cli")

# (metric name, unit); the order is the order of the report.
PER_LAYER = (
    ("eigen.solve_eigen.calls", "count"),
    ("eigen.solve_eigen.busy_s", "s"),
    ("eigen.self_s", "s"),
    ("eigen.ms_per_start", "ms"),
    ("eigen.reflect_pair.busy_s", "s"),
    ("eigen.starts", "count"),
    ("eigen.converged", "count"),
    ("eigen.converged_ratio", "ratio"),
    ("eigen.pairs", "count"),
    ("core.apply.calls", "count"),
    ("core.apply.busy_s", "s"),
    ("core.reverse_tensor.busy_s", "s"),
    ("core.self_s", "s"),
    ("structure.check_structure.calls", "count"),
    ("structure.check_structure.busy_s", "s"),
    ("structure.check_via_J.busy_s", "s"),
    ("structure.check_commutation.busy_s", "s"),
    ("structure.decompose.busy_s", "s"),
    ("structure.random_structured.busy_s", "s"),
    ("structure.self_s", "s"),
    ("product.shao_product.calls", "count"),
    ("product.shao_product.busy_s", "s"),
    ("product.shao_product.flops", "flop"),
    ("product.shao_product.bytes", "B"),
    ("product.self_s", "s"),
    ("cauchy.validate_spec.busy_s", "s"),
    ("cauchy.materialize.busy_s", "s"),
    ("cauchy.multisets", "count"),
    ("cauchy.self_s", "s"),
    ("inverse.busy_s", "s"),
    ("inverse.self_s", "s"),
    ("serialize.dumps.busy_s", "s"),
    ("serialize.dumps.bytes", "B"),
    ("serialize.tensor_from_obj.busy_s", "s"),
    ("serialize.self_s", "s"),
    ("suite.verify_all.busy_s", "s"),
    ("suite.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.busy_s", "s"),
    ("cli.self_s", "s"),
)


def _count_solver(counts, args, kwargs, result):
    counts["eigen.starts"] += result.stats.attempted
    counts["eigen.converged"] += result.stats.converged
    counts["eigen.pairs"] += len(result.pairs)


def _count_multisets(counts, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    counts["cauchy.multisets"] += math.comb(spec.dim + spec.order - 1, spec.order)


def _count_product(counts, args, kwargs, result):
    # Computed from shapes, not measured: the product contracts one
    # trailing slot of A at a time against B flattened to (n, n^(k-1)),
    # one multiply-add (2 flops) per term; bytes are operands plus result.
    a, b = args[0], args[1]
    n, m, k = a.dim, a.order, b.order
    counts["product.shao_product.flops"] += sum(
        2 * n ** (1 + (k - 1) * t + (m - 1 - t) + 1) for t in range(1, m)
    )
    counts["product.shao_product.bytes"] += 8 * (a.data.size + b.data.size + result.data.size)


def _count_dumps(counts, args, kwargs, result):
    counts["serialize.dumps.bytes"] += len(result)


OBSERVERS = {
    "eigen.solve_eigen": _count_solver,
    "cauchy.validate_spec": _count_multisets,
    "product.shao_product": _count_product,
    "serialize.dumps": _count_dumps,
}


class Tracer:
    """Records nested spans of wrapped library calls, tagged by benchmark op."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op index]
        self.counts = defaultdict(float)
        self.op = -1
        self._stack = []

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every public function of every layer, under all its names."""
        package = importlib.import_module("centrotensor")
        modules = [importlib.import_module(f"centrotensor.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    wrapped[value] = self._wrap(f"{layer}.{attr}", value)
        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
        return self

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(
                    json.dumps({"id": index, "name": name, "start": start, "end": end,
                                "parent": parent, "op": op}) + "\n"
                )

    def metrics(self) -> dict:
        spans = self.spans
        calls = defaultdict(int)
        busy = defaultdict(float)
        layer_busy = defaultdict(float)
        layer_self = defaultdict(float)
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, _) in enumerate(spans):
            layer = name.split(".", 1)[0]
            duration = end - start
            calls[name] += 1
            layer_self[layer] += duration - child_time[index]
            # Busy time counts a nested call of the same function (or, for a
            # layer, of the same layer) once, through its outermost span.
            same_name = same_layer = False
            while parent >= 0 and not same_name:
                parent_name = spans[parent][0]
                same_name = parent_name == name
                same_layer = same_layer or parent_name.split(".", 1)[0] == layer
                parent = spans[parent][3]
            if not same_name:
                busy[name] += duration
            if not same_layer:
                layer_busy[layer] += duration

        counts = self.counts
        starts = counts["eigen.starts"]
        values = {
            "eigen.ms_per_start": 1000.0 * busy["eigen.solve_eigen"] / starts if starts else 0.0,
            "eigen.converged_ratio": counts["eigen.converged"] / starts if starts else 0.0,
            "inverse.busy_s": layer_busy["inverse"],
        }
        out = {}
        for metric, unit in PER_LAYER:
            head, _, tail = metric.rpartition(".")
            if metric in values:
                value = values[metric]
            elif tail == "calls":
                value = calls[head]
            elif tail == "self_s":
                value = layer_self[head]
            elif tail == "busy_s":
                value = busy[head]
            else:
                value = counts[metric]
            out[metric] = {"value": value, "unit": unit}
        return out
