"""Span tracer for the traced run, installed from the benchmark's side.

``Tracer.install()`` replaces each public function listed in ``LAYERS`` by a
wrapper that records a span (name, layer, parent, start, end) and, for a
few calls, counters read off the arguments and results.  Because modules
bind each other's names at import (``from .intmat import ...``), the wrapper
replaces every reference to the original function in every ``leavitt``
module; ``uninstall()`` puts the originals back.  The program's source is
not touched.

Spans are timed in CPU seconds of this process (``time.process_time``);
the summaries scale each operation's spans by its probe factor (clock.py),
as the end-to-end metrics are.  A span's self time is its duration minus
the durations of its direct children.  The root span of each operation
belongs to the layer ``bench``; its self time is the benchmark's glue plus
the wrappers' cost, reported as ``trace.unattributed_s``.  Counting runs in
spans of the layer ``trace``.  So the self times of an operation's spans
add up to its time exactly.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# layer -> public callables, as "module:attribute" or "module:Class.method"
LAYERS = {
    "graphs": (
        "graphs:parse_graph", "graphs:build_graph", "graphs:adjacency_matrix",
        "graphs:purely_infinite_simple", "graphs:every_cycle_has_exit",
        "graphs:trivial_hereditary_saturated", "graphs:every_vertex_connects_to_cycle",
    ),
    "intmat": (
        "intmat:smith_normal_form", "intmat:determinant", "intmat:unimodular_check",
        "intmat:IntMatrix.__matmul__",
    ),
    "ktheory": ("ktheory:k0_of_graph", "ktheory:cokernel"),
    "abelian": (
        "abelian:element_order", "abelian:automorphism_maps_x_to_y",
        "abelian:eigen_search", "abelian:gcd_criterion", "abelian:scale",
    ),
    "matrixtype": (
        "matrixtype:m_graph", "matrixtype:compare_pointed_k0",
        "matrixtype:pointed_iso_exists", "matrixtype:matrix_type_classes",
        "matrixtype:matrix_type_equal", "matrixtype:matrix_type_verdict",
    ),
    "cli": ("cli:main",),
}
LAYER_NAMES = tuple(LAYERS)

# per-layer metric -> the spans it sums (outermost occurrences only)
TIMED = {
    "graphs.parse_s": ("parse_graph",),
    "graphs.pis_s": ("purely_infinite_simple",),
    "graphs.hereditary_saturated_s": ("trivial_hereditary_saturated",),
    "graphs.cycle_exit_s": ("every_cycle_has_exit",),
    "graphs.connects_to_cycle_s": ("every_vertex_connects_to_cycle",),
    "intmat.snf_s": ("smith_normal_form",),
    "intmat.matmul_s": ("__matmul__",),
    "ktheory.k0_s": ("k0_of_graph",),
    "matrixtype.compare_s": ("compare_pointed_k0",),
    "matrixtype.pointed_iso_s": ("pointed_iso_exists",),
    "matrixtype.mgraph_s": ("m_graph",),
    "matrixtype.verdict_s": ("matrix_type_classes", "matrix_type_equal", "matrix_type_verdict"),
}
ORBIT_QUERIES = ("pointed_iso_exists", "automorphism_maps_x_to_y")
COUNTED = ("smith_normal_form", "k0_of_graph") + ORBIT_QUERIES


def _max_bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


class Tracer:
    def __init__(self):
        # span: [name, layer, parent index, start, end, children duration, op]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self.counters = {
            "intmat.snf_calls": 0,
            "intmat.transform_bits_max": 0,
            "intmat.diagonal_bits_max": 0,
            "ktheory.k0_calls": 0,
            "abelian.orbit_queries": 0,
            "abelian.group_size_max": 0,
        }
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, parent, 0.0, 0.0, 0.0, self._op])
        self._stack.append(index)
        return index

    def _leave(self, index: int, start: float, end: float) -> None:
        span = self.spans[index]
        span[3], span[4] = start, end
        self._stack.pop()
        if span[2] >= 0:
            self.spans[span[2]][5] += end - start

    def operation(self, op: int, fn):
        """Run fn() as operation op under a root span and return its result."""
        self._op = op
        index = self._enter("operation", "bench")
        start = time.process_time()
        try:
            return fn()
        finally:
            self._leave(index, start, time.process_time())

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._enter(name, layer)
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                tracer._leave(index, start, end)
            if name in COUNTED:
                # counting is the tracer's own cost: give it a span of its own
                tracer._count(name, args, result)
                tracer._leave(tracer._enter("counters", "trace"), end, time.process_time())
            return result

        return traced

    def _count(self, name: str, args, result) -> None:
        c = self.counters
        if name == "smith_normal_form":
            c["intmat.snf_calls"] += 1
            c["intmat.transform_bits_max"] = max(
                c["intmat.transform_bits_max"], _max_bits(result.U), _max_bits(result.V)
            )
            c["intmat.diagonal_bits_max"] = max(
                c["intmat.diagonal_bits_max"], _max_bits([result.diagonal])
            )
        elif name == "k0_of_graph":
            c["ktheory.k0_calls"] += 1
        elif name in ORBIT_QUERIES:
            c["abelian.orbit_queries"] += 1
            c["abelian.group_size_max"] = max(
                c["abelian.group_size_max"], args[0].torsion_size
            )

    # -- installing ----------------------------------------------------------

    def install(self, package) -> None:
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
        ]
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, attr = target.split(":")
                module = sys.modules[f"{package.__name__}.{module_name}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[method]
                    self._set(owner, method, self._wrap(layer, method, original), original)
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(layer, attr, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, key, wrapper, original)

    def _set(self, owner, key: str, value, original) -> None:
        self._saved.append((owner, key, original))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- summaries -----------------------------------------------------------

    def self_times(self, weights) -> dict[str, float]:
        """Self time per layer; the spans of operation i count weights[i] times."""
        out = {layer: 0.0 for layer in ("bench", "trace") + LAYER_NAMES}
        for span in self.spans:
            out[span[1]] += ((span[4] - span[3]) - span[5]) * weights[span[6]]
        return out

    def timed(self, weights) -> dict[str, float]:
        """TIMED metrics; the spans of operation i count weights[i] times."""
        names = {n: metric for metric, group in TIMED.items() for n in group}
        out = {metric: 0.0 for metric in TIMED}
        for span in self.spans:
            metric = names.get(span[0])
            if metric is None:
                continue
            parent = span[2]
            nested = False
            while parent >= 0:
                if names.get(self.spans[parent][0]) == metric:
                    nested = True
                    break
                parent = self.spans[parent][2]
            if not nested:
                out[metric] += (span[4] - span[3]) * weights[span[6]]
        return out

    def operation_gap(self) -> float:
        """Largest |operation time - sum of its spans' self times| (rounding only)."""
        self_sum: dict[int, float] = {}
        total: dict[int, float] = {}
        for span in self.spans:
            self_sum[span[6]] = self_sum.get(span[6], 0.0) + (span[4] - span[3]) - span[5]
            if span[1] == "bench":
                total[span[6]] = span[4] - span[3]
        return max((abs(total[op] - self_sum[op]) for op in total), default=0.0)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "layer", "parent", "start", "end", "children_s", "op"],
                 "spans": self.spans},
                fh,
            )
