"""Spans recorded around calls into curvlab's public functions, and the
per-layer metrics computed from them.

The tracer patches functions from outside the package: each listed function
is replaced by a timing wrapper in every module namespace that holds it, so
`q_map` is traced whether it is reached as `curvature_core.q_map`,
`potential_flow.q_map` or `suite.q_map`.  Private helpers (`_sharp_mat`,
`_weyl_component`, ...) are not wrapped; their time is charged to the public
function that called them.  `numpy.linalg.svd` and `eigh` are wrapped in the
`numpy.linalg` namespace, which is how curvlab reaches them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Layer:
    """One traced function and the metrics reported for it."""

    module: str
    name: str
    metrics: tuple = ("calls", "self_s")
    dims: tuple = ()  # dimensions n with an `.ms_per_call.n<n>` metric
    weyl_sized: bool = False  # n is read from a Weyl-space-sized matrix

    @property
    def label(self) -> str:
        return f"{self.module}.{self.name}"


LAYERS = (
    Layer("curvature_core", "sharp", dims=(8, 10, 11)),
    Layer("curvature_core", "q_map", dims=(8, 10, 11)),
    Layer("curvature_core", "potential"),
    Layer("curvature_core", "bianchi_project"),
    Layer("curvature_core", "ricci"),
    Layer("curvature_core", "decompose"),
    Layer("spectral_decomp", "weyl_basis", ("calls", "self_s", "misses"), (10, 11, 12)),
    Layer("spectral_decomp", "hessian_matrix", dims=(10, 11, 12)),
    Layer("spectral_decomp", "eigen_report", dims=(10, 11, 12), weyl_sized=True),
    Layer("spectral_decomp", "orbit_tangent_dim"),
    Layer("spectral_decomp", "decomposition_dims"),
    Layer("numpy.linalg", "svd"),
    Layer("numpy.linalg", "eigh"),
    Layer("potential_flow", "flow_run", ("self_s", "total_s")),
    Layer("potential_flow", "flow_step", dims=(11,)),
    Layer("potential_flow", "fixed_point_residual"),
    Layer("lie_basis", "structure_constants", ("calls", "self_s", "misses")),
    Layer("lie_basis", "adjoint_rotation"),
    Layer("symmetry_op", "d2"),
    Layer("model_spaces", "w_cp2"),
    Layer("model_spaces", "sphere_product"),
    Layer("certificate", "alpha0_certificate"),
    Layer("shi_bounds", "shi_constants"),
    Layer("suite", "run_suite", ("self_s", "total_s")),
    Layer("report", "render_report"),
)

UNITS = {"calls": "count", "misses": "count", "self_s": "s", "total_s": "s"}
OVERHEAD = "trace.overhead_s"


def metric_names() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for layer in LAYERS:
        for metric in layer.metrics:
            out[f"{layer.label}.{metric}"] = UNITS[metric]
        for n in layer.dims:
            out[f"{layer.label}.ms_per_call.n{n}"] = "ms"
    out[OVERHEAD] = "s"
    return out


def _wedge_n(size: int):
    n = int(round((1 + (1 + 8 * size) ** 0.5) / 2))
    return n if n * (n - 1) // 2 == size else None


def _weyl_n(size: int):
    for n in range(3, 40):
        if (n - 3) * (n + 2) * (n + 1) * n // 12 == size:
            return n
    return None


def dim_of(args, weyl_sized: bool = False):
    """The dimension n of a call, read from its first argument."""
    if not args:
        return None
    first = args[0]
    if isinstance(first, int):
        return first
    for owner in (first, getattr(first, "w", None)):
        dim = getattr(owner, "dim", None)
        if isinstance(dim, int):
            return dim
    shape = getattr(first, "shape", None)
    if not shape:
        return None
    return (_weyl_n if weyl_sized else _wedge_n)(shape[0])


class Tracer:
    """Records one span per call to each traced function, in memory.

    A span is (id, label, start, end, parent id, thread id, n).  The parent is
    the innermost traced call open on the same thread, so worker threads
    never nest under each other's spans.
    """

    def __init__(self):
        self.spans = []
        self.originals = {}
        self._ids = itertools.count()
        self._local = threading.local()

    def _wrap(self, layer: Layer, fn):
        spans, ids, local = self.spans, self._ids, self._local
        label, weyl_sized = layer.label, layer.weyl_sized
        sized = bool(layer.dims)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            n = dim_of(args, weyl_sized) if sized else None
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, label, start, end, parent, threading.get_ident(), n))

        return traced

    def install(self) -> None:
        """Wrap every layer function in every module namespace that holds it."""
        for layer in LAYERS:
            home_name = layer.module if layer.module == "numpy.linalg" else f"curvlab.{layer.module}"
            home = importlib.import_module(home_name)
            original = getattr(home, layer.name)
            self.originals[layer.label] = original
            traced = self._wrap(layer, original)
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == home_name or mod_name.startswith("curvlab")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)

    def cache_misses(self) -> dict:
        """lru_cache misses of the cached layer functions, by label."""
        return {
            label: fn.cache_info().misses
            for label, fn in self.originals.items()
            if hasattr(fn, "cache_info")
        }


def self_times(spans) -> dict:
    """Self time of each span: its duration minus that of its direct children.

    Children are linked by parent id, which the tracer takes from the calling
    thread's own stack, so spans of concurrent threads never subtract from
    each other even when their intervals overlap.
    """
    covered = defaultdict(float)
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return {span[0]: (span[3] - span[2]) - covered[span[0]] for span in spans}


def layer_metrics(spans, misses: dict) -> dict:
    """Per-layer metrics (without the overhead) as {name: value}.

    `.ms_per_call.n<n>` is the mean inclusive duration of the calls at that n,
    0 when the workload makes none.  For lru_cached functions only the calls
    that missed count: those that started before any call at the same n ended.
    """
    selfs = self_times(spans)
    by_label = defaultdict(list)
    for span in spans:
        by_label[span[1]].append(span)
    out = {}
    for layer in LAYERS:
        rows = by_label[layer.label]
        for metric in layer.metrics:
            if metric == "calls":
                value = len(rows)
            elif metric == "self_s":
                value = sum((selfs[row[0]] for row in rows), 0.0)
            elif metric == "total_s":
                value = sum((row[3] - row[2] for row in rows), 0.0)
            else:
                value = misses.get(layer.label, 0)
            out[f"{layer.label}.{metric}"] = value
        for n in layer.dims:
            at_n = [row for row in rows if row[6] == n]
            if at_n and "misses" in layer.metrics:
                first_end = min(row[3] for row in at_n)
                at_n = [row for row in at_n if row[2] <= first_end]
            durations = [row[3] - row[2] for row in at_n]
            out[f"{layer.label}.ms_per_call.n{n}"] = (
                1e3 * statistics.fmean(durations) if durations else 0.0
            )
    return out
