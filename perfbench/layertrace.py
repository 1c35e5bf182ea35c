"""Per-layer tracing for the benchmark, done entirely from outside the library.

Each layer entry point is replaced, in every ``qhyp`` module namespace that
binds it, by a wrapper that records a span (name, start, end, parent span,
query id) and the layer's work counters.  Names imported with ``from x import
f`` are separate bindings, so patching only the defining module would miss
calls made through ``solver.rho_length`` or ``cli.beta_field``; methods are
patched on every class that defines them.  An entry point that no longer
exists is reported as absent instead of failing the run.

Spans stay in memory while the run is measured and are written out at the
end.  A span's self time is its duration minus the durations of its direct
children, so the self times of a root span and all its descendants add up to
the root's duration.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (metric prefix, defining module, attribute, index of the array argument whose
# size is counted as ``points``, or None).  "Class.method" patches the method
# on the class and on every subclass in the module that redefines it.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[int]], ...] = (
    ("domains.delta_field", "qhyp.domains", "Domain.delta_field", 1),
    ("domains.chordal_boundary_distance_field", "qhyp.domains",
     "Domain.chordal_boundary_distance_field", 1),
    ("domains.rho_length", "qhyp.domains", "rho_length", None),
    ("geometry.segment_point_distance", "qhyp.geometry", "segment_point_distance", 0),
    ("beta.beta_field", "qhyp.beta", "beta_field", 1),
    ("beta.up_modulus_sup", "qhyp.beta", "up_modulus_sup", None),
    ("densities.h_interval", "qhyp.densities", "h_interval", None),
    ("densities._bp_arc_upper", "qhyp.densities", "_bp_arc_upper", None),
    ("solver._build_graph", "qhyp.solver", "_build_graph", None),
    ("solver._shortest_path", "qhyp.solver", "_shortest_path", None),
    ("solver._relax_path", "qhyp.solver", "_relax_path", None),
    ("solver.k_numeric", "qhyp.solver", "k_numeric", None),
    ("solver.k_chordal_numeric", "qhyp.solver", "k_chordal_numeric", None),
    ("solver.k_interval_fast", "qhyp.solver", "k_interval_fast", None),
    ("equivalence.build_global_qi_map", "qhyp.equivalence", "build_global_qi_map", None),
    ("equivalence.verify_rough_isometry", "qhyp.equivalence", "verify_rough_isometry", None),
    ("cli.heatmap", "qhyp.cli", "_cmd_heatmap", None),
)

# Called tens of thousands of times per solve: counted, never timed.
COUNT_ONLY = (("domains.complement_components", "qhyp.domains",
               "Domain.complement_components"),)

# The counters each entry point reports besides calls, s, self_s and raised.
EXTRA_COUNTERS = {
    "domains.rho_length": ("density_points", "ok_frac"),
    "densities.h_interval": ("upper_inf",),
    "cli.heatmap": ("csv_bytes",),
}
DERIVED = ("solver.graph.nodes", "solver.graph.edges", "solver.relax.sweeps",
           "solver.relax.budget_frac", "solver.path.vertices")


def metric_names() -> List[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names: List[str] = []
    for prefix, _, _, points_arg in ENTRY_POINTS:
        names += [f"{prefix}.calls", f"{prefix}.s", f"{prefix}.self_s", f"{prefix}.raised"]
        if points_arg is not None:
            names.append(f"{prefix}.points")
        names += [f"{prefix}.{c}" for c in EXTRA_COUNTERS.get(prefix, ())]
    names += [f"{prefix}.calls" for prefix, _, _ in COUNT_ONLY]
    names += list(DERIVED)
    names += ["trace.spans", "trace.absent", "trace.overhead_frac"]
    return names


def unit(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def _qhyp_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qhyp" or name.startswith("qhyp."))]


def _unwrap(value):
    try:
        return inspect.unwrap(value)
    except ValueError:
        return value


def resolve(entry_attr: str, module_name: str):
    """The original callable of an entry point, or None when it is gone."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    if "." in entry_attr:
        cls_name, meth = entry_attr.split(".", 1)
        cls = getattr(module, cls_name, None)
        fn = getattr(cls, "__dict__", {}).get(meth)
    else:
        fn = getattr(module, entry_attr, None)
    return fn if callable(fn) else None


def absent_entry_points() -> List[str]:
    """Entry points (timed and counted) that do not resolve in the library."""
    out = [p for p, mod, attr, _ in ENTRY_POINTS if resolve(attr, mod) is None]
    out += [p for p, mod, attr in COUNT_ONLY if resolve(attr, mod) is None]
    return out


class Tracer:
    """Patches the entry points on ``install`` and restores them on ``remove``."""

    def __init__(self) -> None:
        # span: [name, start_ns, end_ns, parent index, query id, raised]
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        # the same counters split by query id
        self.by_query: Dict[Optional[str], Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.query: Optional[str] = None
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        self.absent = absent_entry_points()
        for prefix, mod, attr, points_arg in ENTRY_POINTS:
            self._patch(mod, attr, lambda fn, p=prefix, a=points_arg: self._timed(p, fn, a))
        for prefix, mod, attr in COUNT_ONLY:
            self._patch(mod, attr, lambda fn, p=prefix: self._counted(p, fn))

    def remove(self) -> None:
        for target, name, previous in reversed(self._patches):
            setattr(target, name, previous)
        self._patches.clear()

    def _patch(self, mod: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = resolve(attr, mod)
        if original is None:
            return
        if "." in attr:
            cls_name, meth = attr.split(".", 1)
            base = getattr(sys.modules[mod], cls_name)
            targets = [cls for m in _qhyp_modules() for cls in vars(m).values()
                       if isinstance(cls, type) and issubclass(cls, base)
                       and meth in cls.__dict__]
            for cls in dict.fromkeys(targets):
                self._replace(cls, meth, make(cls.__dict__[meth]))
            return
        for m in _qhyp_modules():
            for name, value in list(vars(m).items()):
                if callable(value) and _unwrap(value) is original:
                    self._replace(m, name, make(value))

    def _replace(self, target, name: str, wrapper) -> None:
        self._patches.append((target, name, target.__dict__[name]))
        setattr(target, name, wrapper)

    # -- wrappers ---------------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.counters[key] += value
        self.by_query[self.query][key] += value

    def _counted(self, prefix: str, fn: Callable) -> Callable:
        add = self.add
        key = prefix + ".calls"

        def wrapper(*args, **kwargs):
            add(key, 1)
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _timed(self, prefix: str, fn: Callable, points_arg: Optional[int]) -> Callable:
        spans, stack, add = self.spans, self._stack, self.add
        clock = time.perf_counter_ns
        on_result = _RESULT_HOOKS.get(prefix)
        is_rho = prefix == "domains.rho_length"

        def wrapper(*args, **kwargs):
            if points_arg is not None and len(args) > points_arg:
                add(prefix + ".points", _size(args[points_arg]))
            if is_rho:
                args, kwargs = _count_density(args, kwargs, add)
            idx = len(spans)
            span = [prefix, 0, 0, stack[-1] if stack else -1, self.query, False]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(add, args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ------------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Aggregate the spans and counters into the per-layer metrics, except
        ``trace.overhead_frac``, which the caller measures."""
        child_ns = self._child_ns()
        out: Dict[str, float] = {name: 0.0 for name in metric_names()}
        for i, (name, start, end, parent, _, raised) in enumerate(self.spans):
            dur = end - start
            out[name + ".calls"] += 1
            out[name + ".self_s"] += (dur - child_ns[i]) * 1e-9
            out[name + ".raised"] += raised
            if not self._inside_same(i):
                out[name + ".s"] += dur * 1e-9
        for key, value in self.counters.items():
            if key in out:
                out[key] = value
        calls = out["domains.rho_length.calls"]
        out["domains.rho_length.ok_frac"] = (
            (calls - out["domains.rho_length.raised"]) / calls if calls else 0.0)
        budget = self.counters.get("solver.relax.budget", 0.0)
        out["solver.relax.budget_frac"] = out["solver.relax.sweeps"] / budget if budget else 0.0
        out["trace.spans"] = float(len(self.spans))
        out["trace.absent"] = float(len(self.absent))
        out.pop("trace.overhead_frac")
        return out

    def _child_ns(self) -> List[int]:
        """Per span, the summed durations of its direct children."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return child_ns

    def _inside_same(self, i: int) -> bool:
        name, parent = self.spans[i][0], self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def self_time_residuals(self) -> List[int]:
        """For each root span, its duration minus the summed self times of
        itself and all its descendants, in nanoseconds (zero when consistent)."""
        child_ns = self._child_ns()
        root_of: List[int] = []
        residual: Dict[int, int] = {}
        for i, (_, start, end, parent, _, _) in enumerate(self.spans):
            root = i if parent < 0 else root_of[parent]
            root_of.append(root)
            if root == i:
                residual[i] = end - start
            residual[root] -= (end - start) - child_ns[i]
        return list(residual.values())

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,query,raised\n")
            for name, start, end, parent, query, raised in self.spans:
                fh.write(f"{name},{start},{end},{parent},{query},{int(raised)}\n")


def _size(value) -> int:
    size = getattr(value, "size", None)
    return int(size) if isinstance(size, int) else 1


def _count_density(args, kwargs, add):
    """Wrap rho_length's density argument so that every point it evaluates
    is counted."""
    def counting(density):
        def rho(z):
            add("domains.rho_length.density_points", _size(z))
            return density(z)
        return rho
    if "density" in kwargs:
        kwargs = dict(kwargs, density=counting(kwargs["density"]))
    elif len(args) > 1:
        args = (args[0], counting(args[1])) + tuple(args[2:])
    return args, kwargs


def _graph_meta(add, args, kwargs, result):
    try:
        meta = result[3]
        add("solver.graph.nodes", meta["nodes"])
        add("solver.graph.edges", meta["edges"])
    except (TypeError, KeyError, IndexError):
        pass


def _relax_meta(add, args, kwargs, result):
    try:
        res = kwargs.get("res", args[3] if len(args) > 3 else None)
        add("solver.relax.budget", res.relax_sweeps)
        add("solver.relax.sweeps", result[1])
    except (TypeError, AttributeError, IndexError):
        pass


def _path_meta(add, args, kwargs, result):
    try:
        add("solver.path.vertices", len(result.path))
    except (TypeError, AttributeError):
        pass


def _h_meta(add, args, kwargs, result):
    upper = getattr(result, "upper", 0.0)
    if isinstance(upper, float) and math.isinf(upper):
        add("densities.h_interval.upper_inf", 1)


def _heatmap_meta(add, args, kwargs, result):
    out = getattr(args[0], "out", None) if args else None
    if out and os.path.exists(out):
        add("cli.heatmap.csv_bytes", os.path.getsize(out))


_RESULT_HOOKS = {
    "solver._build_graph": _graph_meta,
    "solver._relax_path": _relax_meta,
    "solver.k_numeric": _path_meta,
    "solver.k_chordal_numeric": _path_meta,
    "densities.h_interval": _h_meta,
    "cli.heatmap": _heatmap_meta,
}
