"""Outside-in layer tracing for the traced benchmark run.

Every traced function of the hyperconn package is replaced, at every place
it is bound (the defining module, each module that imported it by name, the
package namespace and class aliases such as ``__rmul__ = __mul__``), by a
wrapper that records a span or a count. Nothing under ``src/`` changes.

A span records calls and self time: its duration minus the time covered by
the spans it caused. A count records calls only; its time stays in the self
time of the enclosing span. Spans are kept in memory and summarised when
the traced pass ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import types
from time import perf_counter


def _division(args, result, stats):
    p, f = args[0], args[1]
    quotient, remainder = result
    stats.sizes_in.append(len(p.terms))
    stats.sizes_out.append(len(remainder.terms))
    stats.work += len(quotient.terms) * (len(f.terms) - 1)


def _poly_mul(args, result, stats):
    left, right = args
    stats.work += len(left.terms) * (len(right.terms) if hasattr(right, "terms") else 1)


def _matrix_mul(args, result, stats):
    left, right = args
    if hasattr(right, "entries"):
        stats.work += sum(len(e.rep.terms) for e in left.entries + right.entries)
        stats.entries += len(left.entries) + len(right.entries)


_CLI_JSON_DUMPS = "hyperconn.cli:json.dumps"

# (layer, kind, bindings, measure, per-layer metrics beyond calls/self_s).
# A binding is "module:attr" or "module:Class.attr"; _CLI_JSON_DUMPS is
# json.dumps as the cli module sees it.
LAYERS = (
    ("polycore.divide_remainder", "span", ("hyperconn.polycore:divide_remainder",), _division,
     ("terms_in", "terms_in_max", "terms_out", "term_updates")),
    ("polycore.grevlex_key", "count", ("hyperconn.polycore:MonomialOrder.key",), None, ()),
    ("polycore.qi_mul", "count", ("hyperconn.polycore:GaussianRational.__mul__",), None, ()),
    ("polycore.qi_div", "count", ("hyperconn.polycore:GaussianRational.__truediv__",), None, ()),
    ("polycore.mul", "span", ("hyperconn.polycore:Polynomial.__mul__",), _poly_mul, ("term_pairs",)),
    ("polycore.parse", "span", ("hyperconn.polycore:parse",), None, ()),
    ("polycore.str", "span", ("hyperconn.polycore:Polynomial.__str__",), None, ()),
    ("quotient.nf", "span", ("hyperconn.quotient:QuotientRing.nf",), None, ()),
    ("quotient.element_mul", "span", ("hyperconn.quotient:RingElement.__mul__",), None, ()),
    ("matring.mul", "span", ("hyperconn.matring:MatrixA.__mul__",), _matrix_mul, ("entry_terms_in",)),
    ("matring.mul_vector", "span", ("hyperconn.matring:MatrixA.mul_vector",), None, ()),
    ("matring.rank_at_point", "span", ("hyperconn.matring:MatrixA.rank_at_point",), None, ()),
    ("deriv.apply_to_matrix", "span", ("hyperconn.deriv:Derivation.apply_to_matrix",), None, ()),
    ("deriv.apply_to_vector", "span", ("hyperconn.deriv:Derivation.apply_to_vector",), None, ()),
    ("deriv.bracket", "span", ("hyperconn.deriv:bracket",), None, ()),
    ("deriv.modulus_image", "span", ("hyperconn.deriv:Derivation.modulus_image",), None, ()),
    ("conn.curvature_matrix", "span", ("hyperconn.conn:curvature_matrix",), None, ()),
    ("conn.curvature_report", "span", ("hyperconn.conn:curvature_report",), None, ()),
    ("conn.modified_curvature", "span", ("hyperconn.conn:modified_curvature",), None, ()),
    ("conn.operator_commutator_matrix", "span", ("hyperconn.conn:operator_commutator_matrix",),
     None, ()),
    ("conn.connection_apply", "span", ("hyperconn.conn:connection_apply",), None, ()),
    ("conn.make_presentation", "span", ("hyperconn.conn:make_presentation",), None, ()),
    ("conn.deviation_report", "span", ("hyperconn.conn:deviation_report",), None, ()),
    ("conn.trace_over_image", "count", ("hyperconn.conn:trace_over_image",), None, ()),
    ("conn.trace_over_kernel", "count", ("hyperconn.conn:trace_over_kernel",), None, ()),
    ("catalog.build", "span",
     ("hyperconn.catalog:build_ellipsoid_cotangent", "hyperconn.catalog:build_sphere_line_bundle"),
     None, ()),
    ("catalog.reference_expected", "span", ("hyperconn.catalog:reference_expected",), None, ()),
    ("cli.run_verification", "span", ("hyperconn.cli:run_verification",), None, ()),
    ("cli.render", "span",
     ("hyperconn.cli:VerificationReport.to_json", "hyperconn.cli:_render_verification",
      _CLI_JSON_DUMPS),
     None, ()),
)

UNITS = {
    "calls": "calls/op",
    "self_s": "s/op",
    "terms_in": "terms",
    "terms_in_max": "terms",
    "terms_out": "terms",
    "term_updates": "updates/op",
    "term_pairs": "pairs/op",
    "entry_terms_in": "terms",
}


def metric_names():
    """Every per-layer metric name the traced run reports, in order."""
    names = []
    for layer, kind, _, _, extras in LAYERS:
        names.append(f"{layer}.calls")
        if kind == "span":
            names.append(f"{layer}.self_s")
        names.extend(f"{layer}.{extra}" for extra in extras)
    return names + ["trace.coverage", "trace.overhead_frac"]


class _Stats:
    __slots__ = ("calls", "self_s", "sizes_in", "sizes_out", "work", "entries")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.sizes_in = []
        self.sizes_out = []
        self.work = 0
        self.entries = 0


def _hyperconn_namespaces():
    """Every module of the package and every class defined in one."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "hyperconn" or name.startswith("hyperconn.")]
    classes = []
    for module in modules:
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith("hyperconn"):
                if value not in classes:
                    classes.append(value)
    return modules, classes


def _resolve(binding):
    module_name, path = binding.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Installs span and count wrappers; collects per-layer statistics."""

    def __init__(self):
        self.stats = {layer: _Stats() for layer, *_ in LAYERS}
        self.stack = []  # child-time accumulators of the open spans
        self.top_s = 0.0  # time covered by outermost spans
        self._undo = []

    def _span(self, layer, fn, measure):
        stats = self.stats[layer]
        stack = self.stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_s += elapsed
            if measure is not None:
                measure(args, result, stats)
            return result

        return wrapper

    def _count(self, layer, fn):
        stats = self.stats[layer]

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if result is not NotImplemented:
                stats.calls += 1
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every binding of every traced function.

        Raises RuntimeError when a binding has disappeared, or when an
        original function is still reachable from the package afterwards,
        so that calls through a missed binding cannot go silently uncounted;
        call uninstall() then as after a successful install.
        """
        modules, classes = _hyperconn_namespaces()
        originals = []
        for layer, kind, bindings, measure, _ in LAYERS:
            for binding in bindings:
                try:
                    owner, attr, original = _resolve(binding)
                except (AttributeError, KeyError, ImportError) as err:
                    raise RuntimeError(f"traced binding {binding} not found: {err}") from err
                wrapper = (self._span(layer, original, measure) if kind == "span"
                           else self._count(layer, original))
                if binding == _CLI_JSON_DUMPS:
                    # the cli module reaches json.dumps through its own json binding
                    shim = types.ModuleType("json")
                    shim.__dict__.update(vars(json))
                    shim.dumps = wrapper
                    self._set(sys.modules["hyperconn.cli"], "json", shim)
                    continue
                originals.append((binding, original))
                for namespace in modules + classes:
                    for name, value in list(vars(namespace).items()):
                        if value is original:
                            self._set(namespace, name, wrapper)
        for binding, original in originals:
            for namespace in modules + classes:
                for name, value in vars(namespace).items():
                    if value is original:
                        raise RuntimeError(
                            f"{namespace.__name__}.{name} still binds the untraced {binding}"
                        )

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self, ops: int, op_seconds: float, overhead_frac: float) -> dict:
        """Per-layer metrics for a traced pass of ``ops`` operations."""
        out = {}
        for layer, kind, _, _, extras in LAYERS:
            stats = self.stats[layer]
            out[f"{layer}.calls"] = stats.calls / ops
            if kind == "span":
                out[f"{layer}.self_s"] = stats.self_s / ops
            values = {
                "terms_in": statistics.median(stats.sizes_in) if stats.sizes_in else 0,
                "terms_in_max": max(stats.sizes_in, default=0),
                "terms_out": statistics.median(stats.sizes_out) if stats.sizes_out else 0,
                "term_updates": stats.work / ops,
                "term_pairs": stats.work / ops,
                "entry_terms_in": stats.work / stats.entries if stats.entries else 0,
            }
            for extra in extras:
                out[f"{layer}.{extra}"] = values[extra]
        out["trace.coverage"] = self.top_s / op_seconds
        out["trace.overhead_frac"] = overhead_frac
        return out
