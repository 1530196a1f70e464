"""Per-layer counters installed from outside the program.

``install()`` replaces the public functions of each ``kodaira`` module with
wrappers, in every ``kodaira`` module that imported them (``from .exactfield
import d_form`` makes a second reference that must be replaced too).  A
wrapped function records a span: its call count, each call's duration, and
its module's self time (the span's duration less the time of the spans and
ring operations it called).  The ring operators on ``NumberValue`` are too
frequent for spans: they record only a count and a total time, which counts
as ``exactfield`` self time.  An operator called inside another (``a - b``
calls ``a + (-b)``) belongs to the outer one.

Nothing is recorded while ``Tracer.on`` is false, so set-up and checking
stay out of the numbers.
"""

from __future__ import annotations

import statistics
import sys
from array import array
from time import perf_counter

LAYERS = {
    "exactfield": ("decompose", "d_form", "in_lattice", "smith_normal_form", "from_payload"),
    "pi1": ("star", "to_affine"),
    "surface": ("torsion_coefficient", "sl2_reduce", "normalize_c", "is_isomorphic", "moduli_point"),
    "lifts": ("compose", "invert", "descent_check", "power", "z_coefficient", "conjugate_deck",
              "factor_semidirect", "classify_kernel", "order_n_lift"),
    "forms": ("wedge", "substitute", "dolbeault_action", "rho", "verify_invariant_generators"),
    "fixedlocus": ("fixed_locus", "base_fixed_points"),
    "cli": ("parse_scene", "main"),
}

# ring operation -> the NumberValue methods that perform it
RING_OPS = {
    "mul": ("__mul__", "__rmul__"),
    "add": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"),
    "divide": ("__truediv__",),
}


def metric_names():
    """Every per-layer metric name with its unit, in a fixed order."""
    out = []
    for module, fns in LAYERS.items():
        extra = ("mul", "add", "divide") if module == "exactfield" else ()
        for fn in extra + fns:
            out += [(f"{module}.{fn}.calls", "count"), (f"{module}.{fn}.us", "us")]
        out.append((f"{module}.self_ms", "ms"))
    out.append(("cli.import_ms", "ms"))
    return out


class Tracer:
    def __init__(self):
        self.on = False
        self.stack = []          # child time accumulated by each open span
        self.ring_depth = 0
        self.durations = {}      # "module.fn" -> array of seconds
        self.ring_calls = {name: 0 for name in RING_OPS}
        self.ring_time = {name: 0.0 for name in RING_OPS}
        self.self_time = {module: 0.0 for module in LAYERS}

    def span(self, module, fn, f):
        durations = self.durations.setdefault(f"{module}.{fn}", array("d"))
        stack, self_time = self.stack, self.self_time

        def wrapper(*args, **kwargs):
            if not self.on:
                return f(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_time[module] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                durations.append(dt)
        return wrapper

    def ring(self, name, f):
        stack = self.stack

        def wrapper(*args):
            if not self.on or self.ring_depth:
                return f(*args)
            self.ring_depth = 1
            t0 = perf_counter()
            try:
                return f(*args)
            finally:
                dt = perf_counter() - t0
                self.ring_depth = 0
                self.ring_calls[name] += 1
                self.ring_time[name] += dt
                self.self_time["exactfield"] += dt
                if stack:
                    stack[-1] += dt
        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "kodaira"]
        for module, fns in LAYERS.items():
            mod = sys.modules[f"kodaira.{module}"]
            for fn in fns:
                _replace(modules, getattr(mod, fn), self.span(module, fn, getattr(mod, fn)))
        ef = sys.modules["kodaira.exactfield"]
        _replace(modules, ef.divide, self.ring("divide", ef.divide))
        cls = ef.NumberValue
        for name, methods in RING_OPS.items():
            for meth in methods:
                setattr(cls, meth, self.ring(name, getattr(cls, meth)))

    def metrics(self, ops, import_s):
        out = {}
        for module, fns in LAYERS.items():
            if module == "exactfield":
                for name in RING_OPS:
                    n = self.ring_calls[name]
                    out[f"exactfield.{name}.calls"] = n / ops
                    out[f"exactfield.{name}.us"] = self.ring_time[name] / n * 1e6 if n else 0.0
            for fn in fns:
                d = self.durations[f"{module}.{fn}"]
                out[f"{module}.{fn}.calls"] = len(d) / ops
                out[f"{module}.{fn}.us"] = statistics.median(d) * 1e6 if d else 0.0
            out[f"{module}.self_ms"] = self.self_time[module] / ops * 1e3
        out["cli.import_ms"] = import_s * 1e3
        return out


def _replace(modules, old, new):
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)
