"""Per-layer tracing of h2comp from outside the package.

The tracer rebinds the public functions of each h2comp module to timing
wrappers, in every ``h2comp`` namespace that holds them: the defining
module, the package itself, and every sibling module that imported the
function by name (``opnorm`` and ``cli`` both do ``from .zeta import
zeta``).  Modules are looked up through ``sys.modules``, because the
package attribute ``h2comp.zeta`` is the function, not the module.

Each call records a span (name, start, end, parent span, op) in memory.
Self time is a span's duration minus the time its direct child spans
cover.  Counts (points, entries, samples) are taken from arguments and
return values at the same boundary.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "opnorm", "affine", "dseries", "zeta", "torus", "disc")

# the three adjoint suprema are reported as one group
ADJOINT = ("adjoint_bound_2s", "adjoint_bound_general", "phi_alpha_adjoint_sup")

# every per-layer metric, in report order; `<stem>.calls` and
# `<stem>.self_s` are read off the spans, `*.setup_s` is timed by the
# caller, the rest are counts
PER_LAYER = [
    "zeta.zeta.calls", "zeta.zeta.points", "zeta.zeta.self_s",
    "zeta.alpha0.self_s",
    "zeta.zeta_deriv.setup_s", "zeta.alpha0.setup_s", "zeta.self_s",
    "opnorm.bound_suite.calls", "opnorm.bound_suite.self_s",
    "opnorm.suite_for_phi_alpha.calls", "opnorm.suite_for_phi_alpha.self_s",
    "opnorm.build_matrix.calls", "opnorm.build_matrix.entries", "opnorm.build_matrix.self_s",
    "opnorm.phi_alpha_operator.calls", "opnorm.phi_alpha_operator.entries",
    "opnorm.phi_alpha_operator.self_s",
    "opnorm.sigma_max_sq.calls", "opnorm.sigma_max_sq.self_s",
    "opnorm.adjoint.calls", "opnorm.adjoint.self_s",
    "opnorm.kernel_quotient_report.calls", "opnorm.kernel_quotient_report.self_s",
    "opnorm.self_s",
    "affine.comp_norm_sq.calls", "affine.comp_norm_sq.self_s",
    "affine.h2k_means.calls", "affine.h2k_means.self_s",
    "affine.self_s",
    "dseries.evaluate.calls", "dseries.evaluate.points", "dseries.evaluate.self_s",
    "dseries.self_s",
    "torus.sample_characters.calls", "torus.sample_characters.self_s",
    "torus.samples", "torus.measure_E_delta.self_s", "torus.mc_comp_norm_sq.self_s",
    "torus.curve_trace.self_s", "torus.samples_per_s", "torus.alloc_peak_mb",
    "torus.self_s",
    "disc.self_s",
    "cli.main.calls", "cli.self_s", "cli.report_bytes",
    "trace.overhead_ratio",
]


def metric_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_points(index, name):
    def count(args, kwargs, out):
        return np.size(_arg(args, kwargs, index, name))
    return count


def _count_entries(args, kwargs, out):
    return out.entries.size


def _count_drawn(args, kwargs, out):
    return _arg(args, kwargs, 0, "plan").n_samples


def _count_rows(args, kwargs, out):
    return out.shape[0]


# span name -> (count metric, how to read it off the call)
COUNTERS = {
    "zeta.zeta": ("zeta.zeta.points", _count_points(0, "sigma")),
    "dseries.evaluate": ("dseries.evaluate.points", _count_points(1, "s")),
    "opnorm.build_matrix": ("opnorm.build_matrix.entries", _count_entries),
    "opnorm.phi_alpha_operator": ("opnorm.phi_alpha_operator.entries", _count_entries),
    # boundary points evaluated: characters drawn plus curve rows traced
    "torus.sample_characters": ("torus.samples", _count_drawn),
    "torus.curve_trace": ("torus.samples", _count_rows),
}


def public_functions(layer: str) -> dict[str, object]:
    """name -> function for each function a layer module defines and
    exports, through its own ``__all__`` or the package's (``cli`` has
    neither and contributes ``main``)."""
    mod = sys.modules[f"h2comp.{layer}"]
    names = {"main", *getattr(mod, "__all__", ()), *sys.modules["h2comp"].__all__}
    out = {}
    for name in sorted(names):
        obj = vars(mod).get(name)
        if callable(obj) and not isinstance(obj, type) and obj.__module__ == mod.__name__:
            out[name] = obj
    return out


class Tracer:
    """Span recorder that installs itself over the h2comp namespaces.

    A span is ``(name, start, end, parent, op, count, alloc)``: ``count``
    is the call's contribution to its counter in COUNTERS, ``alloc`` the
    peak traced allocation in bytes of an outermost torus call.  Ops
    whose label starts with ``setup`` belong to the warm-up.
    """

    def __init__(self):
        self.spans: list = []
        self.op = "setup"
        self._stack: list[int] = []
        self._torus_depth = 0
        self._bindings: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        if self._bindings:
            return
        originals = {}
        for layer in LAYERS:
            for fname, fn in public_functions(layer).items():
                originals[id(fn)] = fn
                if id(fn) not in self._wrappers:
                    self._wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "h2comp" or modname.startswith("h2comp.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)] is value:
                    self._bindings.append((mod, attr, value))
                    setattr(mod, attr, self._wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._bindings):
            setattr(mod, attr, value)
        self._bindings.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name, (None, None))[1]
        is_torus = name.startswith("torus.")
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            # peak allocation of the outermost torus call only
            measure_alloc = is_torus and self._torus_depth == 0
            self._torus_depth += is_torus
            if measure_alloc:
                tracemalloc.start()
            stack.append(sid)
            start = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._torus_depth -= is_torus
                alloc = 0
                if measure_alloc:
                    alloc = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                count = counter(args, kwargs, out) if counter and out is not None else 0
                spans[sid] = (name, start, end, parent, self.op, count, alloc)
            return out

        return traced

    # --- reduction ------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the ops after the warm-up.  The warm-up
        times, the report bytes and the overhead ratio are filled in by
        the caller."""
        child = defaultdict(float)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        counts = defaultdict(int)
        torus_busy = 0.0
        alloc_peak = 0
        for sid, (name, start, end, parent, op, count, alloc) in enumerate(self.spans):
            if op.startswith("setup"):
                continue
            own = (end - start) - child[sid]
            layer = name.split(".", 1)[0]
            calls[name] += 1
            self_s[name] += own
            self_s[layer] += own
            if name in COUNTERS:
                counts[COUNTERS[name][0]] += count
            if layer == "torus" and (parent < 0 or not self.spans[parent][0].startswith("torus.")):
                torus_busy += end - start
                alloc_peak = max(alloc_peak, alloc)
        for fn in ADJOINT:
            calls["opnorm.adjoint"] += calls[f"opnorm.{fn}"]
            self_s["opnorm.adjoint"] += self_s[f"opnorm.{fn}"]
        out = {}
        for metric in PER_LAYER:
            stem, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[stem]
            elif kind == "self_s":
                out[metric] = self_s[stem]
            else:
                out[metric] = counts[metric]
        out["torus.samples_per_s"] = counts["torus.samples"] / torus_busy if torus_busy > 0 else 0.0
        out["torus.alloc_peak_mb"] = alloc_peak / 2**20
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start_s, end_s, parent, op,
        count, alloc_bytes."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, *rest in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, *rest]) + "\n")
