"""Spans and counters at the public functions of each conedual module.

``Tracer.install`` wraps every public function of the measured modules
(the names in each module's ``__all__`` that the module defines, plus the
``ContinuousLPSpec.sample_*`` methods) at every module attribute that binds
it, the defining module included, so calls made inside a module are seen
too.  ``uninstall`` puts the originals back, so untraced passes run the
unmodified package.

A span is one call: name, start, end, parent span and item index.  Only
the outermost frame of a recursive call is a span (``cones.distance`` on a
product cone calls itself per factor).  Self time is the span's duration
minus the durations of its child spans.  Aggregates are updated as spans
close; the span records themselves are kept only for items below
``record_items``, and written out by ``save``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "conedual"
LAYERS = (
    "nnls",
    "simplex",
    "cones",
    "linops",
    "residual",
    "farkas",
    "duality",
    "continuous_lp",
    "complex_lp",
    "instances",
)
SAMPLE_METHODS = ("sample_B", "sample_K", "sample_b", "sample_c")
MEMBERSHIP = frozenset({"cones.contains", "cones.distance", "cones.interior_contains"})
PIPELINES = frozenset({"duality.verify_interior_optima", "duality.verify_strict_feasibility"})


def public_functions():
    """``{span name: function}`` for the traced functions of every layer."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                found[f"{layer}.{attr}"] = fn
    spec_cls = sys.modules[f"{PACKAGE}.continuous_lp"].ContinuousLPSpec
    for attr in SAMPLE_METHODS:
        found[f"continuous_lp.ContinuousLPSpec.{attr}"] = spec_cls.__dict__[attr]
    return found


def _observe_nnls(tracer, args, result):
    tracer.counts["nnls.iterations"] += result.iterations


def _observe_simplex(tracer, args, result):
    # Bytes the pivots would move over the phase-one tableau, computed from
    # its shape rather than measured.
    rows, cols = np.shape(args[1])
    tracer.counts["simplex.pivots"] += result.iterations
    tracer.counts["simplex.tableau_bytes_computed"] += result.iterations * (rows + 1) * (cols + rows + 1) * 8


def _observe_pipeline(tracer, args, result):
    tracer.counts["duality.concluded"] += all(result.flags.systems_solved)


OBSERVERS = {
    "nnls.nnls": _observe_nnls,
    "simplex.simplex_solve": _observe_simplex,
    "duality.verify_interior_optima": _observe_pipeline,
    "duality.verify_strict_feasibility": _observe_pipeline,
}


class Tracer:
    """Records spans of the wrapped public functions of the package."""

    def __init__(self, record_items=0):
        self.functions = public_functions()
        self.names = list(self.functions)
        self.layer_of = [name.split(".", 1)[0] for name in self.names]
        n = len(self.names)
        self.active = [0] * n
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        # Outermost spans within a group (a layer, or the membership tests).
        self.group_calls = Counter()
        self.group_time = Counter()
        self.group_depth = Counter()
        self.groups = [
            (layer, "membership") if name in MEMBERSHIP else (layer,)
            for name, layer in zip(self.names, self.layer_of)
        ]
        self.raised = Counter()
        self.counts = Counter()
        self.stack = []  # open spans: [name index, start, child time, record index]
        self.item = -1
        self.record_items = record_items
        self.rec_name = array("q")
        self.rec_parent = array("q")
        self.rec_item = array("q")
        self.rec_start = array("d")
        self.rec_end = array("d")
        self._installed = []

    # -- wrapping -----------------------------------------------------------

    def install(self):
        """Bind a wrapper in place of each traced function, everywhere."""
        wrappers = {id(fn): self._wrap(i, fn) for i, fn in enumerate(self.functions.values())}
        prefix = PACKAGE + "."
        modules = [m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(prefix)]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrapper)
        spec_cls = sys.modules[prefix + "continuous_lp"].ContinuousLPSpec
        for attr in SAMPLE_METHODS:
            value = spec_cls.__dict__[attr]
            self._installed.append((spec_cls, attr, value))
            setattr(spec_cls, attr, wrappers[id(value)])

    def uninstall(self):
        while self._installed:
            owner, attr, value = self._installed.pop()
            setattr(owner, attr, value)

    def _wrap(self, index, fn):
        name = self.names[index]
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.active[index]:
                return fn(*args, **kwargs)
            self._enter(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._leave(index)
                self.raised[(name, type(exc).__name__)] += 1
                raise
            self._leave(index)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    # -- spans ----------------------------------------------------------------

    def _enter(self, index):
        self.active[index] += 1
        for group in self.groups[index]:
            self.group_depth[group] += 1
        record = -1
        if self.item < self.record_items:
            record = len(self.rec_start)
            self.rec_name.append(index)
            self.rec_parent.append(self.stack[-1][3] if self.stack else -1)
            self.rec_item.append(self.item)
            self.rec_start.append(0.0)
            self.rec_end.append(0.0)
        frame = [index, 0.0, 0.0, record]
        self.stack.append(frame)
        frame[1] = time.perf_counter()

    def _leave(self, index):
        end = time.perf_counter()
        _, start, child, record = self.stack.pop()
        duration = end - start
        self.active[index] -= 1
        self.calls[index] += 1
        self.total[index] += duration
        self.self_time[index] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        for group in self.groups[index]:
            self.group_depth[group] -= 1
            if self.group_depth[group] == 0:
                self.group_calls[group] += 1
                self.group_time[group] += duration
        if record >= 0:
            self.rec_start[record] = start
            self.rec_end[record] = end

    # -- results --------------------------------------------------------------

    def function_stats(self, name):
        i = self.names.index(name)
        return self.calls[i], self.total[i], self.self_time[i]

    def layer_self_time(self, layer):
        return sum(s for s, lay in zip(self.self_time, self.layer_of) if lay == layer)

    def layer_calls(self, layer):
        return sum(c for c, lay in zip(self.calls, self.layer_of) if lay == layer)

    def metrics(self, items):
        """Per-layer metrics per item, over the ``items`` traced so far."""

        def calls(*names):
            return sum(self.function_stats(n)[0] for n in names)

        def total(*names):
            return sum(self.function_stats(n)[1] for n in names)

        def self_s(*names):
            return sum(self.function_stats(n)[2] for n in names)

        pipelines = sorted(PIPELINES)
        pipeline_runs = calls(*pipelines)
        values = {
            "nnls.calls": calls("nnls.nnls"),
            "nnls.iterations": self.counts["nnls.iterations"],
            "nnls.time_s": total("nnls.nnls"),
            "nnls.cap_trips": self.raised[("nnls.nnls", "SolverFailure")],
            "residual.calls": calls("residual.residual_minimize"),
            "residual.time_s": self.group_time["residual"],
            "residual.self_s": self.layer_self_time("residual"),
            "simplex.calls": calls("simplex.simplex_solve"),
            "simplex.pivots": self.counts["simplex.pivots"],
            "simplex.time_s": total("simplex.simplex_solve"),
            "simplex.tableau_bytes_computed": self.counts["simplex.tableau_bytes_computed"],
            "duality.solve_calls": calls("duality.solve"),
            "duality.solve_time_s": total("duality.solve"),
            "duality.solve_self_s": self_s("duality.solve"),
            "duality.verify_time_s": total(*pipelines),
            "duality.verify_self_s": self_s(*pipelines),
            "cones.membership_calls": self.group_calls["membership"],
            "cones.membership_time_s": self.group_time["membership"],
            "cones.generators_calls": calls("cones.generators"),
            "farkas.calls": self.layer_calls("farkas"),
            "farkas.time_s": self.group_time["farkas"],
            "farkas.self_s": self.layer_self_time("farkas"),
            "farkas.verify_time_s": total("farkas.verify_outcome"),
            "farkas.indeterminate": sum(
                self.raised[(n, "IndeterminateAlternative")] for n in ("farkas.farkas_primal", "farkas.farkas_dual")
            ),
            "continuous_lp.discretize_time_s": total("continuous_lp.discretize_clp"),
            "continuous_lp.sample_calls": calls(
                *(f"continuous_lp.ContinuousLPSpec.{attr}" for attr in SAMPLE_METHODS)
            ),
            "linops.calls": self.layer_calls("linops"),
            "linops.time_s": self.group_time["linops"],
            "complex_lp.build_time_s": total("complex_lp.build_complex_lp"),
            "complex_lp.classify_self_s": self_s("complex_lp.classify_boundary_optima"),
            "instances.classify_self_s": self_s("instances.classify_instance"),
        }
        per_item = {name: value / items for name, value in values.items()}
        # A ratio of runs, not a per-item quantity; 0 when no pipeline ran.
        per_item["duality.concluded_ratio"] = (
            self.counts["duality.concluded"] / pipeline_runs if pipeline_runs else 0.0
        )
        return per_item

    def save(self, path):
        """Write the recorded spans as arrays to ``path`` (``.npz``)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.rec_name, dtype=np.int64),
            parent=np.frombuffer(self.rec_parent, dtype=np.int64),
            item=np.frombuffer(self.rec_item, dtype=np.int64),
            start=np.frombuffer(self.rec_start, dtype=np.float64),
            end=np.frombuffer(self.rec_end, dtype=np.float64),
        )
