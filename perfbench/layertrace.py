"""Spans around the calls into each lissim layer, installed from outside.

``Tracer.install`` replaces each traced public function with a wrapper
in every ``lissim`` module namespace that holds it (``experiments``
imports ``impedance`` and ``channel_for`` by name, ``coupling`` imports
the kernels by name, ``precoding`` imports ``solve``), and replaces the
traced methods on their classes.  Each call becomes a span: label, start,
end and the span that was open when it began, in the process's CPU time
like the benchmark's ``cpu_s``.  A span's label is the
name of the per-layer time metric it counts towards, and a counter's
name is its metric's name.  The spans stay in memory until
``Tracer.write`` saves them with the counters; ``layer_metrics`` turns a
saved trace into the per-layer metrics, timing each layer by its self
time (its spans minus the spans nested in them).

The benchmark pins one sweep worker, so every call runs in the main
thread and one stack of open spans serves; ``install`` refuses to trace
anything else.  Only the benchmark's traced rounds import this module,
so the timed rounds run the program unwrapped.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc
import weakref

import mpmath
import numpy as np

MIB = float(1 << 20)


def _precision_label(double_label: str, ext_label: str, precision) -> str:
    return ext_label if precision is not None and precision.is_extended else double_label


def _impedance_precision(args, kwargs):
    """The ``precision`` argument of ``impedance(geom, precision=Precision())``."""
    return args[1] if len(args) > 1 else kwargs.get("precision")


class Tracer:
    """In-memory spans and counters for one traced sweep."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.labels: list[str] = []  # every label a wrapper can give its spans
        self._stack: list[int] = []  # indices of the open spans
        self._eig_seen = weakref.WeakSet()

    def _span(self, label: str, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.process_time()
            self._stack.pop()
            self.spans[index] = (label, start, end, parent)

    def _add(self, name: str, value) -> None:
        self.counts[name] += value

    def _wrap(self, fn, label, before=None, after=None):
        """``label`` is a span label or a function of ``(args, kwargs)`` giving one."""
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            name = label(args, kwargs) if callable(label) else label
            result = self._span(name, fn, args, kwargs)
            if after is not None:
                after(result)
            return result
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-layer counters --------------------------------------------
    def _kernel_args(self, args, kwargs) -> None:
        if not isinstance(args[0], mpmath.mpf):
            self._add("specfun.kernel_args", int(np.size(args[0])))

    def _eig_request(self, args, kwargs) -> None:
        self._add("coupling.eig_requests", 1)
        if args[0] not in self._eig_seen:
            self._eig_seen.add(args[0])
            self._add("coupling.eig_computed", 1)

    def _counted_solve(self, fn):
        from lissim.errors import IllConditionedSolveError

        def solve(*args, **kwargs):
            self._add("coupling.solve_calls", 1)
            try:
                return fn(*args, **kwargs)
            except IllConditionedSolveError:
                self._add("coupling.solve_refused", 1)
                raise
        return solve

    def _measured_impedance(self, fn):
        key = "coupling.impedance_double_peak_mb"

        def impedance(*args, **kwargs):
            precision = _impedance_precision(args, kwargs)
            if precision is not None and precision.is_extended:
                return fn(*args, **kwargs)
            # tracemalloc also sees numpy's buffers
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / MIB
                tracemalloc.stop()
                self.counts[key] = max(self.counts[key], peak)
        return impedance

    def _sweep_done(self, result) -> None:
        spacing = result.columns.index("spacing_m")
        kind = result.columns.index("element_kind")
        self._add("experiments.rows", len(result.rows))
        self._add("experiments.points", len({(r[spacing], r[kind]) for r in result.rows}))

    def install(self) -> None:
        """Wrap every traced function and method of the imported lissim package."""
        from lissim import channel, coupling, experiments, geometry, metrics, precoding, specfun

        if os.environ.get(experiments.MAX_WORKERS_ENV) != "1":
            raise RuntimeError(f"tracing needs {experiments.MAX_WORKERS_ENV}=1: "
                               "all spans share one stack")
        self.counts = dict.fromkeys(
            ("specfun.kernel_args", "coupling.impedance_double_peak_mb",
             "coupling.eig_requests", "coupling.eig_computed", "coupling.solve_calls",
             "coupling.solve_refused", "experiments.points", "experiments.rows"), 0)

        def by_precision(double_label, ext_label):
            self.labels += [double_label, ext_label]
            return lambda args, kwargs: _precision_label(
                double_label, ext_label, args[0].precision)

        def wrap(fn, label, **hooks):
            if not callable(label):
                self.labels.append(label)
            return self._wrap(fn, label, **hooks)

        self.labels += ["coupling.impedance_double_s", "coupling.impedance_ext_s"]

        def impedance_label(args, kwargs):
            return _precision_label("coupling.impedance_double_s", "coupling.impedance_ext_s",
                                    _impedance_precision(args, kwargs))

        pinv_label = by_precision("coupling.pinv_double_s", "coupling.pinv_ext_s")
        functions = [
            (geometry.planar_grid, wrap(geometry.planar_grid, "geometry.layout_s")),
            (geometry.linear_array, wrap(geometry.linear_array, "geometry.layout_s")),
            (specfun.j1_over_x,
             wrap(specfun.j1_over_x, "specfun.kernel_s", before=self._kernel_args)),
            (specfun.sinc_unnormalized,
             wrap(specfun.sinc_unnormalized, "specfun.kernel_s", before=self._kernel_args)),
            (coupling.impedance,
             wrap(self._measured_impedance(coupling.impedance), impedance_label)),
            (coupling.solve,
             wrap(self._counted_solve(coupling.solve),
                  by_precision("coupling.solve_double_s", "coupling.solve_ext_s"))),
            (coupling.truncated_inverse, wrap(coupling.truncated_inverse, pinv_label)),
            (coupling.rank_truncated_inverse, wrap(coupling.rank_truncated_inverse, pinv_label)),
            (channel.channel_for, wrap(channel.channel_for, "channel.vector_s")),
            (precoding.power_normalize, wrap(precoding.power_normalize, "precoding.normalize_s")),
            (metrics.directivity, wrap(metrics.directivity, "metrics.directivity_s")),
            (metrics.d_nc, wrap(metrics.d_nc, "metrics.d_nc_s")),
            (experiments.run_experiment,
             wrap(experiments.run_experiment, "experiments.self_s", after=self._sweep_done)),
        ]
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "lissim" or name.startswith("lissim."))]
        for original, wrapper in functions:
            replaced = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        replaced += 1
            if replaced == 0:
                raise RuntimeError(f"{original.__qualname__} is not reachable to trace")

        matrix = coupling.ImpedanceMatrix
        matrix.eigendecomposition = wrap(
            matrix.eigendecomposition, by_precision("coupling.eig_double_s", "coupling.eig_ext_s"),
            before=self._eig_request)
        sweep = experiments.SweepResult
        sweep.to_csv = wrap(sweep.to_csv, "cli.csv_s")
        sweep.write = wrap(sweep.write, "cli.csv_s")

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"labels": sorted(set(self.labels)), "spans": self.spans,
                       "counts": self.counts}, fh)


def layer_metrics(trace: dict, names) -> dict[str, float]:
    """Self time per span label and the counters, from a trace ``Tracer.write`` saved.

    ``names`` are the metrics the trace must give, no more and no fewer.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = dict.fromkeys(trace["labels"], 0.0)
    for (label, start, end, _), nested in zip(spans, child_time):
        out[label] += (end - start) - nested
    out.update(trace["counts"])
    if set(out) != set(names):
        raise ValueError(f"trace gives {sorted(set(out) - set(names))} beyond the metrics and "
                         f"lacks {sorted(set(names) - set(out))}")
    return out
