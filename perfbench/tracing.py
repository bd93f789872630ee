"""Span tracing of dosedid's layers, installed from outside the program.

Every public module-level function of each layer module is replaced, in
every dosedid namespace that binds it (``from .x import f`` copies included),
by a wrapper that records a span: name, parent span, start and end. The KDE
table evaluation, a method, is wrapped as ``numeric.kde_eval``. Spans and
counts stay in memory and are written out once, when the run ends.
``uninstall`` restores the original bindings, so untraced operations in a
traced run pay nothing.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap. Each span
also records the process's minor page-fault count at its start and end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import statistics
import sys
import time
import tracemalloc
from collections import Counter

PACKAGE = "dosedid"
LAYERS = (
    "cli",
    "config",
    "data",
    "numeric",
    "nuisance",
    "pseudo",
    "curves",
    "inference",
    "panel",
    "simulation",
)

# Calls whose peak traced allocation is measured during the memory pass.
# A call nested inside another measured call is not measured on its own.
MEMORY_TRACED = ("nuisance.marginalize", "inference.sandwich_bands")

BENCH = "bench"  # layer name of the benchmark's own root spans

_FIT_CALLS = ("nuisance.fit_pi_a", "nuisance.fit_pi_d", "nuisance.fit_mu1", "nuisance.fit_mu0")

# name -> (unit, kind, argument). Kinds:
#   incl   summed duration of the named function's outermost spans, per op
#   layer  summed duration of a layer's outermost spans, per op
#   self   a layer's self time, per op
#   calls  number of spans of the named functions, per op
#   setup  like incl, but per set-up instead of per op
#   value  sum of the values recorded when the named call returns, per op
#   mean   mean of the values recorded when the named call returns
#   peak   largest peak traced allocation of the named call, MB
#   faults minor page faults during the named function's outermost spans, per op
PER_LAYER = {
    "cli.estimate_self_s": ("s", "self", "cli"),
    "config.self_s": ("s", "self", "config"),
    "data.load_panel_s": ("s", "incl", "data.load_panel"),
    "data.self_s": ("s", "self", "data"),
    "nuisance.fit_pi_a_s": ("s", "incl", "nuisance.fit_pi_a"),
    "nuisance.fit_pi_d_s": ("s", "incl", "nuisance.fit_pi_d"),
    "nuisance.fit_mu1_s": ("s", "incl", "nuisance.fit_mu1"),
    "nuisance.fit_mu0_s": ("s", "incl", "nuisance.fit_mu0"),
    "nuisance.fit_calls": ("count", "calls", _FIT_CALLS),
    "nuisance.marginalize_s": ("s", "incl", "nuisance.marginalize"),
    "nuisance.marginalize_calls": ("count", "calls", ("nuisance.marginalize",)),
    "nuisance.marginal_nodes": ("count", "mean", "nuisance.marginalize"),
    "nuisance.marginalize_peak_mb": ("MB", "peak", "nuisance.marginalize"),
    "nuisance.self_s": ("s", "self", "nuisance"),
    "numeric.kde_eval_s": ("s", "incl", "numeric.kde_eval"),
    "numeric.local_linear_fit_calls": ("count", "calls", ("numeric.local_linear_fit",)),
    "numeric.self_s": ("s", "self", "numeric"),
    "pseudo.pseudo_outcomes_s": ("s", "layer", "pseudo"),
    "pseudo.self_s": ("s", "self", "pseudo"),
    "curves.robust_select_bandwidth_s": ("s", "incl", "curves.robust_select_bandwidth"),
    "curves.local_linear_curve_s": ("s", "incl", "curves.local_linear_curve"),
    "curves.write_curve_s": ("s", "incl", "curves.write_curve"),
    "curves.self_s": ("s", "self", "curves"),
    "inference.sandwich_bands_s": ("s", "incl", "inference.sandwich_bands"),
    "inference.sandwich_peak_mb": ("MB", "peak", "inference.sandwich_bands"),
    "inference.weighted_bootstrap_s": ("s", "incl", "inference.weighted_bootstrap"),
    "inference.bootstrap_failed": ("count", "value", "inference.weighted_bootstrap"),
    "inference.self_s": ("s", "self", "inference"),
    "panel.estimate_repeated_s": ("s", "incl", "panel.estimate_repeated"),
    "panel.self_s": ("s", "self", "panel"),
    "simulation.generate_scenario_data_s": ("s", "incl", "simulation.generate_scenario_data"),
    "simulation.ground_truth_curve_s": ("s", "setup", "simulation.ground_truth_curve"),
    "simulation.study_self_s": ("s", "self", "simulation"),
    "numeric.kde_eval_faults": ("count", "faults", "numeric.kde_eval"),
    "inference.sandwich_bands_faults": ("count", "faults", "inference.sandwich_bands"),
    "bench.self_s": ("s", "self", BENCH),
    "bench.op_faults": ("count", "faults", f"{BENCH}.op"),
    "trace.spans_per_op": ("count", "spans", None),
}

# Span record fields: the last descendant's index is set on close, the value
# by the call's entry in _RECORD; _FAULTS holds the minor page faults in it.
_NAME, _PARENT, _START, _END, _OUTER_FN, _OUTER_LAYER, _LAST, _VALUE, _FAULTS = range(9)


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    """Records spans for the public functions of dosedid's layer modules."""

    def __init__(self):
        self.spans: list[list] = []
        self.peaks: dict[str, float] = {}
        self.measure_memory = False
        self._stack: list[int] = []
        self._active: Counter = Counter()  # open spans per function and per layer
        self._patches: list[tuple] = []
        self._build()

    # ---------------------------------------------------------------- install

    def _build(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == module.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        namespaces = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module in namespaces:
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, attr, obj, wrappers[obj]))
        numeric = importlib.import_module(f"{PACKAGE}.numeric")
        kde_call = numeric.DensityEstimate.__call__
        self._patches.append(
            (numeric.DensityEstimate, "__call__", kde_call, self._wrap("numeric.kde_eval", kde_call))
        )

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        measure = name in MEMORY_TRACED
        record = _RECORD.get(name)
        spans, open_span, close_span = self.spans, self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(name, layer)
            memory = measure and self.measure_memory and not tracemalloc.is_tracing()
            if memory:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peaks[name] = max(self.peaks.get(name, 0.0), peak)
                close_span(idx)
            if record is not None:
                spans[idx][_VALUE] = record(result)
            return result

        return traced

    # ------------------------------------------------------------------ spans

    def open(self, name: str, layer: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        spans, stack, active = self.spans, self._stack, self._active
        idx = len(spans)
        span = [name, stack[-1] if stack else -1, 0.0, 0.0, not active[name], not active[layer], idx, None, 0]
        spans.append(span)
        stack.append(idx)
        active[name] += 1
        active[layer] += 1
        span[_FAULTS] = _minor_faults()
        span[_START] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        """Close the innermost open span, ``idx``."""
        span = self.spans[idx]
        span[_END] = time.perf_counter()
        span[_FAULTS] = _minor_faults() - span[_FAULTS]
        span[_LAST] = len(self.spans) - 1
        self._stack.pop()
        self._active[span[_NAME]] -= 1
        self._active[span[_NAME].split(".", 1)[0]] -= 1

    # ---------------------------------------------------------------- metrics

    def metrics(self, op_roots: list[int], setup_roots: list[int], op_times, untraced_times) -> dict:
        """Per-layer metrics, averaged over the traced operations
        ``op_roots`` (indices of their root spans)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[_PARENT] >= 0:
                child_time[span[_PARENT]] += span[_END] - span[_START]

        def subtree(root: int) -> range:
            return range(root, spans[root][_LAST] + 1)

        def aggregate(roots: list[int]):
            incl, layer_incl, self_time, calls, faults = Counter(), Counter(), Counter(), Counter(), Counter()
            values: dict[str, list] = {}
            for root in roots:
                for i in subtree(root):
                    span = spans[i]
                    dur = span[_END] - span[_START]
                    layer = span[_NAME].split(".", 1)[0]
                    calls[span[_NAME]] += 1
                    self_time[layer] += dur - child_time[i]
                    if span[_OUTER_FN]:
                        incl[span[_NAME]] += dur
                        faults[span[_NAME]] += span[_FAULTS]
                    if span[_OUTER_LAYER]:
                        layer_incl[layer] += dur
                    if span[_VALUE] is not None:
                        values.setdefault(span[_NAME], []).append(span[_VALUE])
            return incl, layer_incl, self_time, calls, values, faults

        n_ops = max(1, len(op_roots))
        incl, layer_incl, self_time, calls, values, faults = aggregate(op_roots)
        setup_incl = aggregate(setup_roots)[0]
        n_setups = max(1, len(setup_roots))
        n_spans = sum(len(subtree(r)) for r in op_roots)

        out = {}
        for name, (unit, kind, arg) in PER_LAYER.items():
            if kind == "incl":
                value = incl[arg] / n_ops
            elif kind == "layer":
                value = layer_incl[arg] / n_ops
            elif kind == "self":
                value = self_time[arg] / n_ops
            elif kind == "calls":
                value = sum(calls[a] for a in arg) / n_ops
            elif kind == "setup":
                value = setup_incl[arg] / n_setups
            elif kind == "value":
                value = sum(values.get(arg, [])) / n_ops
            elif kind == "mean":
                value = statistics.fmean(values[arg]) if arg in values else 0.0
            elif kind == "peak":
                value = self.peaks.get(arg, 0.0)
            elif kind == "faults":
                value = faults[arg] / n_ops
            else:  # spans
                value = n_spans / n_ops
            out[name] = {"value": value, "unit": unit}
        traced = statistics.median(op_times)
        untraced = statistics.median(untraced_times)
        out["trace.op_s"] = {"value": traced, "unit": "s"}
        out["trace.overhead_pct"] = {"value": 100.0 * (traced / untraced - 1.0), "unit": "%"}
        return out

    def write(self, path, extra: dict) -> None:
        """Write every span as JSON; times are seconds from the first span."""
        t0 = self.spans[0][_START] if self.spans else 0.0
        doc = {
            **extra,
            "fields": ["name", "parent", "start_s", "end_s", "value", "minor_faults"],
            "spans": [
                [s[_NAME], s[_PARENT], s[_START] - t0, s[_END] - t0, s[_VALUE], s[_FAULTS]] for s in self.spans
            ],
            "peaks_mb": self.peaks,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _marginal_nodes(result) -> int:
    curve = result[0] if result[0] is not None else result[1]
    return 0 if curve is None else int(curve.x.shape[0])


# Counts taken at a call boundary from the call's result.
_RECORD = {
    "nuisance.marginalize": _marginal_nodes,
    "inference.weighted_bootstrap": lambda result: int(result.b_failed),
}
