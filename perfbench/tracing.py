"""Traced run: spans around the public functions of each ramanecho layer.

The tracer replaces a function at every name it is bound to (a
`from .numerics import cumulative_integral` copies the name into the
importing module, so wrapping `numerics.cumulative_integral` alone would
miss the integrators' calls) and methods on their class.  Each call
records one span (name, start, end, parent, operation id) in flat arrays
kept in memory; self times and per-layer totals are computed from the
spans after the run, and the spans are written out when the benchmark
ends.  A call into a layer from inside the same layer (`f` calling
`rabi`) is not recorded again.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array

import numpy as np

# layer -> public callables, as "module:attribute" or "module:Class.method"
LAYERS = {
    "core.control": ("ramanecho.core:ControlProfile.rabi",
                     "ramanecho.core:ControlProfile.f"),
    "core.peak": ("ramanecho.core:ControlProfile.peak_rabi",
                  "ramanecho.core:ControlProfile.peak_f"),
    "numerics.cumint": ("ramanecho.numerics:cumulative_integral",),
    "strongfield.step": ("ramanecho.strongfield:advance_strong",),
    "strongfield.field": ("ramanecho.strongfield:field_row",),
    "strongfield.projection": (
        "ramanecho.strongfield:SimulationState.assert_physical",),
    "weakfield.step": ("ramanecho.weakfield:advance_weak",),
    "weakfield.field": ("ramanecho.weakfield:field_row",),
    "scenario.load": ("ramanecho.scenario:load_scenario",),
    "conditions.check": ("ramanecho.conditions:check_strong_conditions",
                         "ramanecho.conditions:check_weak_conditions"),
    "records.measure": ("ramanecho.records:measure_efficiency",),
    "runs.write": ("ramanecho.runs:write_outputs",),
    "efficiency.epsilon": ("ramanecho.efficiency:epsilon",),
    "efficiency.sweep": ("ramanecho.efficiency:sweep_gamma",),
    "efficiency.optimum": ("ramanecho.efficiency:optimal_gamma",),
    "efficiency.write": ("ramanecho.efficiency:write_sweep_csv",),
}

# bookkeeping done by the tracer itself runs inside a span of this name,
# so it is subtracted from the self time of the layer that called it
HOOK = "bench.hook"


def _projected_cells(state) -> int:
    """Cells that SimulationState.assert_physical is about to project
    back onto the Bloch ball (the same test the method applies)."""
    s_z = state.r11 - 0.5
    norm = np.sqrt(np.abs(state.r12) ** 2 + s_z ** 2)
    return int(np.count_nonzero(norm > 0.5))


def _bytes_written(paths) -> int:
    return sum(os.path.getsize(p) for p in paths.values())


class Tracer:
    """Flat in-memory span store plus the counters measured at spans."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._op_id = -1

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _inside(self, name: str) -> bool:
        return bool(self._stack) and \
            self.names[self.name[self._stack[-1]]] == name

    @property
    def span_count(self) -> int:
        return len(self.start)

    def count(self, counter: str, value: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    @contextlib.contextmanager
    def operation(self, label: str):
        """Root span of one benchmark operation; its children share its id."""
        self._op_id += 1
        idx = self._open(label)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, layer: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._inside(layer):
                return fn(*args, **kwargs)
            if before is not None:
                hook = tracer._open(HOOK)
                before(tracer, *args)
                tracer._close(hook)
            idx = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                hook = tracer._open(HOOK)
                after(tracer, result)
                tracer._close(hook)
            return result

        return traced

    def install(self) -> None:
        """Wrap every callable in LAYERS at every name bound to it."""
        hooks = {
            "strongfield.projection": dict(before=lambda t, state: t.count(
                "strongfield.projected_cells", _projected_cells(state))),
            "runs.write": dict(after=lambda t, paths: t.count(
                "runs.bytes_written", _bytes_written(paths))),
        }
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, attr = target.split(":")
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(layer, original,
                                                 **hooks.get(layer, {})))
                    continue
                original = getattr(module, attr)
                wrapped = self.wrap(layer, original, **hooks.get(layer, {}))
                for mod in list(sys.modules.values()):
                    namespace = getattr(mod, "__dict__", None)
                    if namespace is None:
                        continue
                    for key, value in list(namespace.items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds per span name.

        Self time is a span's duration minus its direct children's; the
        children of one span run one after another, so their durations
        do not overlap.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        incl = np.bincount(a["name"], weights=dur, minlength=n)
        excl = np.bincount(a["name"], weights=self_time, minlength=n)
        return {name: {"calls": int(calls[i]), "s": float(incl[i]),
                       "self_s": float(excl[i])}
                for i, name in enumerate(self.names)}

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics from a traced run of n_ops operations."""
    totals = tracer.layer_totals()

    def get(layer, key):
        return totals.get(layer, {}).get(key, 0) / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "core.control_calls": (get("core.control", "calls"), "count"),
        "core.control_s": (get("core.control", "s"), "s"),
        "core.peak_calls": (get("core.peak", "calls"), "count"),
        "core.peak_s": (get("core.peak", "s"), "s"),
        "numerics.cumint_calls": (get("numerics.cumint", "calls"), "count"),
        "numerics.cumint_s": (get("numerics.cumint", "s"), "s"),
    }
    for regime in ("strongfield", "weakfield"):
        steps = get(f"{regime}.step", "calls")
        solves = get(f"{regime}.field", "calls")
        out[f"{regime}.steps"] = (steps, "count")
        out[f"{regime}.field_solves"] = (solves, "count")
        out[f"{regime}.field_solves_per_step"] = (ratio(solves, steps),
                                                  "ratio")
        out[f"{regime}.field_s"] = (get(f"{regime}.field", "s"), "s")
        out[f"{regime}.step_self_s"] = (get(f"{regime}.step", "self_s"),
                                        "s")
    out.update({
        "strongfield.projection_calls": (
            get("strongfield.projection", "calls"), "count"),
        "strongfield.projection_s": (get("strongfield.projection", "s"),
                                     "s"),
        "strongfield.projected_cells": (
            tracer.counters.get("strongfield.projected_cells", 0) / n_ops,
            "count"),
        "scenario.load_s": (get("scenario.load", "s"), "s"),
        "conditions.check_s": (get("conditions.check", "s"), "s"),
        "records.measure_calls": (get("records.measure", "calls"), "count"),
        "records.measure_s": (get("records.measure", "s"), "s"),
        "runs.write_s": (get("runs.write", "s"), "s"),
        "runs.bytes_written": (
            tracer.counters.get("runs.bytes_written", 0) / n_ops, "B"),
        "efficiency.epsilon_calls": (get("efficiency.epsilon", "calls"),
                                     "count"),
        "efficiency.sweep_s": (get("efficiency.sweep", "s"), "s"),
        "efficiency.optimum_s": (get("efficiency.optimum", "s"), "s"),
        "efficiency.write_s": (get("efficiency.write", "s"), "s"),
    })
    return out
