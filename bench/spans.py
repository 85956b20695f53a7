"""Span tracing of the ``xmd`` modules from outside the package.

``Tracer.installed()`` wraps every public function defined in the traced
modules, plus ``Domain.contains`` and ``Domain.reflect``, and rebinds each
wrapper at every place in the loaded ``xmd`` modules that holds the original
object: module globals (``from .core import metric`` makes a second binding in
``flows`` and ``expfam``) and values of module-level dicts such as
``experiments.RUNNERS``. Leaving the context restores every binding.

Each call records one span (name, start, end, parent) into flat arrays kept in
memory; ``take()`` hands them over and clears the store. Nothing under
``src/`` is changed.
"""
from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

TRACED_MODULES = ("cli", "config", "core", "flows", "expfam", "simplex", "rng",
                  "experiments")
TRACED_METHODS = (("core", "Domain", "contains"), ("core", "Domain", "reflect"))


def _count_nonfinite(counters, key):
    def hook(args, kwargs, result):
        p = np.asarray(result, dtype=float)
        if not (np.all(np.isfinite(p)) and p.min() > 0.0):
            counters[key] += 1
    return hook


def _count_skipped(counters):
    def hook(args, kwargs, result):
        counters["expfam.online_update.skipped"] += result.skipped - args[1].skipped
    return hook


def _count_rk4_steps(counters):
    def hook(args, kwargs, result):
        # integrate returns one state per grid point: scheduled steps + 1
        counters["flows.integrate.scheduled_steps"] += len(result) - 1
    return hook


class Tracer:
    """Collects spans for calls into the traced ``xmd`` modules."""

    def __init__(self):
        self.names: list[str] = []
        self.counters = {"expfam.online_update.skipped": 0,
                         "simplex.step_conformal.nonfinite": 0,
                         "simplex.step_entropic.nonfinite": 0,
                         "flows.integrate.scheduled_steps": 0}
        self._name_ids = array("i")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = [-1]
        self._hooks = {
            "simplex.step_conformal": _count_nonfinite(
                self.counters, "simplex.step_conformal.nonfinite"),
            "simplex.step_entropic": _count_nonfinite(
                self.counters, "simplex.step_entropic.nonfinite"),
            "expfam.online_update": _count_skipped(self.counters),
            "flows.integrate": _count_rk4_steps(self.counters),
        }

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        ids, parents, starts, ends = self._name_ids, self._parents, self._starts, self._ends
        stack = self._stack
        clock = time.perf_counter
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def take(self) -> dict:
        """Return the recorded spans and counters as arrays; reset the store."""
        spans = {
            "name": np.frombuffer(self._name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parents, dtype=np.int32).copy(),
            "start": np.frombuffer(self._starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self._ends, dtype=np.float64).copy(),
            "counters": dict(self.counters),
        }
        for store in (self._name_ids, self._parents, self._starts, self._ends):
            del store[:]
        for key in self.counters:
            self.counters[key] = 0
        return spans

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function to its wrapper for the duration."""
        modules = {short: importlib.import_module(f"xmd.{short}")
                   for short in TRACED_MODULES}
        # id -> (original, wrapper); holding the original keeps its id unique
        targets = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    targets[id(value)] = (value, self.wrap(f"{short}.{attr}", value))
        undo = []
        for short, cls_name, attr in TRACED_METHODS:
            cls = getattr(modules[short], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(f"{short}.{cls_name}.{attr}", original))
            undo.append((cls, attr, original))
        try:
            for name, module in list(sys.modules.items()):
                if name != "xmd" and not name.startswith("xmd."):
                    continue
                for attr, value in list(vars(module).items()):
                    if id(value) in targets:
                        setattr(module, attr, targets[id(value)][1])
                        undo.append((module, attr, value))
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if id(item) in targets:
                                value[key] = targets[id(item)][1]
                                undo.append((value, key, item))
            yield self
        finally:
            for container, key, original in reversed(undo):
                if isinstance(container, dict):
                    container[key] = original
                else:
                    setattr(container, key, original)


# ---------------------------------------------------------------------------
# aggregation


def _under(spans: dict, name_id: int) -> np.ndarray:
    """Mask of spans that have an ancestor span with the given name."""
    names, parents = spans["name"], spans["parent"]
    inside = np.zeros(names.size, dtype=bool)
    up = parents.copy()
    live = up >= 0
    while live.any():
        inside[live] |= names[up[live]] == name_id
        up[live] = parents[up[live]]
        live = up >= 0
    return inside


def summarize(spans: dict, names: list[str]) -> dict:
    """Per-function calls, span time and self time, plus nested-call counts.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of all spans add up to the time covered by
    the top-level spans.
    """
    ids, parents = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    nested = parents >= 0
    child = np.bincount(parents[nested], weights=dur[nested], minlength=ids.size)
    self_time = dur - child
    n = len(names)
    calls = np.bincount(ids, minlength=n)
    total = np.bincount(ids, weights=dur, minlength=n)
    own = np.bincount(ids, weights=self_time, minlength=n)
    per_fn = {name: {"calls": int(calls[i]), "span_s": float(total[i]),
                     "self_s": float(own[i])}
              for i, name in enumerate(names) if calls[i]}

    def count_within(inner: str, outer: str) -> int:
        if inner not in names or outer not in names:
            return 0
        mask = (ids == names.index(inner)) & _under(spans, names.index(outer))
        return int(mask.sum())

    return {
        "functions": per_fn,
        "self_total_s": float(self_time.sum()),
        "min_self_s": float(self_time.min()) if self_time.size else 0.0,
        "inverse_in_update": count_within("core.inverse_mirror", "expfam.online_update"),
        "residuals_in_newton": count_within("core.zeta_of", "core.theta_of_zeta"),
        "rhs_in_integrate": count_within("flows.rhs_primal", "flows.integrate"),
        "counters": spans["counters"],
    }
