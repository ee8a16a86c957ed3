"""Spans around calls into jetgeo's public functions, installed from outside.

`Tracer` wraps every public function of the given modules; `install` binds
the wrapper under every module attribute that holds the original, so a call
through `geometry.differentiate` or `cli.analyze` is seen as well as one
through the defining module. For recursive functions only the outermost call
opens a span. Spans (name, start, end, parent) are kept in flat lists and
written out by `dump`.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import defaultdict

import numpy as np


def _flow_steps(args, kwargs, result, counters):
    counters["variational.integrate_flow.steps"] += result.samples.shape[0] - 1


def _marching_cells(args, kwargs, result, counters):
    xs, ys, values, level = args[:4]
    inside = np.asarray(values, dtype=float) < level
    case = inside[:-1, :-1] * 1 + inside[1:, :-1] * 2 + inside[1:, 1:] * 4 + inside[:-1, 1:] * 8
    counters["levelset.marching_squares.cells"] += case.size
    counters["levelset.marching_squares.active_cells"] += int(np.sum((case != 0) & (case != 15)))


#: counters taken from a call's arguments and result, outside its span
HOOKS = {
    "variational.integrate_flow": _flow_steps,
    "levelset.marching_squares": _marching_cells,
}


class Tracer:
    """Wrappers for the public functions of `modules` ({short name: module}),
    bound by `install` under every attribute of `namespaces` that holds the
    original, and unbound again by `uninstall`."""

    def __init__(self, modules: dict, namespaces):
        self.labels: list[str] = []
        self.label_id: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.stack = [-1]
        self.counters: defaultdict[str, float] = defaultdict(float)
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
        self._bindings = [
            (ns, attr, obj, wrapped[id(obj)][1])
            for ns in namespaces
            for attr, obj in vars(ns).items()
            if id(obj) in wrapped and wrapped[id(obj)][0] is obj
        ]

    def install(self) -> None:
        for ns, attr, _, wrapper in self._bindings:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original, _ in self._bindings:
            setattr(ns, attr, original)

    def _intern(self, label: str) -> int:
        if label not in self.label_id:
            self.label_id[label] = len(self.labels)
            self.labels.append(label)
        return self.label_id[label]

    def _open(self, idx: int) -> int:
        sid = len(self.name)
        self.name.append(idx)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, label: str):
        """Span opened by the benchmark itself."""
        sid = self._open(self._intern(label))
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, fn, label: str):
        idx = self._intern(label)
        hook = HOOKS.get(label)
        active = [False]
        open_, close = self._open, self._close
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            sid = open_(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
                active[0] = False
            if hook is not None:
                hook(args, kwargs, result, counters)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per label: calls, total and self time (seconds)."""
        start = np.array(self.start)
        dur = np.array(self.end) - start
        parent = np.array(self.parent, dtype=int)
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        own = dur - covered
        names = np.array(self.name, dtype=int)
        out = {}
        for idx, label in enumerate(self.labels):
            mask = names == idx
            out[label] = {
                "calls": int(np.sum(mask)),
                "total_s": float(np.sum(dur[mask])),
                "self_s": float(np.sum(own[mask])),
            }
        return out

    def dump(self, path, meta: dict) -> None:
        """Write every span as columns: name index, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "meta": meta,
                    "labels": self.labels,
                    "name": self.name,
                    "start": self.start,
                    "end": self.end,
                    "parent": self.parent,
                    "counters": dict(self.counters),
                },
                fh,
            )
