"""Span tracing from outside the program.

The tracer wraps the public functions of each ``usptest`` module (the names
in its ``__all__``) plus a few hot-path names that are not public, and
records one span per call: identifier, parent, name, start, end and the CLI
call it belongs to.  Every module attribute bound to a wrapped function is
rebound, so calls through ``from .x import f`` names are traced too.

A layer is a module.  A span's self time is its duration minus the time
its direct child spans cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "simulate", "permutation", "stats", "table", "numerics", "asymptotics")

# names reached on the hot path that are not in a module's __all__:
# permutation mode scores pearson and g through the stats kernels, and the
# studies run each replicate through a private worker function
_PRIVATE = {
    ("stats", "_pearson_value"): "stats.pearson",
    ("stats", "_g_value"): "stats.g",
    ("simulate", "_power_replicate"): "simulate.replicate",
    ("simulate", "_subsample_replicate"): "simulate.replicate",
    ("simulate", "_dhat_replicate"): "simulate.replicate",
}
_METHODS = {("numerics", "RandomStream", "generator"), ("numerics", "RandomStream", "child")}

SPAN_CAP = 100_000  # spans kept for the trace file; totals count every span


def _permutation_pvalue_label(name, args, kwargs):
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    return f"{name}.B{getattr(config, 'B', '?')}"


_LABELLERS = {"permutation.permutation_pvalue": _permutation_pvalue_label}


class Tracer:
    """Collects spans while ``active``; aggregates count, inclusive and self time
    per span name."""

    def __init__(self) -> None:
        self.active = False
        self.call_id = 0
        self.spans: list[tuple] = []
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self._stack: list[list] = []
        self._next = 0
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        labeller = _LABELLERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = labeller(name, args, kwargs) if labeller else name
            sid = self._next
            self._next += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [sid, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                total = self.totals[label]
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[1]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((sid, parent, label, start, end, self.call_id))

        return traced

    def install(self) -> None:
        """Wrap every target function and rebind it in every loaded usptest module."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"usptest.{layer}")
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for (layer, name), label in _PRIVATE.items():
            obj = getattr(importlib.import_module(f"usptest.{layer}"), name, None)
            if inspect.isfunction(obj):
                wrappers[obj] = self._wrap(label, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "usptest" and not mod_name.startswith("usptest."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        for layer, cls_name, meth in _METHODS:
            cls = getattr(importlib.import_module(f"usptest.{layer}"), cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if inspect.isfunction(fn):
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(f"{layer}.{meth}", fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def write(self, path: Path) -> None:
        """Write the kept spans (first SPAN_CAP) and the per-name totals as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "columns": ["id", "parent", "name", "start", "end", "call"],
                    "spans": self.spans,
                    "totals": {k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2]}
                               for k, v in sorted(self.totals.items())},
                },
                fh,
            )

    # -- aggregates, per traced round -----------------------------------------

    def calls(self, label: str, rounds: int) -> float:
        return self.totals[label][0] / rounds if label in self.totals else 0

    def mean_s(self, label: str) -> float:
        """Mean inclusive seconds per call of ``label``; 0 when never called."""
        if label not in self.totals or not self.totals[label][0]:
            return 0.0
        calls, inclusive, _ = self.totals[label]
        return inclusive / calls

    def layer_self_s(self, layer: str, rounds: int) -> float:
        prefix = layer + "."
        return sum(v[2] for k, v in self.totals.items() if k.startswith(prefix)) / rounds
