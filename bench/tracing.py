"""Spans around the package's public functions, recorded from outside the package.

The tracer replaces each target function by a wrapper in every loaded
``varbounds`` module that holds a reference to it.  ``swap`` and ``lower``
reach their callees through module globals, so the wrapped attribute also
catches the calls made inside the package.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

# (module, function) pairs; the span name is "module.function".
TARGETS = (
    ("cli", "main"),
    ("chain", "validate_puts"),
    ("payoff", "make_payoff"),
    ("swap", "swap_rate_bounds"),
    ("swap", "compute_lower"),
    ("lower", "dp_lower_bound"),
    ("lower", "reconstruct_subhedge"),
    ("lower", "tighten_tail"),
    ("lower", "dominates_below"),
    ("lower", "lp_lower_bound"),
    ("lower", "solve_grid_lp"),
    ("lower", "grid_lp_oracle"),
    ("upper", "superhedge"),
    ("pathwise", "build_dyadic_ladder"),
    ("pathwise", "verify_ito"),
    ("pathwise", "occupation_density_check"),
    ("pathwise", "transform_local_time"),
    ("pathwise", "discrete_local_time"),
)
LOCAL_TIME = "pathwise.discrete_local_time"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    cells: int = 0  # levels x steps, for discrete_local_time only


def local_time_cells(signature: inspect.Signature, args, kwargs) -> int:
    """Levels times partition steps that one discrete_local_time call fills in.

    Computed from the arguments, not measured: the horizon ``t`` cuts the
    partition at the first time past it, as the function itself does.
    """
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    times = a["path"].times[np.asarray(a["partition"], dtype=int)]
    steps = len(times) - 1
    if a["t"] is not None:
        steps = int((times <= a["t"] + 1e-12).sum()) - 1
    levels = a["n_levels"] if a["levels"] is None else len(a["levels"])
    return int(levels) * max(steps, 0)


class Tracer:
    """Records one span per call of each target while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._wrappers = {}
        for mod_name, fn_name in TARGETS:
            module = sys.modules[f"varbounds.{mod_name}"]
            original = getattr(module, fn_name)
            self._wrappers[original] = self._wrap(f"{mod_name}.{fn_name}", original)

    @contextmanager
    def span(self, name: str, cells: int = 0):
        record = Span(len(self.spans), name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op, cells)
        self.spans.append(record)
        self._stack.append(record.id)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        if name == LOCAL_TIME:
            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                with self.span(name, local_time_cells(signature, args, kwargs)):
                    return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self, op: int):
        """Trace calls made inside the block; their spans belong to op ``op``."""
        self._op = op
        patches = [
            (module, attr, value)
            for mod_name, module in list(sys.modules.items())
            if mod_name == "varbounds" or mod_name.startswith("varbounds.")
            for attr, value in vars(module).items()
            if inspect.isfunction(value) and value in self._wrappers
        ]
        for module, attr, value in patches:
            setattr(module, attr, self._wrappers[value])
        try:
            yield self
        finally:
            for module, attr, value in patches:
                setattr(module, attr, value)
            self._op = None

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(asdict(record)) + "\n")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith(".cells"):
        return "cells.computed"
    return "count"


def layer_metrics(spans: list[Span], op_ids: set[int]) -> dict[str, float]:
    """Self time and call count per span name, counting only spans of the given ops.

    Spans under a ``check`` root (the correctness checks) are excluded.
    Self time is a span's duration minus the durations of its children;
    calls within one thread nest, so the children never overlap.
    """
    by_id = {s.id: s for s in spans}
    root_of = {}
    for s in spans:
        root_of[s.id] = s.id if s.parent is None else root_of[s.parent]
    kept = [s for s in spans if s.op in op_ids and by_id[root_of[s.id]].name != "check"]
    child_time = {}
    for s in kept:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    metrics = {}
    for mod_name, fn_name in TARGETS:
        name = f"{mod_name}.{fn_name}"
        metrics[f"{name}.self_s"] = 0.0
        metrics[f"{name}.calls"] = 0
    for s in kept:
        metrics[f"{s.name}.self_s"] += (s.end - s.start) - child_time.get(s.id, 0.0)
        metrics[f"{s.name}.calls"] += 1
    metrics[f"{LOCAL_TIME}.cells"] = sum(s.cells for s in kept if s.name == LOCAL_TIME)

    # A reconstruction fell back to the LP when a solve_grid_lp span sits below it.
    fell_back = set()
    for s in kept:
        if s.name != "lower.solve_grid_lp":
            continue
        parent = s.parent
        while parent is not None and by_id[parent].name != "lower.reconstruct_subhedge":
            parent = by_id[parent].parent
        if parent is not None:
            fell_back.add(parent)
    reconstructions = metrics["lower.reconstruct_subhedge.calls"]
    metrics["lower.subhedge_lp_fallbacks"] = len(fell_back)
    metrics["lower.subhedge_lp_fallback_ratio"] = len(fell_back) / reconstructions if reconstructions else 0.0
    metrics["trace.spanned_s"] = sum(s.end - s.start for s in kept if s.parent is None)
    return metrics
