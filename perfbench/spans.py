"""Spans recorded around the public functions of each pgarc layer.

A Tracer replaces every binding of a wrapped function in the loaded
pgarc modules, including the names other modules import under their own
namespace (``pgarc.search.canonicalize``, ``pgarc.certificates.build_plane``),
and restores the originals when it is closed.  Spans are kept in memory
as (name, start, end, parent, note).  Calls made inside forked scheduler
workers run the wrapped function without recording, so work done in
workers shows only as the ``scheduler.run_jobs`` span of the parent.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    note: dict | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _size(plane, points, *args, **kwargs) -> dict:
    return {"size": len(points)}


def _point_set(plane, points, *args, **kwargs) -> dict:
    return {"plane": plane, "points": tuple(points)}


def _jobs(part, *args, **kwargs) -> dict:
    return {"jobs": part.job_count}


# (module, function, note taken from the call's arguments)
LAYER_FUNCTIONS = (
    ("pgarc.gf", "build_field", None),
    ("pgarc.plane", "build_plane", None),
    ("pgarc.collineation", "canonicalize", _size),
    ("pgarc.collineation", "stabilizer", _point_set),
    ("pgarc.arcs", "candidate_mask", _size),
    ("pgarc.search", "classify", None),
    ("pgarc.search", "extend", None),
    ("pgarc.search", "min_complete_size", None),
    ("pgarc.scheduler", "run_jobs", _jobs),
    ("pgarc.certificates", "verify", None),
    ("pgarc.certificates", "resolve_gf32_polynomial", None),
)


class Tracer:
    """Context manager that records spans while it is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "pgarc"]
        for module_name, attr, note in LAYER_FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(f"{module_name.split('.')[-1]}.{attr}", original, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def _wrap(self, name: str, fn, note):
        spans, stack, pid = self.spans, self._stack, self._pid
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None,
                        note(*args, **kwargs) if note else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return wrapper


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.seconds
    return out
