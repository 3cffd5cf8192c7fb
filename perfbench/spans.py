"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps functions of the recomb package from the outside; no
file of the package changes.  A wrapped function is replaced in every
``recomb`` module namespace that bound the same object, so a call made
through a ``from .ancestral import build_generator`` binding in another
module is traced too.  Methods and classmethods are wrapped on their
class.

Each call records a span: name, parent span, job id, thread, start, end,
and optional counts taken from the arguments and the result.  A call made
by a worker thread that has no open span of its own takes the innermost
open span of the main thread as its parent: the benchmark is a closed
loop with one client, so the main thread is then waiting on that call.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    job: str | None
    thread: int
    t0: float
    t1: float
    info: dict | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, info: Callable | None) -> Callable:
        tracer = self
        sig = inspect.signature(fn) if info is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                span = Span(sid, parent, name, tracer.job, threading.get_ident(), t0, t1, None)
                tracer.spans.append(span)
            if info is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = info(bound.arguments, result)
            return result

        return wrapper

    def wrap_function(self, name: str, module, attr: str, info: Callable | None = None) -> None:
        """Trace ``module.attr`` in every recomb namespace that binds it."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, info)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "recomb" or mod_name.startswith("recomb.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def wrap_method(self, name: str, cls, attr: str, info: Callable | None = None) -> None:
        """Trace a method or classmethod on its class."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(name, original.__func__, info))
        else:
            wrapped = self._wrap(name, original, info)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    return {
        s.sid: (s.t1 - s.t0) - covered(children.get(s.sid, []), s.t0, s.t1)
        for s in spans
    }
