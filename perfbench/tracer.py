"""In-memory spans around calls into the library, installed from outside it.

A ``Tracer`` replaces a function or method with a wrapper that records one
span per call: name, start, end and the index of the enclosing span. Spans
stay in memory until the caller reads them. ``self_times`` turns them into
per-name call counts and self seconds (a span's duration minus the part its
child spans cover), so the self times of all spans add up to the traced
wall time.

A module that binds a helper with ``from ._linalg import sym_solve`` looks
it up under its own name, so a wrapper installed only on the defining
module sees none of its calls. ``patch_function`` therefore installs the
wrapper under every name, in every ``dynct`` module, that refers to the
original function object.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []  # span names whose target does not exist
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, fn, name, on_call=None):
        """fn recording a span per call.

        name is a string or a function of the call's positional arguments;
        on_call(tracer, args, kwargs, result) runs after the span closes.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = Span(label, start, end, parent)
            if on_call is not None:
                on_call(tracer, args, kwargs, result)
            return result

        return traced

    def patch_function(self, module, attr: str, name, on_call=None) -> None:
        """Wrap module.attr under every dynct-module name bound to it."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(name)
            return
        wrapped = self.wrap(original, name, on_call)
        owners = {id(module): module}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "dynct" or mod_name.startswith("dynct."):
                owners[id(mod)] = mod
        for owner in owners.values():
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapped)
                    self._undo.append((owner, key, original))

    def patch_method(self, cls, attr: str, name, on_call=None) -> None:
        """Wrap a method defined on cls itself (subclasses inherit it)."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, on_call))
        self._undo.append((cls, attr, original))

    def restore(self) -> None:
        """Put every wrapped name back, newest first."""
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """(calls, self seconds) per span name."""
        spans = [s for s in self.spans if s is not None]
        if len(spans) != len(self.spans):
            raise RuntimeError("self_times: a traced call is still open")
        own = [s.end - s.start for s in spans]
        for s in spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        calls: dict[str, int] = {}
        seconds: dict[str, float] = {}
        for s, t in zip(spans, own):
            calls[s.name] = calls.get(s.name, 0) + 1
            seconds[s.name] = seconds.get(s.name, 0.0) + t
        return calls, seconds

    def span_records(self) -> list[list]:
        """Spans as [name, start, end, parent] rows, times from the first start."""
        if not self.spans:
            return []
        t0 = self.spans[0].start
        return [[s.name, s.start - t0, s.end - t0, s.parent] for s in self.spans]
