"""In-memory span recorder that times library layers from the outside.

A hook replaces a public function in the module namespace where its
callers look it up (``trajectory.prepare``, ``_kernels.run_steps``, ...)
with a wrapper that records a span: name, start, end and the span that
was open when it was called.  Self times are computed afterwards from the
spans.  A hook whose target does not exist is recorded as absent instead
of failing, so the recorder outlives refactors of the code it measures.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Hook:
    """Wrap ``attr`` of the module imported as ``module`` as span ``name``.

    ``count`` maps ``(args, kwargs, result)`` to a dict of counter
    increments recorded after each successful call.
    """

    module: str
    attr: str
    name: str
    count: object = None


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        span = self.spans[index]
        self.spans[index] = Span(span.name, span.start, self.clock(), span.parent)

    def call(self, name: str, func, *args, **kwargs):
        """Call ``func`` inside a span called ``name``."""
        index = self._open(name)
        try:
            return func(*args, **kwargs)
        finally:
            self._close(index)

    def install(self, hooks) -> None:
        for hook in hooks:
            try:
                module = importlib.import_module(hook.module)
            except ModuleNotFoundError:
                module = None
            original = getattr(module, hook.attr, None)
            if not callable(original):
                self.absent.append(f"{hook.module}.{hook.attr}")
                continue
            setattr(module, hook.attr, self._wrap(original, hook))
            self._patched.append((module, hook.attr, original))

    def _wrap(self, original, hook: Hook):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.call(hook.name, original, *args, **kwargs)
            self.counts[hook.name + ".calls"] += 1
            if hook.count is not None:
                self.counts.update(hook.count(args, kwargs, result))
            return result

        return wrapper

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per name: span durations minus the time covered by direct children.

    Spans come from one thread, so children nest inside their parent and
    do not overlap; the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    out: dict[str, float] = {}
    for span, child_time in zip(spans, covered):
        out[span.name] = out.get(span.name, 0.0) + span.duration - child_time
    return out


def busy_times(spans: list[Span]) -> dict[str, float]:
    """Per name: wall time inside spans of that name, recursion counted once."""
    out: dict[str, float] = {}
    for span in spans:
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            out[span.name] = out.get(span.name, 0.0) + span.duration
    return out
