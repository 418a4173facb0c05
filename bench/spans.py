"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped function: its name, start and end on the
perf_counter clock, the index of the span that was open when it started
(its parent), the name of the exception it raised if any, and counts the
caller attaches from the call's arguments and result.  Spans stay in
memory until the run ends and are written out once.
"""

import functools
import importlib
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans for functions it wraps.  Single-threaded by design:
    the parent of a span is whichever span is open when it starts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []
        self._patched = []

    def wrap(self, fn, name, counts=None):
        """``fn`` recording one span per call.  ``counts(args, kwargs,
        result)`` returns a dict of numbers stored on the span after a
        successful call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.clock(), parent=self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = self.clock()
                self._open.pop()
            if counts is not None:
                span.attrs.update(counts(args, kwargs, result))
            return result

        return traced

    def patch(self, targets):
        """Replace ``module.attr`` by its traced wrapper for each
        ``(module, attr, span_name, counts)`` target."""
        for module_name, attr, name, counts in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, counts))

    def unpatch(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, fh):
        json.dump([[s.name, s.start, s.end, s.parent, s.error, s.attrs]
                   for s in self.spans], fh)


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for start, end in sorted((spans[k].start, spans[k].end) for k in kids):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out
