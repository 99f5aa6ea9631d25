"""In-memory spans and counters for one traced benchmark iteration.

A span is (name, start, end, parent). Spans nest through a stack, so the
tracer assumes one thread of control; pool workers are never traced.
"""

import functools
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def begin(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), None, parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        span.end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)

    def count(self, name, n=1):
        self.counts[name] += n

    def timed(self, name, fn):
        """fn wrapped in a span called name, also counting name.calls."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(f"{name}.calls")
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def counted(self, name, fn):
        """fn wrapped to count name.calls only; no span, so no clock reads."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(f"{name}.calls")
            return fn(*args, **kwargs)
        return wrapper

    def total(self, name):
        """Summed duration of every span with this name."""
        return sum(s.duration for s in self.spans if s.name == name)

    def self_times(self):
        """{span id: duration minus the part of it that child spans cover}."""
        kids = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        return {s.id: s.duration - covered(s, kids.get(s.id, ())) for s in self.spans}

    def to_dict(self):
        own = self.self_times()
        return {
            "spans": [
                {"id": s.id, "name": s.name, "parent": s.parent,
                 "start": s.start, "end": s.end, "self": own[s.id]}
                for s in self.spans
            ],
            "counts": dict(sorted(self.counts.items())),
        }


def covered(span, others):
    """Length of the union of the others' intervals, clipped to span."""
    total = 0.0
    cursor = span.start
    for o in sorted(others, key=lambda o: o.start):
        lo = max(o.start, cursor)
        hi = min(o.end, span.end)
        if hi > lo:
            total += hi - lo
        cursor = max(cursor, min(o.end, span.end))
    return total


def span_of(tracer, name):
    """tracer.span(name), or a no-op context when tracing is off."""
    return tracer.span(name) if tracer is not None else nullcontext()
