"""In-memory spans and counters for the traced run.

Spans are recorded only from the benchmark's own files, around its calls
into each nornet module's public functions. A span has a name (``layer`` or
``layer.function``), start and end (perf_counter_ns), the index of its
parent span, the id of the operation it belongs to (one query or one
case), and free-form attributes such as the network and phase. Nothing is
written until the run ends.
"""

from __future__ import annotations

import time
from collections import Counter


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, parent, op, attrs):
        self.index = -1
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs = attrs

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, op=None, **attrs) -> "_Open":
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        rec = Span(name, 0, parent, op, attrs)
        return _Open(self, rec)

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children."""
        out = [s.ns for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.ns
        return out

    def child_ns(self, skip: str) -> dict[int, int]:
        """Per parent span index: the summed durations of its direct
        children, leaving out spans named ``skip``."""
        out: dict[int, int] = {}
        for s in self.spans:
            if s.parent is not None and s.name != skip:
                out[s.parent] = out.get(s.parent, 0) + s.ns
        return out

    def named(self, name: str, **attrs) -> list[Span]:
        return [
            s for s in self.spans
            if s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items())
        ]


class _Open:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, rec):
        self.tracer = tracer
        self.rec = rec

    def __enter__(self) -> Span:
        tr = self.tracer
        self.rec.index = len(tr.spans)
        tr._stack.append(self.rec.index)
        tr.spans.append(self.rec)
        self.rec.start = time.perf_counter_ns()
        return self.rec

    def __exit__(self, *exc):
        self.rec.end = time.perf_counter_ns()
        self.tracer._stack.pop()
        return False
