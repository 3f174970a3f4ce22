"""Spans around calls into the program's public functions, recorded from
the benchmark's side.

`Tracer.installed` swaps each named function, at every module attribute the
program or the benchmark looks it up through, for a wrapper that records a
span (name, parent, start, end, and an optional size of the result), and
puts the originals back on exit.  Spans are timed in CPU seconds of the
process, like the untraced verifications, and stay in memory until the run
ends.  A span's self time is its duration minus the durations of its
children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    size: int | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, size=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self._open[-1] if self._open else None, time.process_time())
            self.spans.append(span)
            self._open.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.process_time()
                self._open.pop()
            if size is not None:
                span.size = size(out)
            return out
        return traced

    @contextmanager
    def installed(self, sites):
        """Wrap `(owner, attribute, span name, size)` sites for the block's duration."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in sites]
        try:
            for owner, attr, name, size in sites:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), size))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals = defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[span.name] += span.end - span.start - child_time[index]
        return dict(totals)

    def sizes(self, name: str) -> list[int]:
        return [s.size for s in self.spans if s.name == name and s.size is not None]
