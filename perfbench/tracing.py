"""Spans recorded by the benchmark around its calls into the program's layers.

A span has a name (``<layer>.<call>``), start and end on the monotonic
clock, the id of the span that was open on the same thread when it began
(its parent), and the run id.  Spans stay in memory until :meth:`Tracer.write`
dumps them as JSON lines at the end of the run.  A disabled tracer records
nothing, so the untraced end-to-end runs pay only a flag test per call.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects :class:`Span` records for one run (thread-safe)."""

    def __init__(self, run_id: str, enabled: bool = False) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        """Record the enclosed block as span ``name``; yields the span or ``None``."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        record = Span(span_id, stack[-1] if stack else None, name,
                      time.perf_counter(), attrs=dict(attrs))
        stack.append(span_id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def named(self, name: str, **attrs) -> list[Span]:
        """Finished spans called ``name`` whose attrs include ``attrs``."""
        return [s for s in self.spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            for s in sorted(self.spans, key=lambda s: s.start):
                stream.write(json.dumps({
                    "run": self.run_id, "id": s.span_id, "parent": s.parent,
                    "name": s.name, "start": s.start, "end": s.end, **s.attrs,
                }) + "\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per layer.

    A span's self time is its duration minus the part of its interval that
    its child spans cover; children that overlap each other (concurrent
    client threads) are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    totals: dict[str, float] = {}
    for s in spans:
        own = s.duration - covered(children.get(s.span_id, ()), s.start, s.end)
        totals[s.layer] = totals.get(s.layer, 0.0) + own
    return totals
