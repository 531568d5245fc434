"""Spans and counters recorded around calls into headwaylab, from outside it.

A Tracer replaces module or class attributes with wrappers (``patch``) that
open spans or bump counters, and puts the originals back on ``restore``.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        s = Span(sid, parent, name, time.perf_counter(), float("nan"))
        self.spans.append(s)
        self._stack.append(sid)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace owner.attr with make_wrapper(original)."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def wrap_span(self, owner, attr: str, name: str, on_result=None) -> None:
        """Time every call of owner.attr as a span; on_result(result), if
        given, runs after each call, outside the span, to record counters."""
        def make(original):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            return wrapper
        self.patch(owner, attr, make)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def total(self, name: str) -> float:
        """Summed duration of the spans with this name."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def write(self, path) -> None:
        own = self_times(self.spans)
        rows = [dict(asdict(s), self=own[s.id]) for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counters": dict(self.counters)}, fh)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover
    (overlapping children are counted once; children are clipped to the
    parent's interval)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for c in sorted(children[s.id], key=lambda c: c.start):
            a, b = max(c.start, s.start), min(c.end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.id] = (s.end - s.start) - covered
    return out
