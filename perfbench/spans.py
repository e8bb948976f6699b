"""In-memory span recorder for the traced benchmark passes.

Spans wrap calls into the program's public functions from the benchmark's
own code.  Each records (name, start, end, parent, pass id); nothing is
written until the run ends.  A disabled tracer hands out one shared no-op
context manager, so untraced passes pay a method call and nothing more.
"""
from __future__ import annotations

import time


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, parent, tr.pass_id])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr.stack.pop()
        return False


class Tracer:
    def __init__(self, enabled: bool, pass_id: str = ""):
        self.enabled = enabled
        self.pass_id = pass_id
        self.spans: list = []
        self.stack: list = []

    def span(self, name: str | None):
        """Context manager recording one span; no-op when disabled or unnamed."""
        if not self.enabled or name is None:
            return _NO_SPAN
        return _Span(self, name)

    def records(self) -> list[dict]:
        """Finished spans with their self time (duration minus children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "pass": pass_id,
                "self": end - start - child_time[i],
            }
            for i, (name, start, end, parent, pass_id) in enumerate(self.spans)
        ]

