"""In-memory spans recorded around calls into pmelab's public functions.

A span is [name, start_ns, end_ns, parent span or None]. Spans are kept in a
list while the round runs and written out once it ends. A span opened in a
worker thread with no open span of its own takes as parent the span that is
open on the main thread (the command that started the pool), so that the
command's self time excludes work done on its behalf in other threads.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[list]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """fn with a span named `name` around each call."""
        main_stack = self._main_stack
        spans = self.spans
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            span = [name, perf_counter_ns(), 0, parent]
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def write(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[s[0], s[1], s[2], None if s[3] is None else index[id(s[3])]]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": rows, "counters": self.counters}, fh,
                      separators=(",", ":"))


def self_times(spans) -> dict[str, tuple[int, float]]:
    """{name: (call count, summed self seconds)}. A span's self time is its
    duration minus the part of its interval covered by its child spans
    (children in parallel threads may overlap, so their union is taken)."""
    children: dict[int, list] = {}
    for s in spans:
        if s[3] is not None:
            children.setdefault(id(s[3]), []).append((s[1], s[2]))
    out: dict[str, tuple[int, float]] = {}
    for s in spans:
        start, end = s[1], s[2]
        covered = 0
        cursor = start
        for a, b in sorted(children.get(id(s), ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        calls, total = out.get(s[0], (0, 0.0))
        out[s[0]] = (calls + 1, total + (end - start - covered) * 1e-9)
    return out
