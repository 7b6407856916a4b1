"""In-memory span recorder and function wrapping for the traced benchmark run.

A span is [name, start, end, parent, example_id, tag]: times from
time.perf_counter, parent the index of the enclosing span (-1 for a root).
Spans stay in memory until the run ends and are then written as JSONL.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, EXAMPLE, TAG = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.example_id: str | None = None
        self._stack: list[int] = []

    def _open(self, name: str, tag) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.example_id, tag]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, tag=None):
        span = self._open(name, tag)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, before=None, after=None):
        """Return fn wrapped in a span. before(args, kwargs) returns the span's
        tag; after(args, kwargs, result, span) runs once fn has returned."""
        def traced(*args, **kwargs):
            span = self._open(name, before(args, kwargs) if before else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after:
                after(args, kwargs, result, span)
            return result
        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, example_id, tag in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                    "example_id": example_id, "tag": tag}) + "\n")


@contextmanager
def instrument(tracer: Tracer, package: str, targets: dict, hooks: dict):
    """Wrap each function targets[module] names, under the span name
    "<module>.<function>", everywhere the package holds a reference to it
    (modules import each other's functions by name). Restores on exit.

    Returns, through the context, the span names that could not be found."""
    missing, patched = [], []
    modules = [m for name, m in list(sys.modules.items())
               if name == package or name.startswith(package + ".")]
    for module, functions in targets.items():
        mod = sys.modules.get(f"{package}.{module}")
        for fname in functions:
            span_name = f"{module}.{fname}"
            original = getattr(mod, fname, None)
            if not callable(original):
                missing.append(span_name)
                continue
            before, after = hooks.get(span_name, (None, None))
            wrapped = tracer.wrap(span_name, original, before, after)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
                        patched.append((m, attr, original))
    try:
        yield missing
    finally:
        for m, attr, original in reversed(patched):
            setattr(m, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(s[END] - s[START] - covered)
    return out
