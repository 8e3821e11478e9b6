"""Spans around the program's public functions, recorded from outside.

The tracer replaces module attributes with timing wrappers; the program
itself is not edited.  A span is ``[name, start, end, parent, root, info]``:
``parent`` and ``root`` are span indices (-1 for none), ``root`` being the
``cli.main`` span of the operation that caused it.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, ROOT, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, info=None) -> list:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self._stack[0] if self._stack else idx
        span = [name, 0.0, 0.0, parent, root, info]
        self.spans.append(span)
        self._stack.append(idx)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, info=None):
        s = self._open(name, info)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, module, attr: str, name: str, info=None) -> None:
        """Replace ``module.attr`` by a wrapper recording a span per call;
        ``info(args, result)`` fills the span's info field."""
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if info is not None:
                s[INFO] = info(args, result)
            return result

        self._patched.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "root", "info"],
                       "spans": self.spans}, handle)
