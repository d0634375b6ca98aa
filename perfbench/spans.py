"""In-memory span tracing by wrapping calls from outside the program.

The benchmark never edits the program to trace it.  :meth:`Tracer.patched`
swaps a timing wrapper in for a function or method on an object the
benchmark can reach -- an instance the runner built, the class of an
object the program builds internally, or the module namespace a caller
looks a function up in -- and restores the original on exit.

A span records its name, start, end and the span that was open when it
began (its parent).  Calls run on one thread (the serial executor), so a
plain stack gives the parent.  A span's *self* time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from time import perf_counter

_MISSING = object()


class Tracer:
    """Collects spans as ``[name, start, end, parent]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        stack = self._stack
        span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    @contextlib.contextmanager
    def patched(self, targets: Iterable[tuple[object, str, str]]) -> Iterator[None]:
        """Wrap ``owner.attr`` as span *name* for each target, then restore.

        An attribute the owner did not hold itself (a method reached
        through an instance) is deleted again on exit, which re-exposes
        the class attribute; one it held is set back.
        """
        restore: list[tuple[object, str, object]] = []
        try:
            for owner, attr, name in targets:
                restore.append((owner, attr, vars(owner).get(attr, _MISSING)))
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            yield
        finally:
            for owner, attr, original in reversed(restore):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def layers(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: ``(calls, total seconds, self seconds)``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, list] = {}
        for (name, start, end, _parent), covered in zip(self.spans, child):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
        return {name: (calls, total, own) for name, (calls, total, own) in table.items()}

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: a header naming the fields, then
        one ``[id, parent, name, start_s, end_s]`` row per span, times in
        seconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({"fields": ["id", "parent", "name", "start_s", "end_s"]}) + "\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                row = [index, parent, name, round(start - origin, 7), round(end - origin, 7)]
                out.write(json.dumps(row, separators=(",", ":")) + "\n")
