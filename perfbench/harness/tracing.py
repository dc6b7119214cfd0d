"""In-memory spans: name, start, end, parent, plus self time.

A :class:`Tracer` records one span per wrapped call.  Parents are tracked
per thread, so spans opened by the service's worker threads nest under
the call that opened them on that thread and never under another
thread's.  Spans stay in memory and are exported once, at the end of a
run (:meth:`Tracer.export`).
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    """One timed call.  ``parent`` is the enclosing span's id, or None."""

    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(**data)


class Tracer:
    """Thread-safe span recorder.

    Args:
        clock: monotonic clock; ``time.perf_counter`` reads
            ``CLOCK_MONOTONIC`` on Linux, which is shared by every process
            on the host, so a server's spans line up with its client's.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enclosing(self, name: str) -> Span | None:
        """The innermost open span called `name` on this thread."""
        for span in reversed(self._stack()):
            if span.name == name:
                return span
        return None

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Time the enclosed block as one span (closed even on error)."""
        stack = self._stack()
        with self._lock:
            span = Span(
                id=len(self.spans),
                name=name,
                start=0.0,
                parent=stack[-1].id if stack else None,
                attrs=dict(attrs),
            )
            self.spans.append(span)
        stack.append(span)
        span.start = self.clock()
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_call: Callable[..., None] | None = None,
        before: Callable[..., None] | None = None,
    ) -> Callable:
        """`fn` timed as span `name`.

        ``before(span, *args, **kwargs)`` runs inside the span ahead of the
        call, so spans it opens can read the attributes it sets;
        ``on_call(span, result, *args, **kwargs)`` runs after a successful
        call to record attributes (iterations, steps, hits...).
        """

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as span:
                if before is not None:
                    before(span, *args, **kwargs)
                result = fn(*args, **kwargs)
                if on_call is not None:
                    on_call(span, result, *args, **kwargs)
            return result

        return traced

    def export(self) -> list[dict]:
        with self._lock:
            return [span.to_dict() for span in self.spans]


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children are clipped to the parent's interval and merged first, so
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result: dict[int, float] = {}
    for span in spans:
        covered = union_length(
            [
                (max(start, span.start), min(end, span.end))
                for start, end in children.get(span.id, [])
                if min(end, span.end) > max(start, span.start)
            ]
        )
        result[span.id] = span.duration - covered
    return result


def inside(spans: list[Span], name: str) -> set[int]:
    """Ids of spans that have an ancestor called `name`."""
    by_id = {span.id: span for span in spans}
    result: set[int] = set()
    for span in spans:
        parent = span.parent
        # A parent outside `spans` (cut off by a time window) ends the walk.
        while parent is not None and parent in by_id:
            ancestor = by_id[parent]
            if ancestor.name == name:
                result.add(span.id)
                break
            parent = ancestor.parent
    return result
