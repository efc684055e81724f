"""Outside-in tracing: spans recorded around library functions.

The tracer replaces module attributes with timing wrappers, so it sees a
call only where the caller resolves the function through that attribute
(``pipelines.train`` for the pipelines' calls into the CRF,
``crf.active_features`` for the CRF's calls into the templates, and so
on).  Nothing in the library changes; ``restore`` (or leaving the
``with`` block) puts every original attribute back.

A span has a name, start, end and the span that was open when it began.
Spans are kept in memory and written out when the benchmark ends.  In a
single thread a span's children are nested and disjoint, so its self
time is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; use as a context manager so wrappers are removed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def traced(self, name: str, fn: Callable, info=None, arguments=None) -> Callable:
        """A wrapper of fn that records one span per call.

        ``info(args, kwargs, result)`` returns counts stored on the span;
        ``arguments(args, kwargs)`` may rewrite the call's arguments, e.g.
        to trace a callback handed to fn.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if arguments is not None:
                args, kwargs = arguments(args, kwargs)
            span = Span(len(self.spans), name, 0.0,
                        parent=self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(span.id)
            span.start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self._clock()
                self._open.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return wrapper

    def wrap(self, owner: object, attr: str, name: str, info=None, arguments=None):
        """Replace owner.attr by a traced wrapper until restore()."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.traced(name, original, info, arguments))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def ancestors(spans: list[Span], span: Span):
    """The names of the spans enclosing span, innermost first."""
    parent = span.parent
    while parent is not None:
        yield spans[parent].name
        parent = spans[parent].parent
