"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: a timing wrapper replaces a
function where the calling module looks it up (for example
``elfopt.linesearch.select_degree_and_fit``), and the original is put back
when the traced pass ends. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import csv
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 for a root
    run_id: int          # one training run (or one CLI seed) per id

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span stack plus counters recorded at the same
    boundaries."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.run_id)

    def wrap(self, name, fn, on_result=None):
        """A drop-in replacement for fn that records a span per call and
        hands the result to on_result(counts, result)."""

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.
        Calls nest on one thread, so children never overlap."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, covered)]

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "name", "start", "end", "parent", "run_id"])
            for i, span in enumerate(self.spans):
                writer.writerow([i, span.name, repr(span.start), repr(span.end),
                                 span.parent, span.run_id])


class TracedProblem:
    """Delegating proxy that records a span around every batch oracle call."""

    def __init__(self, problem, tracer: Tracer):
        self._problem = problem
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._problem, name)

    def batch_loss(self, theta, batch):
        return self._tracer.call("problems.batch_loss", self._problem.batch_loss, theta, batch)

    def batch_gradient(self, theta, batch):
        return self._tracer.call(
            "problems.batch_gradient", self._problem.batch_gradient, theta, batch
        )


@contextlib.contextmanager
def patched(replacements):
    """Set module attributes for the duration of the block:
    replacements is a list of (module, attribute name, new value)."""
    saved = []
    try:
        for module, name, value in replacements:
            saved.append((module, name, getattr(module, name)))
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)
