"""In-memory spans and counters for one pass over a workload's tasks.

A span is recorded around each call the benchmark makes into a package
module; its name is ``<module>.<what>``.  Spans of one task share the task
id, and each span records the index of the span that was open when it
started, so self time (duration minus the time covered by child spans) falls
out at the end.  When tracing is off, ``span`` hands back a shared no-op, so
an untraced pass records no spans.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("rec", "name", "index", "parent", "start")

    def __init__(self, rec: "Recorder", name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        self.parent = rec.open[-1] if rec.open else None
        self.index = len(rec.spans)
        rec.spans.append(None)  # slot filled on exit, so parents precede children
        rec.open.append(self.index)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        rec = self.rec
        rec.open.pop()
        rec.spans[self.index] = (rec.task, self.name, self.start, end, self.parent)
        rec.last = end - self.start
        return False


class Recorder:
    """Everything one pass records.

    Counters, task latencies and search outcomes are kept with tracing on or
    off, so traced and untraced passes can be compared count for count.
    Spans are kept only when ``traced``.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list = []
        self.open: list[int] = []
        self.task = 0
        self.last = 0.0  # duration of the span that closed last
        self.counts: Counter = Counter()
        self.latencies: list[float] = []
        # (kind, status, nodes, vertices, seconds or None) per search call
        self.searches: list[tuple] = []
        self.failures: list[str] = []
        self.wall = 0.0
        self.extra = 0.0  # seconds of work only a traced pass does

    def span(self, name: str):
        return _Span(self, name) if self.traced else _NO_SPAN

    @contextmanager
    def traced_only(self):
        """Time work that only traced passes do, so that the tracing
        overhead can leave it out."""
        start = perf_counter()
        try:
            yield
        finally:
            self.extra += perf_counter() - start

    def search(self, kind: str, status: str, nodes: int, vertices: int,
               seconds=None) -> None:
        """Record one search call; ``seconds`` is its span's duration."""
        self.searches.append((kind, status, nodes, vertices, seconds))

    def fail(self, message: str) -> None:
        self.failures.append(f"task {self.task}: {message}")

    def self_times(self) -> dict[str, float]:
        """Total self time per span name over the pass."""
        covered: dict[int, float] = defaultdict(float)
        for _task, _name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (_task, name, start, end, _parent) in enumerate(self.spans):
            totals[name] += (end - start) - covered.get(index, 0.0)
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [end - start for _t, n, start, end, _p in self.spans if n == name]
