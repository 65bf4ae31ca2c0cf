"""In-memory spans for the benchmark's traced run.

A span records a name (``<module>.<operation>``), its start and end on the
``perf_counter_ns`` clock, the index of its parent span and the id of the run
it belongs to. Spans stay in memory until the traced command ends;
``write_jsonl`` then saves them. A span's self time is its duration minus the
part of that interval covered by its child spans.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]  # index into the same span list
    run_id: int

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans from nested ``span`` blocks and wrapped calls, one thread.

    ``calls`` keeps ``(name, function, args, kwargs, result)`` of each wrapped
    call, so that counts can be taken from them after the traced work ends.
    """

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[Optional[Span]] = []
        self.calls: list[tuple] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)  # reserved so children can name this index
        self._open.append(index)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.run_id)

    def wrap(self, name: str, function):
        """``function`` with each call timed as a span called ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = function(*args, **kwargs)
            self.calls.append((name, function, args, kwargs, result))
            return result

        return traced


def self_times_ns(spans: list[Span]) -> list[int]:
    """Per span: duration minus the union of its children's intervals within it."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for span, kids in zip(spans, children):
        covered = 0
        cursor = span.start_ns
        for kid in sorted(kids, key=lambda s: s.start_ns):
            start = max(kid.start_ns, cursor)
            end = min(kid.end_ns, span.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.duration_ns - covered)
    return result


def module_self_s(spans: list[Span]) -> dict[str, float]:
    """Self time summed per module, in seconds."""
    totals: dict[str, float] = {}
    for span, self_ns in zip(spans, self_times_ns(spans)):
        totals[span.module] = totals.get(span.module, 0.0) + self_ns / 1e9
    return totals


def write_jsonl(path, spans: list[Span]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for index, span in enumerate(spans):
            record = {"id": index, **span._asdict()}
            fh.write(json.dumps(record) + "\n")


def read_jsonl(path) -> list[Span]:
    spans = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        spans.append(Span(*(record[field] for field in Span._fields)))
    return spans
