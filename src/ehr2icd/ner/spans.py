"""Character-offset entity spans, annotated examples, and the spans over runs
of a text's tokens that both annotators build."""

from __future__ import annotations

from typing import NamedTuple

DISEASE_LABEL = "Disease"


class EntitySpan(NamedTuple):
    """A disease mention located by half-open character offsets."""

    start: int
    end: int  # exclusive
    text: str
    label: str = DISEASE_LABEL

    def overlaps(self, other: "EntitySpan") -> bool:
        return self.start < other.end and other.start < self.end


def run_spans(text: str, tokens: list[str], runs: list[tuple[int, int]]) -> list[EntitySpan]:
    """The disease spans of ``text`` over each (first, last) run of the
    indexes of its ``tokens``, which are its token texts in order.

    Only whitespace lies between tokens, so a token starts at its text's
    first occurrence after the end of the token before it: offsets are found
    only for the tokens up to the last run's end.
    """
    starts, ends = [], []
    end = 0
    for token in tokens[: runs[-1][1] + 1]:
        start = text.find(token, end)
        end = start + len(token)
        starts.append(start)
        ends.append(end)
    spans = []
    for first, last in runs:
        start, end = starts[first], ends[last]
        # tuple.__new__ skips the named tuple's Python-level __new__.
        spans.append(tuple.__new__(EntitySpan, (start, end, text[start:end], DISEASE_LABEL)))
    return spans


class AnnotatedExample(NamedTuple):
    """A gold-annotated text: content plus its sorted, non-overlapping spans."""

    content: str
    spans: tuple[EntitySpan, ...]
