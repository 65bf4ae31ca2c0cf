"""Character-offset entity spans and annotated examples."""

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


def make_span(source: str, start: int, end: int) -> EntitySpan:
    """Build a disease span over ``source``, slicing its covered text."""
    if not (0 <= start < end <= len(source)):
        raise ValueError(f"span ({start}, {end}) outside text of length {len(source)}")
    return EntitySpan(start=start, end=end, text=source[start:end])


class AnnotatedExample(NamedTuple):
    """A gold-annotated text: content plus its sorted, non-overlapping spans."""

    content: str
    spans: tuple[EntitySpan, ...]
