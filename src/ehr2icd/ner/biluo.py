"""Encode entity spans as BILUO tag sequences and decode them back.

Decoding is total: invalid sequences are repaired rather than rejected. An
I or L with no open entity starts a new entity at that token, and an entity
opened by B but never closed by L ends at its last consecutive I. On valid
input, decoding inverts encoding exactly. The repair rules live in
``entity_runs``, which reads the tags alone; ``decode_biluo`` and the tagger
both call it.
"""

from __future__ import annotations

from ..errors import MisalignedSpan, OverlapError
from ..frozen import Frozen
from .spans import DISEASE_LABEL, EntitySpan, make_span
from .tokenizer import Token

B = "B-Disease"
I = "I-Disease"
L = "L-Disease"
U = "U-Disease"
O = "O"

# Fixed order; also the tie-break order for tag argmax in the tagger.
TAGS = (B, I, L, U, O)


class TagSequence(Frozen):
    """Tokens and their tags, one each; checked when built."""

    __slots__ = ("tokens", "tags")

    def __init__(self, tokens: tuple[Token, ...], tags: tuple[str, ...]):
        if len(tokens) != len(tags):
            raise ValueError("tokens and tags must have equal length")
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "tags", tags)

    def _key(self) -> tuple:
        return self.tokens, self.tags


def encode_biluo(tokens: list[Token], spans: list[EntitySpan]) -> TagSequence:
    """Tag tokens for the given spans; boundaries must sit on token edges.

    ``tokens`` are ordered and disjoint, as ``tokenize`` gives them. A span
    is aligned iff a token starts where it starts, a token ends where it
    ends, and the first comes no later than the last: then the tokens
    between them are the ones it covers, and no other token touches it.
    """
    tags = [O] * len(tokens)
    first_at = {tok.start: k for k, tok in enumerate(tokens)}
    last_at = {tok.end: k for k, tok in enumerate(tokens)}
    for span in sorted(spans, key=lambda s: (s.start, s.end)):
        first = first_at.get(span.start)
        last = last_at.get(span.end)
        if first is None or last is None or first > last:
            raise MisalignedSpan(
                f"span ({span.start}, {span.end}) {span.text!r} does not align "
                f"with token boundaries"
            )
        if any(tag != O for tag in tags[first : last + 1]):
            raise OverlapError(None, f"span ({span.start}, {span.end}) overlaps another span")
        if first == last:
            tags[first] = U
        else:
            tags[first] = B
            tags[first + 1 : last] = [I] * (last - first - 1)
            tags[last] = L
    return TagSequence(tokens=tuple(tokens), tags=tuple(tags))


def entity_runs(tags) -> list[tuple[int, int]]:
    """The first and last token index of each entity that a (possibly
    invalid) tag sequence marks, repaired as the module docstring says; any
    tag other than B, I, L and U counts as O."""
    runs: list[tuple[int, int]] = []
    open_start: int | None = None  # token index of the current B/I run
    last = -1  # last token index added to the open run
    for k, tag in enumerate(tags):
        if tag == B:
            if open_start is not None:
                runs.append((open_start, last))
            open_start, last = k, k
        elif tag == I:
            if open_start is None:
                open_start = k  # repair: I without B opens here
            last = k
        elif tag == L:
            if open_start is None:
                open_start = k  # repair: lone L is a single-token entity
            runs.append((open_start, k))
            open_start = None
        elif tag == U:
            if open_start is not None:
                runs.append((open_start, last))
                open_start = None
            runs.append((k, k))
        elif open_start is not None:  # O
            runs.append((open_start, last))
            open_start = None
    if open_start is not None:
        runs.append((open_start, last))
    return runs


def decode_biluo(seq: TagSequence, source: str) -> list[EntitySpan]:
    """Turn a (possibly invalid) tag sequence into non-overlapping spans."""
    tokens = seq.tokens
    return [
        make_span(source, tokens[first].start, tokens[last].end, DISEASE_LABEL)
        for first, last in entity_runs(seq.tags)
    ]
