"""The BILUO tags, and the entities a tag sequence marks.

A span of one token is tagged U; a longer one B, then I for each token
inside, then L; every other token is O. Reading tags is total: invalid
sequences are repaired rather than rejected. An I or L with no open entity
starts a new entity at that token, and an entity opened by B but never
closed by L ends at its last consecutive I. On valid input, ``entity_runs``
gives back exactly the token runs that were tagged. The tagger tags its
training spans so and decodes its guesses through ``entity_runs``.
"""

from __future__ import annotations

B = "B-Disease"
I = "I-Disease"
L = "L-Disease"
U = "U-Disease"
O = "O"

# Fixed order; also the tie-break order for tag argmax in the tagger.
TAGS = (B, I, L, U, O)


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
