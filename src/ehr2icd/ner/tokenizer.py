"""The one token definition, shared by the annotators, the lexicon and the linker.

Tokens are maximal runs of letters or digits; every other non-space
character (including "/", "+", and "-") becomes a single-character token.
Whitespace is discarded but offsets always index the original string, so
joining tokens with their original gaps reconstructs the input. Case is
folded token by token, never before tokenizing: ``str.lower`` can change a
string's length and character classes ('İ' becomes two code points). Only
``folded_tokens`` and ``folded_words`` lowercase a whole string first, and
only ASCII text, where neither can change.
"""

from __future__ import annotations

import re
from typing import NamedTuple

# [^\W_] is "word character minus underscore", i.e. letters and digits. Its
# matches are exactly the word tokens; every other token is one character.
_WORD_RE = re.compile(r"[^\W_]+")
_TOKEN_RE = re.compile(_WORD_RE.pattern + r"|\S")
# Lowercasing ASCII text changes no length or character class, so on the
# lowercased text the token pattern matches the lowercased tokens, and the
# word pattern matches exactly these runs.
_ASCII_WORD_RE = re.compile(r"[a-z0-9]+")


class Token(NamedTuple):
    text: str
    start: int
    end: int


def tokenize(text: str) -> list[Token]:
    # tuple.__new__ skips the named tuple's Python-level __new__.
    return [
        tuple.__new__(Token, (m.group(), m.start(), m.end())) for m in _TOKEN_RE.finditer(text)
    ]


def folded_tokens(text: str) -> list[str]:
    """The text of each token, in order, lowercased."""
    if text.isascii():
        return _TOKEN_RE.findall(text.lower())
    return [token.lower() for token in _TOKEN_RE.findall(text)]


def folded_words(text: str) -> set[str]:
    """The distinct word tokens (runs of letters or digits), each lowercased."""
    if text.isascii():
        return set(_ASCII_WORD_RE.findall(text.lower()))
    return {word.lower() for word in _WORD_RE.findall(text)}
