"""Greedy longest-match lexicon annotator.

This is the dictionary-system comparator: it only recognizes surface forms
present in its lexicon, so misspellings and unseen names yield nothing and
compound names covered only piecewise come out as separate spans. Matching
is case-insensitive but punctuation-sensitive, over the shared tokenizer, so
its offsets are directly comparable with the learned tagger's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .ner.spans import EntitySpan, make_span
from .ner.tokenizer import tokenize
from .textio import read_text


@dataclass(frozen=True)
class Lexicon:
    """Normalized term -> canonical surface form; immutable after build."""

    terms: dict[str, str]
    max_term_tokens: int


def normalize_term(text: str) -> str:
    """Lowercased, single-spaced token sequence used as a lexicon key."""
    return " ".join(token.text.lower() for token in tokenize(text))


def build_lexicon(kb, extra_terms: Iterable[str] = ()) -> Lexicon:
    """Collect every knowledge-base name and synonym plus any extra terms."""
    terms: dict[str, str] = {}
    longest = 0
    surfaces: list[str] = []
    for entry in kb.entries:
        surfaces.append(entry.name)
        surfaces.extend(entry.synonyms)
    surfaces.extend(extra_terms)
    for surface in surfaces:
        key = normalize_term(surface)
        if not key:
            continue
        terms.setdefault(key, surface)
        longest = max(longest, len(key.split(" ")))
    return Lexicon(terms=terms, max_term_tokens=longest)


def read_terms(path) -> list[str]:
    """A term file (extra lexicon terms or a stoplist): one term per line,
    blank lines and '#' comments ignored."""
    terms = []
    for line in read_text(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        terms.append(line)
    return terms


def dict_annotate(text: str, lexicon: Lexicon) -> list[EntitySpan]:
    """Scan left to right, preferring the longest lexicon match at each position."""
    tokens = tokenize(text)
    lower = [t.text.lower() for t in tokens]
    spans: list[EntitySpan] = []
    i = 0
    while i < len(tokens):
        matched = 0
        longest_try = min(lexicon.max_term_tokens, len(tokens) - i)
        for length in range(longest_try, 0, -1):
            key = " ".join(lower[i : i + length])
            if key in lexicon.terms:
                spans.append(
                    make_span(text, tokens[i].start, tokens[i + length - 1].end)
                )
                matched = length
                break
        i += matched or 1
    return spans
